"""Tests for stream, layered-update and snapshot persistence."""

from __future__ import annotations

import json

import pytest

from repro.api.sources import ReplaySource
from repro.exceptions import ConfigurationError
from repro.graph.reduction import expand_general_update
from repro.graph.updates import EdgeUpdate, UpdateStream
from repro.api import counter_spec
from repro.io import (
    edge_update_from_dict,
    edge_update_to_dict,
    layered_update_from_dict,
    layered_update_to_dict,
    load_layered_updates,
    load_stream,
    save_layered_updates,
    save_stream,
)
from repro.workloads.generators import erdos_renyi_stream


class TestUpdateDicts:
    def test_edge_update_round_trip(self):
        update = EdgeUpdate.delete("a", "b")
        assert edge_update_from_dict(edge_update_to_dict(update)) == update

    def test_layered_update_round_trip(self):
        updates = expand_general_update(EdgeUpdate.insert(1, 2))
        for update in updates:
            assert layered_update_from_dict(layered_update_to_dict(update)) == update

    def test_malformed_payloads(self):
        with pytest.raises(ConfigurationError):
            edge_update_from_dict({"u": 1, "v": 2, "kind": "replace"})
        with pytest.raises(ConfigurationError):
            layered_update_from_dict({"relation": "A", "left": 1})

    def test_array_labels_decode_to_tuples(self):
        update = EdgeUpdate.insert(("L1", ("x", 2)), ("L2", 3))
        payload = json.loads(json.dumps(edge_update_to_dict(update)))
        assert edge_update_from_dict(payload) == update
        layered = layered_update_from_dict(
            {"relation": "A", "left": ["k", 1], "right": 2, "kind": "insert"}
        )
        assert layered.left == ("k", 1)

    @pytest.mark.parametrize("label", [{"x": 1}, ["A", {"x": 1}]])
    def test_unhashable_labels_are_malformed(self, label):
        with pytest.raises(ConfigurationError, match="malformed edge-update"):
            edge_update_from_dict({"u": label, "v": 6, "kind": "insert"})
        with pytest.raises(ConfigurationError, match="malformed layered-update"):
            layered_update_from_dict({"relation": "A", "left": label, "right": 6, "kind": "insert"})


class TestStreamFiles:
    def test_stream_round_trip(self, tmp_path):
        stream = erdos_renyi_stream(12, 80, seed=1)
        path = tmp_path / "stream.jsonl"
        save_stream(stream, path)
        loaded = load_stream(path)
        assert loaded == stream

    def test_tuple_labels_round_trip(self, tmp_path):
        """Tuple labels (as a tuple feed produces them) are written as JSON
        arrays and come back as tuples, through both readers."""
        stream = UpdateStream(
            [
                EdgeUpdate.insert(("L1", 1), ("L2", 1)),
                EdgeUpdate.insert(("L2", 1), ("L3", ("a", 2))),
                EdgeUpdate.delete(("L1", 1), ("L2", 1)),
            ]
        )
        path = tmp_path / "tuples.jsonl"
        save_stream(stream, path)
        assert load_stream(path) == stream
        assert list(ReplaySource(path)) == list(stream)
        counter = counter_spec("wedge").create()
        counter.apply_all(ReplaySource(path))
        assert counter.is_consistent() and counter.num_edges == 1

    def test_layered_round_trip(self, tmp_path):
        updates = expand_general_update(EdgeUpdate.insert("x", "y"))
        path = tmp_path / "layered.jsonl"
        save_layered_updates(updates, path)
        assert load_layered_updates(path) == updates

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            load_stream(path)

    @pytest.mark.parametrize(
        "bad_line",
        [
            '{"u": 3}',
            "not json",
            "[1, 2]",
            '{"u": 1, "v": 2, "kind": "replace"}',
            '{"u": 5, "v": 5, "kind": "insert"}',
        ],
    )
    def test_both_readers_name_path_and_line(self, tmp_path, bad_line):
        path = tmp_path / "s.jsonl"
        path.write_text('{"u": 1, "v": 2, "kind": "insert"}\n' + bad_line + "\n")
        with pytest.raises(ConfigurationError, match=r"s\.jsonl:2"):
            load_stream(path)
        with pytest.raises(ConfigurationError, match=r"s\.jsonl:2"):
            list(ReplaySource(path))

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text(
            json.dumps(edge_update_to_dict(EdgeUpdate.insert(1, 2))) + "\n\n", encoding="utf-8"
        )
        assert len(load_stream(path)) == 1

    def test_replaying_saved_stream_gives_same_count(self, tmp_path):
        stream = erdos_renyi_stream(14, 100, seed=2)
        path = tmp_path / "stream.jsonl"
        save_stream(stream, path)
        first = counter_spec("wedge").create()
        second = counter_spec("wedge").create()
        first.apply_all(stream)
        second.apply_all(load_stream(path))
        assert first.count == second.count


class TestEngineSnapshotFiles:
    def test_save_rejects_incomplete_snapshot(self, tmp_path):
        from repro.io.serialization import save_engine_snapshot

        with pytest.raises(ConfigurationError, match="missing key"):
            save_engine_snapshot({"count": 1}, tmp_path / "snap.json")

    def test_load_rejects_bad_version_and_bad_json(self, tmp_path):
        from repro.io.serialization import load_engine_snapshot, save_engine_snapshot

        path = tmp_path / "snap.json"
        save_engine_snapshot(
            {
                "config": {"counter": "wedge"},
                "count": 0,
                "updates_processed": 0,
                "vertices": [],
                "edges": [],
            },
            path,
        )
        payload = json.loads(path.read_text())
        payload["version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="version"):
            load_engine_snapshot(path)
        path.write_text("not json")
        with pytest.raises(ConfigurationError):
            load_engine_snapshot(path)

    def test_load_converts_edges_to_tuples(self, tmp_path):
        from repro.io.serialization import load_engine_snapshot, save_engine_snapshot

        path = tmp_path / "snap.json"
        save_engine_snapshot(
            {
                "config": {"counter": "wedge"},
                "count": 0,
                "updates_processed": 2,
                "vertices": [1, 2],
                "edges": [(1, 2)],
            },
            path,
        )
        loaded = load_engine_snapshot(path)
        assert loaded["edges"] == [(1, 2)]
