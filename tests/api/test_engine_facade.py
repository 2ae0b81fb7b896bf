"""Tests for the FourCycleEngine facade: construction, events, snapshots."""

from __future__ import annotations

import pytest

from repro.api import (
    EVENT_BATCH_APPLIED,
    EVENT_CHECKPOINT,
    EVENT_UPDATE_APPLIED,
    EngineConfig,
    EngineSnapshot,
    FourCycleEngine,
    GeneratorSource,
)
from repro.exceptions import ConfigurationError, CounterStateError
from repro.graph.updates import EdgeUpdate, UpdateStream

from tests.conftest import k4_edges, random_dynamic_stream


class TestConstruction:
    def test_from_config(self):
        engine = FourCycleEngine(EngineConfig(counter="wedge", batch_size=4))
        assert engine.name == "wedge"
        assert engine.config.batch_size == 4

    def test_from_counter_name_with_overrides(self):
        engine = FourCycleEngine("hhh22", batch_size=8)
        assert engine.name == "hhh22"
        assert engine.config.batch_size == 8

    def test_defaults(self):
        assert FourCycleEngine().name == "assadi-shah"

    def test_config_overrides_on_config_object(self):
        base = EngineConfig(counter="wedge")
        engine = FourCycleEngine(base, batch_size=16)
        assert engine.config.batch_size == 16

    def test_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            FourCycleEngine(42)

    def test_track_costs_off_disables_cost_model(self):
        engine = FourCycleEngine(EngineConfig(counter="wedge", track_costs=False))
        engine.insert(1, 2)
        engine.insert(2, 3)
        assert engine.cost.total() == 0
        tracked = FourCycleEngine(EngineConfig(counter="wedge"))
        tracked.insert(1, 2)
        tracked.insert(2, 3)
        assert tracked.cost.total() > 0


class TestUpdates:
    def test_insert_delete_and_stream(self):
        engine = FourCycleEngine(EngineConfig(counter="brute-force"))
        for u, v in k4_edges():
            engine.insert(u, v)
        assert engine.count == 3
        engine.delete(0, 1)
        assert engine.count == 1
        assert engine.is_consistent()

    def test_stream_yields_boundary_counts(self):
        stream = random_dynamic_stream(num_vertices=10, num_updates=60, seed=4)
        per_update = FourCycleEngine(EngineConfig(counter="wedge"))
        expected = [per_update.apply(update) for update in stream]
        batched = FourCycleEngine(EngineConfig(counter="wedge", batch_size=20))
        counts = list(batched.stream(stream))
        assert counts == expected[19::20]

    def test_run_returns_final_count(self):
        stream = UpdateStream.from_edges(k4_edges())
        engine = FourCycleEngine(EngineConfig(counter="wedge", batch_size=3))
        assert engine.run(stream) == 3

    def test_run_on_empty_source_keeps_count(self):
        engine = FourCycleEngine(EngineConfig(counter="wedge"))
        engine.insert("a", "b")
        assert engine.run(UpdateStream()) == engine.count


class TestEvents:
    def test_update_and_batch_events(self):
        engine = FourCycleEngine(EngineConfig(counter="wedge", batch_size=3))
        events = []
        engine.subscribe(events.append)
        engine.insert(1, 2)
        engine.apply_batch([EdgeUpdate.insert(2, 3), EdgeUpdate.insert(3, 4)])
        kinds = [event.kind for event in events]
        assert kinds == [EVENT_UPDATE_APPLIED, EVENT_BATCH_APPLIED]
        assert events[1].payload["size"] == 2
        assert events[1].num_edges == 3

    def test_kind_filtering_and_unsubscribe(self):
        engine = FourCycleEngine(EngineConfig(counter="wedge"))
        seen = []
        unsubscribe = engine.subscribe(seen.append, kinds=[EVENT_CHECKPOINT])
        engine.insert(1, 2)
        assert seen == []
        engine.checkpoint()
        assert [event.kind for event in seen] == [EVENT_CHECKPOINT]
        unsubscribe()
        engine.checkpoint()
        assert len(seen) == 1

    def test_unknown_kind_rejected(self):
        engine = FourCycleEngine(EngineConfig(counter="wedge"))
        with pytest.raises(ConfigurationError, match="unknown event kind"):
            engine.subscribe(lambda event: None, kinds=["nope"])

    def test_raising_subscriber_is_isolated(self):
        """One raising subscriber must not abort the apply path or starve the
        other subscribers — the regression was a single bad callback poisoning
        the engine mid-update for every other consumer."""
        engine = FourCycleEngine(EngineConfig(counter="wedge"))
        seen = []

        def bad_subscriber(event):
            raise RuntimeError("observer bug")

        engine.subscribe(bad_subscriber)
        engine.subscribe(seen.append)
        with pytest.warns(RuntimeWarning, match="engine-event-error.*observer bug"):
            count = engine.insert(1, 2)
        assert count == 0
        assert [event.kind for event in seen] == [EVENT_UPDATE_APPLIED]
        # The engine stays healthy and keeps emitting to healthy subscribers.
        with pytest.warns(RuntimeWarning, match="engine-event-error"):
            engine.apply_batch([EdgeUpdate.insert(2, 3), EdgeUpdate.insert(3, 4)])
        assert [event.kind for event in seen] == [EVENT_UPDATE_APPLIED, EVENT_BATCH_APPLIED]
        assert engine.num_edges == 3
        assert engine.is_consistent()

    def test_raising_subscriber_keeps_durable_state_intact(self, tmp_path):
        """With a WAL attached the logged record must stay applied history
        even when a subscriber raises after the update took effect."""
        engine = FourCycleEngine(
            EngineConfig(counter="wedge", wal_path=str(tmp_path / "run.wal"))
        )

        def bad_subscriber(event):
            raise ValueError("late observer failure")

        engine.subscribe(bad_subscriber)
        with pytest.warns(RuntimeWarning, match="engine-event-error"):
            engine.insert(1, 2)
        assert engine.last_durable_seq == 0
        assert engine.num_edges == 1
        engine.close()

    def test_phase_rebuild_events_fire_for_phase_counters(self):
        engine = FourCycleEngine(EngineConfig(counter="phase-fmm", options={"phase_length": 4}))
        rebuilds = []
        engine.subscribe(rebuilds.append, kinds=["phase-rebuild"])
        engine.run(random_dynamic_stream(num_vertices=10, num_updates=60, seed=6))
        assert rebuilds, "expected at least one phase rebuild"
        assert rebuilds[-1].payload["phases_completed"] == engine.counter.phases_completed


class TestSnapshots:
    def test_checkpoint_restore_in_memory(self):
        stream = random_dynamic_stream(num_vertices=12, num_updates=100, seed=8)
        engine = FourCycleEngine(EngineConfig(counter="hhh22", batch_size=10))
        engine.run(stream)
        snapshot = engine.checkpoint()
        restored = FourCycleEngine.restore(snapshot)
        assert restored.count == engine.count
        assert restored.num_edges == engine.num_edges
        assert restored.updates_processed == engine.updates_processed
        assert restored.is_consistent()

    def test_checkpoint_restore_via_file(self, tmp_path):
        path = tmp_path / "engine.json"
        engine = FourCycleEngine(EngineConfig(counter="wedge"))
        engine.run(random_dynamic_stream(num_vertices=10, num_updates=80, seed=9))
        engine.checkpoint(path)
        restored = FourCycleEngine.restore(path)
        assert restored.count == engine.count
        assert restored.config == engine.config

    def test_restore_from_dict(self):
        engine = FourCycleEngine(EngineConfig(counter="wedge"))
        engine.insert(1, 2)
        payload = engine.checkpoint().to_dict()
        restored = FourCycleEngine.restore(payload)
        assert restored.num_edges == 1

    def test_restore_rejects_corrupted_count(self):
        engine = FourCycleEngine(EngineConfig(counter="wedge"))
        for u, v in k4_edges():
            engine.insert(u, v)
        payload = engine.checkpoint().to_dict()
        payload["count"] += 1
        with pytest.raises(CounterStateError, match="does not match"):
            FourCycleEngine.restore(payload)

    def test_restore_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            FourCycleEngine.restore(42)
        with pytest.raises(ConfigurationError):
            EngineSnapshot.from_dict({"count": 1})

    def test_snapshot_preserves_isolated_vertices(self):
        engine = FourCycleEngine(EngineConfig(counter="brute-force"))
        engine.graph.add_vertex("isolated")
        engine.insert("a", "b")
        restored = FourCycleEngine.restore(engine.checkpoint())
        assert restored.num_vertices == engine.num_vertices
        assert restored.graph.has_vertex("isolated")

    def test_disk_round_trip_restores_tuple_labels(self, tmp_path):
        """Regression: layer-tagged tuple vertices (TupleFeedSource feeds)
        must survive the JSON checkpoint round-trip."""
        from repro.api import TupleFeedSource
        from repro.db.ivm import TupleUpdate

        feed = TupleFeedSource(
            [TupleUpdate.insert(relation, value, value) for relation in "ABCD" for value in (1, 2)]
        )
        engine = FourCycleEngine(EngineConfig(counter="wedge"))
        engine.run(feed)
        path = tmp_path / "tagged.json"
        engine.checkpoint(path)
        restored = FourCycleEngine.restore(path)
        assert restored.count == engine.count
        assert restored.graph.has_vertex(("L1", 1))
        assert restored.apply(
            next(iter(TupleFeedSource([TupleUpdate.delete("A", 1, 1)])))
        ) == engine.apply(next(iter(TupleFeedSource([TupleUpdate.delete("A", 1, 1)]))))

    def test_restore_resets_bookkeeping_noise(self):
        engine = FourCycleEngine(EngineConfig(counter="wedge"))
        engine.run(random_dynamic_stream(num_vertices=8, num_updates=40, seed=11))
        assert engine.cost.total() > 0
        restored = FourCycleEngine.restore(engine.checkpoint())
        assert restored.cost.total() == 0
        assert restored.updates_processed == engine.updates_processed


class TestLoadStateGuard:
    def test_load_state_requires_fresh_counter(self):
        engine = FourCycleEngine(EngineConfig(counter="wedge"))
        engine.insert(1, 2)
        with pytest.raises(CounterStateError, match="freshly constructed"):
            engine.counter.load_state([], [])


class TestGeneratorDrivenRun:
    def test_generator_source_end_to_end(self):
        source = GeneratorSource("hubs", num_vertices=12, num_updates=80, seed=5)
        engine = FourCycleEngine(EngineConfig(counter="assadi-shah", batch_size=16))
        final = engine.run(source)
        assert final == engine.count
        assert engine.is_consistent()
