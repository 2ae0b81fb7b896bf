"""Tests of the shared counter template (ordering, validation, metrics)."""

from __future__ import annotations

import pytest

from repro.core.brute_force import BruteForceCounter
from repro.exceptions import (
    DuplicateEdgeError,
    InvalidUpdateError,
    MissingEdgeError,
    SelfLoopError,
)
from repro.graph.updates import EdgeUpdate, UpdateStream

from tests.conftest import k4_edges, square_edges


class TestTemplateBehaviour:
    def test_counts_square(self, any_counter):
        for u, v in square_edges():
            any_counter.insert_edge(u, v)
        assert any_counter.count == 1

    def test_counts_k4(self, any_counter):
        for u, v in k4_edges():
            any_counter.insert_edge(u, v)
        assert any_counter.count == 3

    def test_deletion_reverts_count(self, any_counter):
        for u, v in square_edges():
            any_counter.insert_edge(u, v)
        any_counter.delete_edge("a", "b")
        assert any_counter.count == 0
        any_counter.insert_edge("a", "b")
        assert any_counter.count == 1

    def test_build_then_teardown_returns_to_zero(self, any_counter):
        stream = UpdateStream.build_then_teardown(k4_edges())
        any_counter.apply_all(stream)
        assert any_counter.count == 0
        assert any_counter.num_edges == 0

    def test_process_stream_returns_running_counts(self, any_counter):
        counts = any_counter.process_stream(UpdateStream.from_edges(square_edges()))
        assert counts == [0, 0, 0, 1]

    def test_recount_and_consistency(self, any_counter):
        for u, v in k4_edges():
            any_counter.insert_edge(u, v)
        assert any_counter.recount() == 3
        assert any_counter.is_consistent()

    def test_updates_processed(self, any_counter):
        any_counter.apply_all(UpdateStream.from_edges(square_edges()))
        assert any_counter.updates_processed == 4


class TestValidation:
    def test_self_loop_rejected(self, any_counter):
        with pytest.raises(SelfLoopError):
            any_counter.insert_edge("a", "a")

    def test_duplicate_insert_rejected(self, any_counter):
        any_counter.insert_edge(1, 2)
        with pytest.raises(DuplicateEdgeError):
            any_counter.insert_edge(2, 1)

    def test_missing_delete_rejected(self, any_counter):
        with pytest.raises(MissingEdgeError):
            any_counter.delete_edge(1, 2)


class TestMetricsRecording:
    def test_cost_model_accumulates(self):
        counter = BruteForceCounter()
        counter.apply_all(UpdateStream.from_edges(k4_edges()))
        assert counter.cost.total() > 0

    def test_apply_returns_count(self):
        counter = BruteForceCounter()
        result = counter.apply(EdgeUpdate.insert(1, 2))
        assert result == 0 == counter.count


class TestApplyBatch:
    def test_batch_returns_boundary_count(self, any_counter):
        stream = UpdateStream.from_edges(k4_edges())
        assert any_counter.apply_batch(stream) == 3
        assert any_counter.is_consistent()

    def test_batch_advances_updates_processed_by_raw_size(self, any_counter):
        window = [
            EdgeUpdate.insert(1, 2),
            EdgeUpdate.delete(1, 2),
            EdgeUpdate.insert(2, 3),
        ]
        any_counter.apply_batch(window)
        assert any_counter.updates_processed == 3
        assert any_counter.num_edges == 1

    def test_empty_batch_is_noop(self, any_counter):
        any_counter.insert_edge(1, 2)
        assert any_counter.apply_batch([]) == any_counter.count
        # An empty window consumes zero stream positions.
        assert any_counter.updates_processed == 1
        assert any_counter.num_edges == 1

    def test_inconsistent_batch_rejected_without_state_change(self, any_counter):
        any_counter.insert_edge(1, 2)
        with pytest.raises(InvalidUpdateError):
            any_counter.apply_batch([EdgeUpdate.insert(2, 1)])
        assert any_counter.num_edges == 1

    def test_process_stream_batched(self, any_counter):
        stream = UpdateStream.from_edges(k4_edges())
        counts = any_counter.process_stream_batched(stream, batch_size=2)
        assert len(counts) == 3
        assert counts[-1] == 3

    def test_fast_path_engages_above_threshold(self):
        # A window at least as large as the threshold must route through the
        # brute-force recount hook instead of the per-update replay.
        counter = BruteForceCounter()
        size = counter.batch_fast_path_threshold
        edges = [(0, i) for i in range(1, size + 1)]
        counter.apply_batch(UpdateStream.from_edges(edges))
        assert counter.cost.get("batch_recount") > 0
        assert counter.is_consistent()
