"""Tests for the experiment harness."""

from __future__ import annotations

import pytest

from repro.api import EngineConfig, FourCycleEngine
from repro.exceptions import CounterStateError
from repro.instrumentation.harness import (
    compare_counters,
    format_table,
    run_config,
    run_engine,
    run_validated,
    summary_table,
)
from repro.instrumentation.metrics import UpdateMetrics
from repro.graph.updates import UpdateStream

from tests.conftest import k4_edges, random_dynamic_stream


class TestRunCounter:
    def test_run_records_metrics_and_counts(self):
        stream = UpdateStream.from_edges(k4_edges())
        result = run_config(EngineConfig(counter="wedge"), stream)
        assert result.final_count == 3
        assert result.stream_length == 6
        assert len(result.counts) == 6
        assert len(result.metrics) == 6
        assert result.summary().max_operations > 0

    def test_run_without_counts(self):
        stream = UpdateStream.from_edges(k4_edges())
        result = run_config(EngineConfig(counter="wedge"), stream, record_counts=False)
        assert result.counts == []


class TestRunValidated:
    def test_passes_for_correct_counter(self, small_stream):
        result = run_validated(FourCycleEngine("hhh22"), small_stream)
        assert result.validated

    def test_detects_divergence(self):
        class BrokenCounter:
            name = "broken"

            def __init__(self):
                self.inner = FourCycleEngine("wedge").counter
                self.cost = self.inner.cost

            def apply(self, update):
                value = self.inner.apply(update)
                return value + 1  # always wrong

            @property
            def num_edges(self):
                return self.inner.num_edges

            @property
            def count(self):
                return self.inner.count + 1

        stream = UpdateStream.from_edges(k4_edges())
        with pytest.raises(CounterStateError):
            run_validated(BrokenCounter(), stream)

    def test_check_every_validation(self, small_stream):
        result = run_validated(FourCycleEngine("wedge"), small_stream, check_every=5)
        assert result.validated
        with pytest.raises(ValueError):
            run_validated(FourCycleEngine("wedge"), small_stream, check_every=0)


class TestCompareCounters:
    def test_all_counters_agree(self):
        stream = random_dynamic_stream(num_vertices=10, num_updates=60, seed=77)
        results = compare_counters(["brute-force", "wedge", "hhh22"], stream)
        finals = {result.final_count for result in results.values()}
        assert len(finals) == 1

    def test_counter_kwargs(self):
        stream = random_dynamic_stream(num_vertices=8, num_updates=40, seed=78)
        results = compare_counters(
            ["phase-fmm"], stream, counter_kwargs={"phase-fmm": {"phase_length": 5}}
        )
        assert results["phase-fmm"].final_count >= 0

    def test_tables(self):
        stream = random_dynamic_stream(num_vertices=8, num_updates=40, seed=79)
        results = compare_counters(["brute-force", "wedge"], stream)
        rows = summary_table(results)
        assert len(rows) == 2
        rendered = format_table(rows)
        assert "brute-force" in rendered and "wedge" in rendered
        assert format_table([]) == "(no rows)"


class TestBatchedRun:
    def test_batched_run_matches_unbatched_final_state(self):
        stream = random_dynamic_stream(num_vertices=12, num_updates=96, seed=21)
        unbatched = run_config(EngineConfig(counter="wedge"), stream)
        batched = run_config(EngineConfig(counter="wedge", batch_size=16), stream)
        assert batched.final_count == unbatched.final_count
        assert batched.final_edge_count == unbatched.final_edge_count
        assert batched.stream_length == len(stream)
        # One metrics record and one count per window.
        assert len(batched.metrics) == 6
        assert len(batched.counts) == 6
        assert batched.counts[-1] == unbatched.counts[-1]

    def test_batched_counts_are_boundary_counts(self):
        stream = random_dynamic_stream(num_vertices=10, num_updates=60, seed=3)
        unbatched = run_config(EngineConfig(counter="brute-force"), stream)
        batched = run_config(EngineConfig(counter="brute-force", batch_size=20), stream)
        assert batched.counts == unbatched.counts[19::20]

    def test_compare_counters_batched(self):
        stream = random_dynamic_stream(num_vertices=10, num_updates=64, seed=5)
        results = compare_counters(["brute-force", "wedge"], stream, batch_size=32)
        finals = {result.final_count for result in results.values()}
        assert len(finals) == 1


class TestRunEngine:
    def test_engine_batch_size_comes_from_config(self):
        stream = random_dynamic_stream(num_vertices=10, num_updates=60, seed=9)
        engine = FourCycleEngine(EngineConfig(counter="wedge", batch_size=20))
        result = run_engine(engine, stream)
        assert len(result.counts) == 3  # one boundary count per window
        assert result.final_count == engine.count

    def test_explicit_batch_size_overrides_config(self):
        stream = random_dynamic_stream(num_vertices=10, num_updates=60, seed=9)
        engine = FourCycleEngine(EngineConfig(counter="wedge", batch_size=20))
        result = run_engine(engine, stream, batch_size=1)
        assert len(result.counts) == len(stream)


class TestRecordedOperations:
    @pytest.mark.parametrize("batch_size", [1, 16])
    def test_window_operations_sum_to_the_cost_change(self, batch_size):
        stream = random_dynamic_stream(num_vertices=12, num_updates=100, seed=31)

        def engine():
            built = FourCycleEngine(EngineConfig(counter="hhh22", batch_size=batch_size))
            built.insert(100, 101)  # the replay starts from a nonzero cost total
            return built

        measured = engine()
        before = measured.cost.total()
        result = run_engine(measured, stream)
        spent = measured.cost.total() - before
        summary = result.summary()
        assert before > 0 and spent > 0
        assert len(result.metrics) == -(-len(stream) // batch_size)
        assert round(summary.mean_operations * len(result.metrics)) == spent
        # The same windows measured one by one give the same distribution.
        twin = engine()
        expected = UpdateMetrics()
        for window in stream if batch_size == 1 else stream.batched(batch_size):
            mark = twin.cost.total()
            if batch_size == 1:
                twin.apply(window)
            else:
                twin.apply_batch(window)
            expected.record(twin.cost.total() - mark, 0.0)
        wanted = expected.summary()
        assert (summary.mean_operations, summary.p99_operations, summary.max_operations) == (
            wanted.mean_operations, wanted.p99_operations, wanted.max_operations
        )
