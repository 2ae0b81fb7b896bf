"""Tests for the analysis (experiment) layer and its table rendering."""

from __future__ import annotations

import pytest

from repro.analysis import (
    E12_PRODUCT_VARIANTS,
    ThroughputRow,
    experiment_e1_theorem_constants,
    experiment_e2_warmup_constants,
    experiment_e3_constraint_verification,
    experiment_e4_cross_validation,
    experiment_e5_update_scaling,
    experiment_e6_worst_case,
    experiment_e7_ivm_join,
    experiment_e8_omega_ablation,
    experiment_e9_phase_ablation,
    experiment_e10_batch_throughput,
    experiment_e11_kernel_throughput,
    experiment_e12_spgemm_backends,
    experiment_e14_shard_scaling,
    rows_to_dicts,
    text_table,
)
from repro.analysis.throughput import race_products
from repro.api import FourCycleEngine
from repro.exceptions import CounterStateError
from repro.instrumentation.harness import compare_counters, summary_table

from tests.conftest import random_dynamic_stream

E12_SMALL = dict(
    community_count=3,
    community_size=4,
    uniform_dimension=24,
    dense_dimension=8,
    wedge_vertices=48,
    wedge_base_edges=120,
    wedge_churn_updates=64,
    wedge_batch_size=16,
)

#: Each throughput experiment at a size that runs in well under a second.
THROUGHPUT_SMALL = {
    "E10": (
        experiment_e10_batch_throughput,
        dict(num_vertices=10, num_updates=64, batch_sizes=(1, 16), counters=("brute-force", "wedge")),
    ),
    "E11": (
        experiment_e11_kernel_throughput,
        dict(num_vertices=10, num_updates=64, batch_size=16, counters=("wedge", "hhh22")),
    ),
    "E12": (experiment_e12_spgemm_backends, E12_SMALL),
    "E14": (
        experiment_e14_shard_scaling,
        dict(community_count=4, community_size=6, workers=(1, 2), churn_edges=8, repeats=1),
    ),
}


class TestAnalyticExperiments:
    def test_e1_matches_published(self):
        rows = experiment_e1_theorem_constants()
        assert {row.regime for row in rows} == {"current", "best"}
        assert all(row.matches for row in rows)

    def test_e2_best_regime_matches(self):
        rows = experiment_e2_warmup_constants()
        best = next(row for row in rows if row.regime == "best")
        assert best.matches
        assert best.eps2_solved == pytest.approx(5 / 24, abs=1e-6)

    def test_e3_all_satisfied(self):
        rows = experiment_e3_constraint_verification()
        assert len(rows) == 16
        assert all(row.satisfied for row in rows)

    def test_e8_threshold(self):
        result = experiment_e8_omega_ablation(step=0.25)
        assert all(row.improves == (row.omega < 2.5) for row in result.rows)
        assert len(result.headline) == 4


class TestEmpiricalExperiments:
    def test_e4_small(self):
        rows = experiment_e4_cross_validation(
            scale=1, updates_per_workload=40, counters=("brute-force", "wedge", "hhh22")
        )
        assert rows and all(row.validated for row in rows)

    def test_e5_small(self):
        result = experiment_e5_update_scaling(
            sizes=(12, 24), updates_per_vertex=5, counters=("wedge", "hhh22")
        )
        assert len(result.points) == 4
        assert set(result.fitted_exponents) == {"wedge", "hhh22"}

    def test_e6_small(self):
        rows = experiment_e6_worst_case(num_vertices=20, num_updates=80)
        assert all(row.worst_to_mean_ratio >= 1.0 for row in rows)

    def test_e7_small(self):
        rows = experiment_e7_ivm_join(domain_sizes=(6,), updates_per_domain=100)
        assert rows[0].consistent

    def test_e9_small(self):
        rows = experiment_e9_phase_ablation(
            phase_lengths=(4, 64), num_vertices=16, num_updates=80
        )
        assert rows[0].phases_completed > rows[1].phases_completed

    def test_e6_operation_columns_are_pinned(self):
        """Exact per-update operation counts of a small E6 run, so a change to
        how updates are measured cannot move them unnoticed."""
        rows = experiment_e6_worst_case(num_vertices=20, num_updates=80)
        pinned = {
            "wedge": (14.575, 37.21, 38),
            "hhh22": (21.6375, 122.72, 148),
            "phase-fmm": (127.175, 1202.22, 1504),
            "assadi-shah": (14.5625, 31.63, 34),
        }
        assert [row.counter for row in rows] == list(pinned)
        for row in rows:
            columns = (row.mean_operations, row.p99_operations, row.max_operations)
            assert columns == pytest.approx(pinned[row.counter], abs=1e-9), row.counter

    def test_e9_operation_columns_are_pinned(self):
        """Exact per-update operation counts and phase totals of a small E9 run."""
        rows = experiment_e9_phase_ablation(
            phase_lengths=(4, 64), num_vertices=16, num_updates=80
        )
        # A phase ends only at a graph-update boundary: at phase length 4
        # (in relation updates, six per graph update) each of the 80 graph
        # updates ends one phase.
        pinned = {4: (87.9375, 383.84, 387, 80), 64: (29.875, 144.72, 170, 7)}
        assert [row.phase_length for row in rows] == list(pinned)
        for row in rows:
            columns = (
                row.mean_operations, row.p99_operations, row.max_operations, row.phases_completed
            )
            assert columns == pytest.approx(pinned[row.phase_length], abs=1e-9), row.phase_length

    def test_e12_small(self):
        rows = experiment_e12_spgemm_backends(**E12_SMALL)
        assert all(row.consistent for row in rows)
        products = [row for row in rows if row.kernel.startswith("product:")]
        assert len(products) == 3 * len(E12_PRODUCT_VARIANTS)
        for instance in {row.kernel for row in products}:
            variants = [row for row in products if row.kernel == instance]
            assert [row.variant for row in variants] == list(E12_PRODUCT_VARIANTS)
            # Every variant reports the expansion work of the dict baseline.
            assert len({row.operations for row in variants}) == 1
        hook = [row.variant for row in rows if row.kernel == "wedge-batch-hook"]
        assert hook == ["full-rebuild", "replay", "auto"]



class TestThroughputRows:
    @pytest.mark.parametrize(
        "experiment, kwargs", list(THROUGHPUT_SMALL.values()), ids=list(THROUGHPUT_SMALL)
    )
    def test_rows_share_one_schema(self, experiment, kwargs):
        rows = experiment(**kwargs)
        assert rows and all(isinstance(row, ThroughputRow) and row.consistent for row in rows)
        first = {}
        for row in rows:
            first.setdefault(row.kernel, row)
            assert row.per_second == pytest.approx(row.operations / row.seconds)
            assert row.speedup == pytest.approx(first[row.kernel].seconds / row.seconds)
        assert all(row.speedup == 1.0 for row in first.values())

    def test_a_diverging_engine_variant_is_named(self, monkeypatch):
        real_count = FourCycleEngine.count
        monkeypatch.setattr(
            FourCycleEngine,
            "count",
            property(lambda engine: real_count.fget(engine) + (engine.config.batch_size > 1)),
        )
        with pytest.raises(CounterStateError, match=r"^wedge: variant 'batch=16' ended at count"):
            experiment_e10_batch_throughput(**THROUGHPUT_SMALL["E10"][1] | {"counters": ("wedge",)})

    def test_a_failed_recount_is_named(self, monkeypatch):
        monkeypatch.setattr(
            FourCycleEngine, "is_consistent", lambda engine: engine.config.batch_size == 1
        )
        with pytest.raises(
            CounterStateError, match=r"^hhh22-updates: variant 'batched' is inconsistent"
        ):
            experiment_e11_kernel_throughput(**THROUGHPUT_SMALL["E11"][1] | {"counters": ("hhh22",)})

    @pytest.mark.parametrize("result, work", [(2, 5), (1, 6)])
    def test_a_diverging_product_variant_is_named(self, result, work):
        variants = [
            ("exact", "", lambda: (1, 5), None),
            ("off", "", lambda: (result, work), None),
        ]
        with pytest.raises(CounterStateError, match=r"^k: variant 'off' diverged from variant 'exact'"):
            race_products("k", variants)

    def test_product_work_none_is_checked_on_the_result_alone(self):
        variants = [("exact", "", lambda: (1, 5), None), ("dense", "", lambda: (1, None), None)]
        rows = race_products("k", variants, reference=(1, 5))
        assert [row.operations for row in rows] == [5, 5]


class TestReporting:
    def test_text_table(self):
        rows = experiment_e1_theorem_constants()
        text = text_table(rows)
        assert "regime" in text and "current" in text

    def test_tables_accept_mappings(self):
        rows = [{"a": 1, "b": True}, {"a": 2.5, "b": False}]
        rendered = text_table(rows, float_digits=1)
        assert "yes" in rendered and "no" in rendered
        assert rows_to_dicts(rows) == rows

    def test_tables_reject_unknown_types(self):
        with pytest.raises(TypeError):
            text_table([object()])

    def test_empty_tables(self):
        assert text_table([]) == "(no rows)"

    def test_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        assert "b" not in text_table(rows, columns=["a"])

    def test_counter_summary_table(self):
        stream = random_dynamic_stream(num_vertices=8, num_updates=40, seed=79)
        rows = summary_table(compare_counters(["brute-force", "wedge"], stream))
        assert len(rows) == 2
        rendered = text_table(rows)
        assert "brute-force" in rendered and "wedge" in rendered
