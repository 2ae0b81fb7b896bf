"""Tests for the analysis (experiment) layer and its table rendering."""

from __future__ import annotations

import pytest

from repro.analysis import (
    experiment_e1_theorem_constants,
    experiment_e2_warmup_constants,
    experiment_e3_constraint_verification,
    experiment_e4_cross_validation,
    experiment_e5_update_scaling,
    experiment_e6_worst_case,
    experiment_e7_ivm_join,
    experiment_e8_omega_ablation,
    experiment_e9_phase_ablation,
    experiment_e12_spgemm_backends,
    rows_to_dicts,
    text_table,
)
from repro.analysis.experiments import E12_PRODUCT_VARIANTS
from repro.exceptions import ConfigurationError


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

    def test_e12_small(self):
        rows = experiment_e12_spgemm_backends(**self.E12_SMALL)
        assert all(row.consistent for row in rows)
        products = [row for row in rows if row.kernel.startswith("product:")]
        assert len(products) == 3 * len(E12_PRODUCT_VARIANTS)
        for instance in {row.kernel for row in products}:
            variants = [row for row in products if row.kernel == instance]
            assert [row.variant for row in variants] == list(E12_PRODUCT_VARIANTS)
            # Every variant reports the expansion work of the dict baseline.
            assert len({row.operations for row in variants}) == 1
        hook = [row.variant for row in rows if row.kernel == "wedge-batch-hook"]
        assert hook == ["full-rebuild", "incremental", "auto"]

    def test_e12_dict_baseline_always_runs(self):
        rows = experiment_e12_spgemm_backends(backends=("csr",), **self.E12_SMALL)
        variants = {row.variant for row in rows if row.kernel.startswith("product:")}
        assert variants == {"dict", "csr"}

    def test_e12_rejects_unknown_variants(self):
        with pytest.raises(ConfigurationError, match="sparse"):
            experiment_e12_spgemm_backends(backends=("csr", "sparse"), **self.E12_SMALL)


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
