"""Tests for the omega / rectangular-exponent cost models."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.theory.omega import (
    OMEGA_BEST,
    OMEGA_CURRENT,
    OMEGA_IMPROVEMENT_THRESHOLD,
    OMEGA_NAIVE,
    OMEGA_STRASSEN,
    BestPossibleRectangularModel,
    BlockPartitionRectangularModel,
    OmegaModel,
    PublishedValuesRectangularModel,
    best_omega_model,
    current_omega_model,
    model_for_omega,
    naive_omega_model,
)


class TestConstants:
    def test_current_value_matches_paper(self):
        assert OMEGA_CURRENT == pytest.approx(2.371339)

    def test_ordering(self):
        assert OMEGA_BEST < OMEGA_CURRENT < OMEGA_STRASSEN < OMEGA_NAIVE

    def test_improvement_threshold(self):
        assert OMEGA_IMPROVEMENT_THRESHOLD == 2.5


class TestRectangularModels:
    def test_block_bound_square_case(self):
        model = BlockPartitionRectangularModel(omega=2.371339)
        assert model.exponent(1, 1, 1) == pytest.approx(2.371339)

    def test_block_bound_never_below_io(self):
        model = BlockPartitionRectangularModel(omega=2.0)
        assert model.exponent(1, 0.1, 1) >= 1.1

    def test_best_possible(self):
        model = BestPossibleRectangularModel()
        assert model.exponent(1, 1, 1) == 2
        assert model.exponent(0.5, 1, 0.25) == pytest.approx(1.5)

    def test_published_anchor_values(self):
        model = PublishedValuesRectangularModel()
        eps, eps1, eps2 = 0.0098109, 0.04201965, 0.14568075
        value = model.exponent(1 / 3 + eps1, 2 / 3 - eps1, 1 / 3 + eps1)
        assert value == pytest.approx(1.10495201)
        inner = 1 / 3 - eps1 + eps2
        value = model.exponent(2 / 3 + 2 * eps, inner, inner)
        assert value == pytest.approx(1.24039952)

    def test_published_model_falls_back_elsewhere(self):
        model = PublishedValuesRectangularModel()
        fallback = BlockPartitionRectangularModel(model.omega)
        assert model.exponent(1, 1, 1) == pytest.approx(fallback.exponent(1, 1, 1))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ConfigurationError):
            BlockPartitionRectangularModel().exponent(-1, 1, 1)


class TestOmegaModel:
    def test_square_cost_exponent(self):
        model = current_omega_model()
        assert model.square_cost_exponent(2 / 3) == pytest.approx(2 / 3 * 2.371339)
        with pytest.raises(ConfigurationError):
            model.square_cost_exponent(-1)

    def test_improvement_predicate(self):
        assert current_omega_model().allows_improvement()
        assert best_omega_model().allows_improvement()
        assert not naive_omega_model().allows_improvement()
        assert not model_for_omega(2.6).allows_improvement()
        # Strassen is not enough (the paper highlights this).
        assert not model_for_omega(OMEGA_STRASSEN).allows_improvement()

    def test_predicted_square_cost(self):
        model = best_omega_model()
        assert model.predicted_square_cost(10) == pytest.approx(100.0)
        assert model.predicted_square_cost(0) == 0.0

    def test_omega_bounds_validated(self):
        with pytest.raises(ConfigurationError):
            OmegaModel(omega=1.5, rectangular=BestPossibleRectangularModel())
        with pytest.raises(ConfigurationError):
            model_for_omega(3.5)

    def test_named_models(self):
        assert current_omega_model().name == "current"
        assert best_omega_model().name == "best"
        assert naive_omega_model().name == "naive"
