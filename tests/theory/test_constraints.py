"""Tests for the constraint systems of Sections 3.4 and 4."""

from __future__ import annotations

import pytest

from repro.exceptions import ConstraintError
from repro.theory.omega import best_omega_model, current_omega_model
from repro.theory.constraints import (
    Constraint,
    main_constraint_system,
    warmup_constraint_system,
)


class TestConstraintObjects:
    def test_evaluation_and_slack(self):
        constraint = Constraint(
            name="toy",
            description="x <= 1",
            lhs=lambda params: params["x"],
            rhs=lambda params: 1.0,
        )
        ok = constraint.evaluate({"x": 0.5})
        assert ok.satisfied and ok.slack == pytest.approx(0.5)
        bad = constraint.evaluate({"x": 2.0})
        assert not bad.satisfied and bad.slack == pytest.approx(-1.0)

    def test_tolerance(self):
        constraint = Constraint("tight", "", lambda p: 1.0 + 1e-12, lambda p: 1.0)
        assert constraint.evaluate({}, tolerance=1e-9).satisfied


class TestMainSystem:
    def test_published_current_parameters_satisfy_all(self):
        system = main_constraint_system(2.371339)
        assert system.all_satisfied({"eps": 0.0098109, "delta": 0.0294327}, tolerance=1e-6)

    def test_published_best_parameters_satisfy_all(self):
        system = main_constraint_system(2.0)
        assert system.all_satisfied({"eps": 1 / 24, "delta": 1 / 8})

    def test_eps_too_large_violates_phase_constraint(self):
        system = main_constraint_system(2.371339)
        evaluations = system.evaluate({"eps": 0.05, "delta": 0.15})
        phase = next(e for e in evaluations if "Eq(9)" in e.name)
        assert not phase.satisfied

    def test_delta_below_three_eps_violates(self):
        system = main_constraint_system(2.0)
        evaluations = system.evaluate({"eps": 0.04, "delta": 0.05})
        pair = next(e for e in evaluations if "Eq(10)" in e.name)
        assert not pair.satisfied

    def test_require_raises_with_details(self):
        system = main_constraint_system(2.371339)
        with pytest.raises(ConstraintError):
            system.require({"eps": 0.2, "delta": 0.0})

    def test_omega_three_has_no_positive_eps(self):
        """With omega = 3 even eps slightly above zero breaks Eq. (9)."""
        system = main_constraint_system(3.0)
        assert not system.all_satisfied({"eps": 0.001, "delta": 0.003})
        assert system.all_satisfied({"eps": 0.0, "delta": 0.0}) is False  # (omega-1)*2/3 > 1
