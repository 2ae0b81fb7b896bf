"""Tests for parameter solving: reproduces the Theorem 1/2 constants."""

from __future__ import annotations

import pytest

from repro.exceptions import ConstraintError
from repro.theory.omega import best_omega_model, current_omega_model, naive_omega_model
from repro.theory.constraints import warmup_constraint_system
from repro.theory.parameters import (
    published_parameters,
    solve_main_parameters,
    solve_warmup_parameters,
    sweep_omega,
    verify_published_parameters,
)


class TestMainParameters:
    def test_current_omega_reproduces_published_eps(self):
        """Theorem 1: omega = 2.371339 gives eps = 0.009811."""
        parameters = solve_main_parameters(2.371339)
        assert parameters.eps == pytest.approx(0.0098109, abs=1e-6)
        assert parameters.delta == pytest.approx(0.0294327, abs=1e-6)
        assert parameters.update_time_exponent == pytest.approx(2 / 3 - 0.0098109, abs=1e-6)
        assert parameters.improves_over_previous_work

    def test_best_omega_reproduces_one_twentyfourth(self):
        """Theorem 1: omega = 2 gives eps = 1/24 and delta = 1/8."""
        parameters = solve_main_parameters(2.0)
        assert parameters.eps == pytest.approx(1 / 24)
        assert parameters.delta == pytest.approx(1 / 8)
        assert parameters.update_time_exponent == pytest.approx(0.625)

    def test_update_exponent_value_from_abstract(self):
        """The abstract: the update time improves from m^0.66 to m^0.65686."""
        parameters = solve_main_parameters(2.371339)
        assert parameters.update_time_exponent == pytest.approx(0.65686, abs=1e-5)

    def test_no_improvement_at_or_above_2_5(self):
        """Above omega = 2.5 the phase approach is infeasible and the solver
        falls back to eps = 0 (i.e. the [HHH22] bound)."""
        assert solve_main_parameters(2.5).eps == 0.0
        assert solve_main_parameters(2.8).eps == 0.0
        assert solve_main_parameters(3.0).eps == 0.0
        assert not solve_main_parameters(2.6).improves_over_previous_work

    def test_strassen_not_sufficient(self):
        """Any bound better than 3 (like Strassen's 2.807) is not sufficient."""
        import math

        parameters = solve_main_parameters(math.log2(7))
        assert parameters.eps == 0.0
        assert not parameters.improves_over_previous_work

    def test_invalid_omega(self):
        with pytest.raises(ConstraintError):
            solve_main_parameters(1.9)
        with pytest.raises(ConstraintError):
            solve_main_parameters(3.1)

    def test_phase_length_exponent(self):
        parameters = solve_main_parameters(2.0)
        assert parameters.phase_length_exponent == pytest.approx(7 / 8)


class TestWarmupParameters:
    def test_best_possible_reproduces_published(self):
        """Section 3.4: with the best possible rectangular exponent,
        eps1 = 1/24 and eps2 = 5/24 (for eps = 1/24)."""
        parameters = solve_warmup_parameters(eps=1 / 24, model=best_omega_model())
        assert parameters.eps1 == pytest.approx(1 / 24, abs=1e-6)
        assert parameters.eps2 == pytest.approx(5 / 24, abs=1e-6)

    def test_solution_satisfies_all_constraints(self):
        model = current_omega_model()
        eps = solve_main_parameters().eps
        parameters = solve_warmup_parameters(eps=eps, model=model)
        system = warmup_constraint_system(model, eps)
        assert system.all_satisfied(parameters.as_dict(), tolerance=1e-6)
        assert parameters.eps1 > 0

    def test_eps2_relation(self):
        parameters = solve_warmup_parameters(eps=0.01, model=best_omega_model())
        assert parameters.eps2 == pytest.approx(3 * parameters.eps1 + 2 * 0.01)

    def test_warmup_exponent_at_least_main(self):
        """The paper needs eps1 >= eps so the subroutine fits the main budget."""
        main = solve_main_parameters(2.371339)
        warmup = solve_warmup_parameters(eps=main.eps, model=current_omega_model())
        assert warmup.eps1 >= main.eps

    def test_naive_model_still_feasible_at_zero(self):
        parameters = solve_warmup_parameters(eps=0.0, model=naive_omega_model())
        assert parameters.eps1 >= 0.0

    def test_negative_eps_rejected(self):
        with pytest.raises(ConstraintError):
            solve_warmup_parameters(eps=-0.1)

    def test_chunk_exponents(self):
        parameters = solve_warmup_parameters(eps=1 / 24, model=best_omega_model())
        assert parameters.chunk_size_exponent == pytest.approx(2 / 3 - parameters.eps1)
        assert parameters.chunk_dense_threshold_exponent == pytest.approx(1 / 3 - parameters.eps2)


class TestPublishedParameters:
    def test_published_values(self):
        current = published_parameters("current")
        assert current.main.eps == pytest.approx(0.0098109)
        assert current.warmup.eps1 == pytest.approx(0.04201965)
        assert current.warmup.eps2 == pytest.approx(0.14568075)
        best = published_parameters("best")
        assert best.main.eps == pytest.approx(1 / 24)
        assert best.warmup.eps2 == pytest.approx(5 / 24)

    def test_unknown_set_rejected(self):
        with pytest.raises(ConstraintError):
            published_parameters("other")

    @pytest.mark.parametrize("which", ["current", "best"])
    def test_appendix_b_verification(self, which):
        """Appendix B: the published constants satisfy every constraint."""
        report = verify_published_parameters(which)
        assert report.all_satisfied
        assert len(report.main_evaluations) == 3
        assert len(report.warmup_evaluations) == 5

    def test_solver_matches_published_within_rounding(self):
        solved = solve_main_parameters(2.371339)
        published = published_parameters("current")
        assert solved.eps == pytest.approx(published.main.eps, abs=1e-6)


class TestSweep:
    def test_sweep_monotone_in_omega(self):
        rows = sweep_omega([2.0, 2.2, 2.371339, 2.5, 2.8])
        eps_values = [row.eps for row in rows]
        assert eps_values == sorted(eps_values, reverse=True)
        assert eps_values[-1] == 0.0
        assert eps_values[0] == pytest.approx(1 / 24)
