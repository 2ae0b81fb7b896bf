"""Solving the paper's constraint systems for the algorithm parameters.

The headline constants of Theorems 1 and 2:

* ``omega = 2.371339`` (current best) gives ``eps = 0.009811`` and
  ``delta = 3 eps = 0.0294327``;
* ``omega = 2`` (best possible) gives ``eps = 1/24`` and ``delta = 1/8``.

These follow from making Eq. (10) tight (``delta = 3 eps``) and plugging it
into Eq. (9), which yields the closed form

``eps = (5 - 2 omega) / (6 omega + 12)``,

positive exactly when ``omega < 2.5``.  :func:`solve_main_parameters`
implements that closed form (and checks the full constraint system), while
:func:`solve_warmup_parameters` maximizes the warm-up slack ``eps1`` by
bisection under a rectangular-exponent oracle, with ``eps2 = 3 eps1 + 2 eps``
(Eq. (6) tight, as in the paper's solutions).

:func:`published_parameters` returns the constants reported in the paper, and
:func:`verify_published_parameters` re-runs the Appendix B check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.exceptions import ConstraintError
from repro.theory.omega import (
    OMEGA_BEST,
    OMEGA_CURRENT,
    OMEGA_IMPROVEMENT_THRESHOLD,
    OmegaModel,
    best_omega_model,
    current_omega_model,
    model_for_omega,
)
from repro.theory.constraints import (
    ConstraintEvaluation,
    main_constraint_system,
    warmup_constraint_system,
)


@dataclass(frozen=True)
class MainParameters:
    """Parameters of the main algorithm (Section 4) for a given ``omega``."""

    omega: float
    eps: float
    delta: float

    @property
    def update_time_exponent(self) -> float:
        """The exponent ``x`` in the worst-case update time ``O(m^x)``."""
        return 2.0 / 3.0 - self.eps

    @property
    def phase_length_exponent(self) -> float:
        """The exponent of the phase length ``m^{1 - delta}``."""
        return 1.0 - self.delta

    @property
    def improves_over_previous_work(self) -> bool:
        """Whether the bound beats the ``O(m^{2/3})`` of [HHH22]."""
        return self.eps > 0.0

    def as_dict(self) -> Dict[str, float]:
        return {"eps": self.eps, "delta": self.delta}


@dataclass(frozen=True)
class WarmupParameters:
    """Parameters of the warm-up algorithm (Section 3) for a given ``eps``."""

    eps: float
    eps1: float
    eps2: float
    model_name: str = "custom"

    @property
    def update_time_exponent(self) -> float:
        return 2.0 / 3.0 - self.eps1

    @property
    def chunk_size_exponent(self) -> float:
        """Chunks contain ``m^{2/3 - eps1}`` updates (Section 3.1)."""
        return 2.0 / 3.0 - self.eps1

    @property
    def chunk_dense_threshold_exponent(self) -> float:
        """A chunk-dense vertex has degree at least ``m^{1/3 - eps2}`` in the chunk."""
        return 1.0 / 3.0 - self.eps2

    def as_dict(self) -> Dict[str, float]:
        return {"eps1": self.eps1, "eps2": self.eps2}


def solve_main_parameters(omega: float = OMEGA_CURRENT, validate: bool = True) -> MainParameters:
    """Solve the main constraint system for the largest feasible ``eps``.

    Uses the closed form ``eps = (5 - 2 omega) / (6 omega + 12)`` with
    ``delta = 3 eps``; returns ``eps = 0`` (no improvement) when
    ``omega >= 2.5``.
    """
    if omega < 2.0 or omega > 3.0:
        raise ConstraintError(f"omega must lie in [2, 3], got {omega}")
    if omega >= OMEGA_IMPROVEMENT_THRESHOLD:
        # The phase approach yields no improvement: fall back to eps = 0 (the
        # [HHH22] bound).  The phase constraint itself is infeasible here, so
        # there is nothing to validate.
        return MainParameters(omega=omega, eps=0.0, delta=0.0)
    eps = (5.0 - 2.0 * omega) / (6.0 * omega + 12.0)
    eps = min(eps, 1.0 / 6.0)
    parameters = MainParameters(omega=omega, eps=eps, delta=3.0 * eps)
    if validate:
        main_constraint_system(omega).require(parameters.as_dict(), tolerance=1e-9)
    return parameters


def solve_warmup_parameters(
    eps: float,
    model: Optional[OmegaModel] = None,
    tolerance: float = 1e-9,
) -> WarmupParameters:
    """Maximize ``eps1`` (with ``eps2 = 3 eps1 + 2 eps``) by bisection.

    The feasible region in ``eps1`` is an interval starting at 0 for every
    monotone rectangular model, so bisection on "is this eps1 feasible?" finds
    the supremum; the returned value is backed off by ``tolerance`` so the full
    constraint system is satisfied exactly.
    """
    if model is None:
        model = current_omega_model()
    if eps < 0:
        raise ConstraintError(f"eps must be non-negative, got {eps}")
    system = warmup_constraint_system(model, eps)

    def feasible(eps1: float) -> bool:
        params = {"eps1": eps1, "eps2": 3.0 * eps1 + 2.0 * eps}
        return system.all_satisfied(params, tolerance=1e-12)

    if not feasible(0.0):
        raise ConstraintError(
            "the warm-up constraint system is infeasible even at eps1 = 0; "
            f"eps={eps} is too large for the {model.name} model"
        )
    low, high = 0.0, 1.0 / 6.0
    if feasible(high):
        low = high
    else:
        for _ in range(200):
            middle = (low + high) / 2.0
            if feasible(middle):
                low = middle
            else:
                high = middle
            if high - low <= tolerance:
                break
    eps1 = low
    eps2 = 3.0 * eps1 + 2.0 * eps
    return WarmupParameters(eps=eps, eps1=eps1, eps2=eps2, model_name=model.name)


#: The parameter values reported in the paper (Sections 3.4 and 4, Appendix B).
_PUBLISHED: Dict[str, Dict[str, float]] = {
    "current": {
        "omega": OMEGA_CURRENT,
        "eps": 0.0098109,
        "delta": 0.0294327,
        "eps1": 0.04201965,
        "eps2": 0.14568075,
    },
    "best": {
        "omega": OMEGA_BEST,
        "eps": 1.0 / 24.0,
        "delta": 1.0 / 8.0,
        "eps1": 1.0 / 24.0,
        "eps2": 5.0 / 24.0,
    },
}


@dataclass(frozen=True)
class PublishedParameters:
    """The constants the paper reports for one choice of ``omega``."""

    name: str
    omega: float
    main: MainParameters
    warmup: WarmupParameters


def published_parameters(which: str = "current") -> PublishedParameters:
    """The published constants: ``which`` is ``"current"`` or ``"best"``."""
    values = _PUBLISHED.get(which)
    if values is None:
        raise ConstraintError(f"unknown parameter set {which!r}; expected 'current' or 'best'")
    main = MainParameters(omega=values["omega"], eps=values["eps"], delta=values["delta"])
    warmup = WarmupParameters(
        eps=values["eps"], eps1=values["eps1"], eps2=values["eps2"], model_name=which
    )
    return PublishedParameters(name=which, omega=values["omega"], main=main, warmup=warmup)


@dataclass(frozen=True)
class VerificationReport:
    """Appendix-B style verification of the published constants."""

    name: str
    main_evaluations: List[ConstraintEvaluation]
    warmup_evaluations: List[ConstraintEvaluation]

    @property
    def all_satisfied(self) -> bool:
        return all(e.satisfied for e in self.main_evaluations) and all(
            e.satisfied for e in self.warmup_evaluations
        )


def verify_published_parameters(which: str = "current", tolerance: float = 1e-6) -> VerificationReport:
    """Re-run the Appendix B verification for the published constants.

    For ``which="current"`` the rectangular exponents use the published anchor
    values (see :class:`repro.theory.omega.PublishedValuesRectangularModel`);
    for ``which="best"`` the best-possible model is used, as in the paper.
    """
    published = published_parameters(which)
    model = current_omega_model() if which == "current" else best_omega_model()
    main_system = main_constraint_system(published.omega)
    warmup_system = warmup_constraint_system(model, published.main.eps)
    return VerificationReport(
        name=which,
        main_evaluations=main_system.evaluate(published.main.as_dict(), tolerance),
        warmup_evaluations=warmup_system.evaluate(published.warmup.as_dict(), tolerance),
    )


def solve_for_omega_model(model: OmegaModel) -> MainParameters:
    """Solve the main system for an :class:`OmegaModel` instead of a raw float."""
    return solve_main_parameters(model.omega)


def sweep_omega(omegas: List[float]) -> List[MainParameters]:
    """Solve the main system for a list of omegas (the E8 ablation)."""
    results = []
    for omega in omegas:
        model = model_for_omega(omega)
        results.append(solve_main_parameters(model.omega, validate=False))
    return results
