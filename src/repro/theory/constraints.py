"""The constraint systems of Sections 3.4 and 4 (verified in Appendix B).

Two systems appear in the paper:

* **Main algorithm** (Section 4), over ``eps`` (update-time exponent slack)
  and ``delta`` (phase-length exponent), given the square exponent ``omega``:

  - Eq. (9):  ``1 - delta >= (2 omega + 1) eps + (omega - 1) * 2/3``
    (a phase is long enough to finish the old-phase square products);
  - Eq. (10): ``3 eps <= delta``
    (iterating over pairs of high/dense vertices, one from the new phase, fits
    in the update time);
  - Eq. (11): ``eps <= 1/6``
    (class thresholds are increasing).

* **Warm-up algorithm, A and C fixed** (Section 3.4), over ``eps1`` (its
  update-time slack) and ``eps2`` (chunk-density slack), given ``eps`` and a
  rectangular-exponent oracle:

  - Eq. (2): ``omega(1/3 + eps1, 2/3 - eps1, 1/3 + eps1) <= 4/3 - 2 eps1``;
  - Eq. (5): ``omega(2/3 + 2 eps, 1/3 - eps1 + eps2, 1/3 - eps1 + eps2)
    <= 4/3 - 2 eps1``;
  - Eq. (6): ``3 eps1 + 2 eps <= eps2``;
  - Eq. (7): ``eps1 <= 1/6``;
  - Eq. (8): ``eps1 - eps2 <= 1/3``.

Every constraint is represented as a named object that evaluates its
left-hand and right-hand sides, so reports can show the numeric slack exactly
the way Appendix B does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.exceptions import ConstraintError
from repro.theory.omega import OmegaModel


@dataclass(frozen=True)
class ConstraintEvaluation:
    """The outcome of checking one constraint at a concrete parameter point."""

    name: str
    description: str
    lhs: float
    rhs: float
    satisfied: bool

    @property
    def slack(self) -> float:
        """``rhs - lhs``; non-negative iff the constraint holds."""
        return self.rhs - self.lhs


@dataclass(frozen=True)
class Constraint:
    """A single ``lhs(params) <= rhs(params)`` constraint."""

    name: str
    description: str
    lhs: Callable[[Dict[str, float]], float]
    rhs: Callable[[Dict[str, float]], float]

    def evaluate(self, params: Dict[str, float], tolerance: float = 1e-9) -> ConstraintEvaluation:
        lhs_value = self.lhs(params)
        rhs_value = self.rhs(params)
        return ConstraintEvaluation(
            name=self.name,
            description=self.description,
            lhs=lhs_value,
            rhs=rhs_value,
            satisfied=lhs_value <= rhs_value + tolerance,
        )


class ConstraintSystem:
    """A named collection of constraints over a parameter dictionary."""

    def __init__(self, name: str, constraints: List[Constraint]) -> None:
        self.name = name
        self.constraints = list(constraints)

    def evaluate(self, params: Dict[str, float], tolerance: float = 1e-9) -> List[ConstraintEvaluation]:
        """Evaluate every constraint at ``params``."""
        return [constraint.evaluate(params, tolerance) for constraint in self.constraints]

    def all_satisfied(self, params: Dict[str, float], tolerance: float = 1e-9) -> bool:
        return all(evaluation.satisfied for evaluation in self.evaluate(params, tolerance))

    def require(self, params: Dict[str, float], tolerance: float = 1e-9) -> None:
        """Raise :class:`ConstraintError` listing every violated constraint."""
        violations = [
            evaluation for evaluation in self.evaluate(params, tolerance) if not evaluation.satisfied
        ]
        if violations:
            details = "; ".join(
                f"{violation.name}: {violation.lhs:.9f} > {violation.rhs:.9f}"
                for violation in violations
            )
            raise ConstraintError(f"{self.name}: violated constraints: {details}")


def main_constraint_system(omega: float) -> ConstraintSystem:
    """The main-algorithm system over parameters ``eps`` and ``delta``."""

    def eq9_lhs(params: Dict[str, float]) -> float:
        return (2.0 * omega + 1.0) * params["eps"] + (omega - 1.0) * 2.0 / 3.0

    def eq9_rhs(params: Dict[str, float]) -> float:
        return 1.0 - params["delta"]

    constraints = [
        Constraint(
            name="Eq(9) phase length",
            description=(
                "A phase of m^{1-delta} updates, each doing m^{2/3-eps} work, must cover the "
                "m^{omega (2/3+2 eps)} cost of the old-phase square products"
            ),
            lhs=eq9_lhs,
            rhs=eq9_rhs,
        ),
        Constraint(
            name="Eq(10) high-pair iteration",
            description=(
                "Iterating over pairs of high/dense vertices with one endpoint in the new phase "
                "(m^{1/3+eps} * m^{1-delta-2/3+eps}) must fit in the m^{2/3-eps} update time"
            ),
            lhs=lambda params: 3.0 * params["eps"],
            rhs=lambda params: params["delta"],
        ),
        Constraint(
            name="Eq(11) threshold ordering",
            description="Class thresholds must be increasing: 1/3 + eps <= 2/3 - eps",
            lhs=lambda params: params["eps"],
            rhs=lambda params: 1.0 / 6.0,
        ),
    ]
    return ConstraintSystem(name=f"main algorithm (omega={omega:g})", constraints=constraints)


def warmup_constraint_system(model: OmegaModel, eps: float) -> ConstraintSystem:
    """The warm-up system over ``eps1`` and ``eps2`` for a fixed ``eps``.

    The rectangular exponent oracle of ``model`` supplies
    ``omega(a, b, c)``; see :mod:`repro.theory.omega` for the available models.
    """

    def eq2_lhs(params: Dict[str, float]) -> float:
        eps1 = params["eps1"]
        return model.rectangular_cost_exponent(1.0 / 3.0 + eps1, 2.0 / 3.0 - eps1, 1.0 / 3.0 + eps1)

    def eq5_lhs(params: Dict[str, float]) -> float:
        eps1 = params["eps1"]
        eps2 = params["eps2"]
        inner = 1.0 / 3.0 - eps1 + eps2
        return model.rectangular_cost_exponent(2.0 / 3.0 + 2.0 * eps, inner, inner)

    def chunk_budget(params: Dict[str, float]) -> float:
        return 4.0 / 3.0 - 2.0 * params["eps1"]

    constraints = [
        Constraint(
            name="Eq(2) high-vertex product",
            description=(
                "Multiplying (A^{H*} B_i) by C^{*H} with rectangular FMM must fit in the "
                "m^{4/3 - 2 eps1} budget of a chunk"
            ),
            lhs=eq2_lhs,
            rhs=chunk_budget,
        ),
        Constraint(
            name="Eq(5) low-vertex dense product",
            description=(
                "Multiplying A^{L*} by B_{i,DD} with rectangular FMM must fit in the "
                "m^{4/3 - 2 eps1} budget of a chunk"
            ),
            lhs=eq5_lhs,
            rhs=chunk_budget,
        ),
        Constraint(
            name="Eq(6) sparse enumeration",
            description=(
                "Enumerating low-vertex neighbors times chunk-sparse neighbors "
                "(m^{4/3 + eps1 - eps2 + 2 eps}) must fit in the chunk budget: 3 eps1 + 2 eps <= eps2"
            ),
            lhs=lambda params: 3.0 * params["eps1"] + 2.0 * eps,
            rhs=lambda params: params["eps2"],
        ),
        Constraint(
            name="Eq(7) threshold ordering",
            description="Warm-up class thresholds must be increasing: eps1 <= 1/6",
            lhs=lambda params: params["eps1"],
            rhs=lambda params: 1.0 / 6.0,
        ),
        Constraint(
            name="Eq(8) chunk-density ordering",
            description="Chunk-density threshold below sparsity threshold: eps1 - eps2 <= 1/3",
            lhs=lambda params: params["eps1"] - params["eps2"],
            rhs=lambda params: 1.0 / 3.0,
        ),
    ]
    return ConstraintSystem(
        name=f"warm-up algorithm (omega model={model.name}, eps={eps:g})", constraints=constraints
    )
