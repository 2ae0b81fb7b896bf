"""The paper's experiments E1–E9: its constants and its operation counts.

Each function runs one experiment and returns its rows.  The benchmark
modules under ``benchmarks/`` are thin wrappers that call these functions (so
``pytest-benchmark`` can time them).  The throughput experiments E10–E14 live
in :mod:`repro.analysis.throughput`, the service load E15 in
:mod:`repro.analysis.service_load`.

* **E1** — Theorem 1/2 constants (``eps``, ``delta``) for the current and best
  omega.
* **E2** — warm-up constants (``eps1``, ``eps2``) for both omega regimes.
* **E3** — Appendix B constraint verification at the published values.
* **E4** — correctness cross-validation of every counter against brute force.
* **E5** — update-cost scaling versus ``m`` (operation counts), with fitted
  exponents.
* **E6** — worst-case versus amortized per-update cost on an adversarial
  stream.
* **E7** — IVM cyclic-join view maintenance under tuple updates.
* **E8** — omega ablation: the update-time exponent as a function of omega.
* **E9** — phase-length ablation for the phase/FMM counter.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.api import EngineConfig, FourCycleEngine, available_counter_names
from repro.db.ivm import CyclicJoinCountView
from repro.instrumentation.harness import run_config, run_engine, run_validated
from repro.instrumentation.metrics import fit_power_law
from repro.theory.exponents import comparison_table, omega_sweep, update_time_exponent
from repro.theory.parameters import (
    published_parameters,
    solve_main_parameters,
    solve_warmup_parameters,
    verify_published_parameters,
)
from repro.theory.omega import best_omega_model, current_omega_model
from repro.workloads.generators import hub_adversarial_stream, power_law_stream, stream_catalogue
from repro.workloads.join_workloads import random_join_workload


# ---------------------------------------------------------------------------
# E1 / E2 / E3 — analytic reproductions
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ConstantsRow:
    """One row of the Theorem 1/2 constants table."""

    regime: str
    omega: float
    eps_published: float
    eps_solved: float
    delta_published: float
    delta_solved: float
    exponent_published: float
    exponent_solved: float

    @property
    def matches(self) -> bool:
        return abs(self.eps_published - self.eps_solved) < 1e-5


def experiment_e1_theorem_constants() -> List[ConstantsRow]:
    """E1: re-derive eps and delta for omega = 2.371339 and omega = 2."""
    rows: List[ConstantsRow] = []
    for regime in ("current", "best"):
        published = published_parameters(regime)
        solved = solve_main_parameters(published.omega)
        rows.append(
            ConstantsRow(
                regime=regime,
                omega=published.omega,
                eps_published=published.main.eps,
                eps_solved=solved.eps,
                delta_published=published.main.delta,
                delta_solved=solved.delta,
                exponent_published=published.main.update_time_exponent,
                exponent_solved=solved.update_time_exponent,
            )
        )
    return rows


@dataclass(frozen=True)
class WarmupConstantsRow:
    """One row of the warm-up (Section 3.4) constants table."""

    regime: str
    eps: float
    eps1_published: float
    eps1_solved: float
    eps2_published: float
    eps2_solved: float
    solver_model: str

    @property
    def matches(self) -> bool:
        return abs(self.eps1_published - self.eps1_solved) < 1e-5


def experiment_e2_warmup_constants() -> List[WarmupConstantsRow]:
    """E2: re-derive the warm-up constants.

    The ``omega = 2`` regime is re-derived exactly (the best-possible
    rectangular exponent is known in closed form).  The current-omega regime
    depends on the [ADW+25] rectangular tables which are not reproducible
    offline, so the solver is run with the block-partition bound and the
    published values are reported alongside (the verification that they satisfy
    every constraint is experiment E3).
    """
    rows: List[WarmupConstantsRow] = []
    for regime, model in (("current", current_omega_model()), ("best", best_omega_model())):
        published = published_parameters(regime)
        solved = solve_warmup_parameters(eps=published.main.eps, model=model)
        rows.append(
            WarmupConstantsRow(
                regime=regime,
                eps=published.main.eps,
                eps1_published=published.warmup.eps1,
                eps1_solved=solved.eps1,
                eps2_published=published.warmup.eps2,
                eps2_solved=solved.eps2,
                solver_model=model.name,
            )
        )
    return rows


@dataclass(frozen=True)
class ConstraintRow:
    """One evaluated constraint of the Appendix B verification."""

    regime: str
    system: str
    name: str
    lhs: float
    rhs: float
    satisfied: bool


def experiment_e3_constraint_verification() -> List[ConstraintRow]:
    """E3: evaluate every constraint at the published parameter values."""
    rows: List[ConstraintRow] = []
    for regime in ("current", "best"):
        report = verify_published_parameters(regime)
        for system, evaluations in (
            ("main", report.main_evaluations),
            ("warm-up", report.warmup_evaluations),
        ):
            rows.extend(
                ConstraintRow(
                    regime=regime,
                    system=system,
                    name=evaluation.name,
                    lhs=evaluation.lhs,
                    rhs=evaluation.rhs,
                    satisfied=evaluation.satisfied,
                )
                for evaluation in evaluations
            )
    return rows


# ---------------------------------------------------------------------------
# E4 — correctness cross-validation
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CrossValidationRow:
    """Cross-validation outcome for one (counter, workload) pair."""

    counter: str
    workload: str
    updates: int
    final_count: int
    validated: bool
    mean_operations: float
    max_operations: int


def experiment_e4_cross_validation(
    scale: int = 1,
    updates_per_workload: int = 150,
    seed: int = 0,
    counters: Optional[Sequence[str]] = None,
) -> List[CrossValidationRow]:
    """E4: every counter agrees with brute force after every update, on every
    workload of the catalogue."""
    names = sorted(counters if counters is not None else available_counter_names())
    rows: List[CrossValidationRow] = []
    for workload_name, stream in stream_catalogue(scale=scale, seed=seed).items():
        stream = stream.prefix(updates_per_workload)
        for name in names:
            engine = FourCycleEngine(EngineConfig(counter=name))
            if name == "brute-force":
                result = run_engine(engine, stream)
                validated = True
            else:
                result = run_validated(engine, stream)
                validated = result.validated
            summary = result.summary()
            rows.append(
                CrossValidationRow(
                    counter=name,
                    workload=workload_name,
                    updates=len(stream),
                    final_count=result.final_count,
                    validated=validated,
                    mean_operations=summary.mean_operations,
                    max_operations=summary.max_operations,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# E5 — update-cost scaling versus m
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ScalingPoint:
    counter: str
    num_vertices: int
    final_edges: int
    mean_operations: float
    p99_operations: float
    max_operations: int
    mean_seconds: float


@dataclass
class ScalingResult:
    """Scaling series per counter plus the fitted cost exponent."""

    points: List[ScalingPoint] = field(default_factory=list)
    fitted_exponents: Dict[str, Optional[float]] = field(default_factory=dict)
    theoretical_exponents: Dict[str, float] = field(default_factory=dict)


def experiment_e5_update_scaling(
    sizes: Sequence[int] = (16, 32, 64, 96),
    updates_per_vertex: int = 8,
    counters: Sequence[str] = ("brute-force", "wedge", "hhh22", "phase-fmm", "assadi-shah"),
    seed: int = 0,
) -> ScalingResult:
    """E5: per-update operation count as the graph grows.

    The stream is a skewed (power-law) workload whose length scales with the
    vertex count, so the live edge count ``m`` grows across the series and
    heavy vertices appear — the regime the degree-class machinery targets.
    The *shape* claim being checked: the stored-structure algorithms (HHH22,
    phase-FMM, main) pay less per update than the neighborhood-scanning
    baselines (brute force, and the O(n) wedge counter) as ``m`` grows.
    Absolute constants are meaningless in Python; the fitted exponents and the
    ordering are the result.
    """
    result = ScalingResult()
    per_counter_m: Dict[str, List[int]] = {name: [] for name in counters}
    per_counter_cost: Dict[str, List[float]] = {name: [] for name in counters}
    for size in sizes:
        stream = power_law_stream(
            size,
            updates_per_vertex * size,
            exponent=1.8,
            delete_fraction=0.15,
            seed=seed,
        )
        for name in counters:
            run = run_config(EngineConfig(counter=name), stream)
            summary = run.summary()
            point = ScalingPoint(
                counter=name,
                num_vertices=size,
                final_edges=run.final_edge_count,
                mean_operations=summary.mean_operations,
                p99_operations=summary.p99_operations,
                max_operations=summary.max_operations,
                mean_seconds=summary.mean_seconds,
            )
            result.points.append(point)
            per_counter_m[name].append(max(run.final_edge_count, 1))
            per_counter_cost[name].append(max(summary.mean_operations, 1e-9))
    for name in counters:
        result.fitted_exponents[name] = fit_power_law(per_counter_m[name], per_counter_cost[name])
    result.theoretical_exponents = {
        "brute-force": 2.0,  # deg(u) * deg(v) against hub degrees ~ m
        "wedge": 1.0,  # O(n) worst case; on hub streams the scans track hub degrees
        "hhh22": 2.0 / 3.0,
        "phase-fmm": update_time_exponent(),
        "assadi-shah": update_time_exponent(),
    }
    return result


# ---------------------------------------------------------------------------
# E6 — worst-case versus amortized cost
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class WorstCaseRow:
    counter: str
    mean_operations: float
    p99_operations: float
    max_operations: int
    worst_to_mean_ratio: float


def experiment_e6_worst_case(
    num_vertices: int = 48,
    num_updates: int = 400,
    counters: Sequence[str] = ("wedge", "hhh22", "phase-fmm", "assadi-shah"),
    seed: int = 1,
) -> List[WorstCaseRow]:
    """E6: per-update cost distribution on a hub-adversarial stream.

    The paper's contribution is a *worst-case* bound; the interesting numbers
    are therefore the maximum and p99 per-update costs relative to the mean.
    """
    stream = hub_adversarial_stream(num_vertices, num_updates, num_hubs=3, seed=seed)
    rows: List[WorstCaseRow] = []
    for name in counters:
        summary = run_config(EngineConfig(counter=name), stream).summary()
        mean = max(summary.mean_operations, 1e-9)
        rows.append(
            WorstCaseRow(
                counter=name,
                mean_operations=summary.mean_operations,
                p99_operations=summary.p99_operations,
                max_operations=summary.max_operations,
                worst_to_mean_ratio=summary.max_operations / mean,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# E7 — IVM join view
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class IvmRow:
    domain_size: int
    updates: int
    final_join_count: int
    consistent: bool
    mean_seconds_per_update: float


def experiment_e7_ivm_join(
    domain_sizes: Sequence[int] = (8, 16, 32),
    updates_per_domain: int = 400,
    seed: int = 2,
) -> List[IvmRow]:
    """E7: maintain the cyclic-join count under tuple updates and verify it
    against a from-scratch join at the end (and implicitly throughout via the
    counter's exactness)."""
    rows: List[IvmRow] = []
    for domain_size in domain_sizes:
        view = CyclicJoinCountView()
        workload = random_join_workload(domain_size, updates_per_domain, seed=seed)
        started = time.perf_counter()
        for update in workload:
            view.apply(update)
        elapsed = time.perf_counter() - started
        rows.append(
            IvmRow(
                domain_size=domain_size,
                updates=len(workload),
                final_join_count=view.count,
                consistent=view.is_consistent(),
                mean_seconds_per_update=elapsed / max(len(workload), 1),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# E8 — omega ablation
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class OmegaAblationResult:
    rows: list
    headline: list


def experiment_e8_omega_ablation(step: float = 0.05) -> OmegaAblationResult:
    """E8: the update-time exponent as a function of omega, plus the headline
    comparison table from the introduction."""
    omegas = []
    omega = 2.0
    while omega <= 3.0 + 1e-9:
        omegas.append(round(omega, 6))
        omega += step
    return OmegaAblationResult(rows=omega_sweep(omegas), headline=comparison_table())


# ---------------------------------------------------------------------------
# E9 — phase-length ablation
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PhaseAblationRow:
    phase_length: int
    mean_operations: float
    p99_operations: float
    max_operations: int
    phases_completed: int


def experiment_e9_phase_ablation(
    phase_lengths: Sequence[int] = (4, 16, 64, 256),
    num_vertices: int = 40,
    num_updates: int = 400,
    seed: int = 3,
) -> List[PhaseAblationRow]:
    """E9: how the phase length trades off query-time delta scanning against
    matrix-product amortization in the phase/FMM counter.

    A phase counts chain-relation updates, six per graph update (three
    relations, both orientations), so ``phase_length`` is in sixths of a
    graph update; a phase ends only at a graph-update boundary, so 80 graph
    updates at phase length 4 complete 80 phases.
    """
    stream = power_law_stream(num_vertices, num_updates, seed=seed)
    rows: List[PhaseAblationRow] = []
    for phase_length in phase_lengths:
        engine = FourCycleEngine(
            EngineConfig(counter="phase-fmm", options={"phase_length": phase_length})
        )
        summary = run_engine(engine, stream).summary()
        rows.append(
            PhaseAblationRow(
                phase_length=phase_length,
                mean_operations=summary.mean_operations,
                p99_operations=summary.p99_operations,
                max_operations=summary.max_operations,
                phases_completed=engine.counter.phases_completed,
            )
        )
    return rows
