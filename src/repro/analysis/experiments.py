"""Experiment implementations (E1–E15).

Each function runs one of the reproduction's experiments and returns a
structured result object.  The benchmark modules under ``benchmarks/`` are thin
wrappers that call these functions (so ``pytest-benchmark`` can time them),
and ``repro-4cycles bench`` runs the perf experiments and writes their
``BENCH_E*.json`` artifacts from the same rows.

The experiments:

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
* **E10** — batched-pipeline throughput: updates/sec versus batch size for
  every registered counter, with batch/unbatch exactness checked at the end.
* **E11** — kernel throughput: the counters' vectorized batch hooks against
  their per-update paths, with bit-identical counts asserted across both.
* **E12** — sparse-versus-dense products: CSR SpGEMM against a dict-of-dicts
  baseline and dense BLAS on sparse, uniform, and dense instances, plus the
  wedge counter's incremental batch hook against its full rebuild —
  bit-identical results enforced on every row.
* **E14** — shard-parallel scaling: the whole-product ``csr_spgemm`` and the
  hhh22 masked rebuild on the E12 community instance at ``workers`` in
  {1, 2, 4}, bit-identity against the serial path enforced on every row.
* **E15** — always-on service load: thousands of concurrent HTTP clients
  ingesting disjoint update streams into one durable served engine (readers
  polling concurrently), latency percentiles recorded, the final count pinned
  to a single-engine reference replay and a server-side consistency recount.
"""

from __future__ import annotations

import random

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.api import EngineConfig, FourCycleEngine, available_counter_names
from repro.db.ivm import CyclicJoinCountView
from repro.exceptions import ConfigurationError, CounterStateError
from repro.instrumentation.harness import run_config, run_engine, run_validated, time_replay
from repro.kernels import exact_integer_matmul
from repro.matmul.engine import CountMatrix, aligned_left_operand, multiply, right_operand
from repro.instrumentation.metrics import fit_power_law
from repro.theory.exponents import comparison_table, omega_sweep, update_time_exponent
from repro.theory.parameters import (
    published_parameters,
    solve_main_parameters,
    solve_warmup_parameters,
    verify_published_parameters,
)
from repro.theory.omega import best_omega_model, current_omega_model
from repro.workloads.generators import (
    erdos_renyi_stream,
    hub_adversarial_stream,
    power_law_stream,
    stream_catalogue,
)
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
        for evaluation in report.main_evaluations:
            rows.append(
                ConstraintRow(
                    regime=regime,
                    system="main",
                    name=evaluation.name,
                    lhs=evaluation.lhs,
                    rhs=evaluation.rhs,
                    satisfied=evaluation.satisfied,
                )
            )
        for evaluation in report.warmup_evaluations:
            rows.append(
                ConstraintRow(
                    regime=regime,
                    system="warm-up",
                    name=evaluation.name,
                    lhs=evaluation.lhs,
                    rhs=evaluation.rhs,
                    satisfied=evaluation.satisfied,
                )
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
                    mean_operations=summary.mean_operations if summary else 0.0,
                    max_operations=summary.max_operations if summary else 0,
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
            assert summary is not None
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
        assert summary is not None
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
    import time

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
    matrix-product amortization in the phase/FMM counter."""
    stream = power_law_stream(num_vertices, num_updates, seed=seed)
    rows: List[PhaseAblationRow] = []
    for phase_length in phase_lengths:
        engine = FourCycleEngine(
            EngineConfig(counter="phase-fmm", options={"phase_length": phase_length})
        )
        summary = run_engine(engine, stream).summary()
        assert summary is not None
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


# ---------------------------------------------------------------------------
# E10 — batched-pipeline throughput
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class BatchThroughputRow:
    """Throughput of one (counter, batch size) combination."""

    counter: str
    batch_size: int
    updates: int
    seconds: float
    updates_per_second: float
    speedup_vs_unbatched: float
    final_count: int
    consistent: bool


def experiment_e10_batch_throughput(
    num_vertices: int = 24,
    num_updates: int = 1280,
    batch_sizes: Sequence[int] = (1, 8, 64, 256),
    counters: Optional[Sequence[str]] = None,
    seed: int = 0,
) -> List[BatchThroughputRow]:
    """E10: end-to-end updates/sec of the batch pipeline versus batch size.

    Replays the standard workload — a dense Erdős–Rényi churn stream whose
    live edge count hovers near the complete graph, the regime where
    per-update work is degree-bound — through every counter once per batch
    size: size 1 uses the per-update ``apply`` path, larger sizes the
    ``apply_batch`` pipeline.  Wall-clock time covers the whole replay
    (normalization included), so the rows measure exactly what a caller of the
    batch API experiences.  Every run's final count is verified against a
    from-scratch recount, and all runs of a counter must agree — the
    batch/unbatch exactness contract, measured rather than assumed.
    """
    stream = erdos_renyi_stream(num_vertices, num_updates, seed=seed)
    names = sorted(counters if counters is not None else available_counter_names())
    rows: List[BatchThroughputRow] = []
    for name in names:
        unbatched_seconds: Optional[float] = None
        final_counts = set()
        for batch_size in batch_sizes:
            engine = FourCycleEngine(EngineConfig(counter=name, batch_size=batch_size))
            elapsed = max(time_replay(engine, stream), 1e-9)
            if batch_size <= 1:
                unbatched_seconds = elapsed
            # NaN when the sweep has no batch-size-1 baseline to compare with.
            speedup = unbatched_seconds / elapsed if unbatched_seconds is not None else float("nan")
            final_counts.add(engine.count)
            rows.append(
                BatchThroughputRow(
                    counter=name,
                    batch_size=batch_size,
                    updates=len(stream),
                    seconds=elapsed,
                    updates_per_second=len(stream) / elapsed,
                    speedup_vs_unbatched=speedup,
                    final_count=engine.count,
                    consistent=engine.is_consistent(),
                )
            )
        if len(final_counts) > 1:
            raise AssertionError(
                f"counter {name!r} final counts diverged across batch sizes: {final_counts}"
            )
    return rows


# ---------------------------------------------------------------------------
# E11 — vectorized batch hooks against the per-update paths
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class KernelThroughputRow:
    """Throughput of one counter path.

    ``variant`` is ``per-update`` (one ``apply`` per update) or ``batched``
    (``apply_batch`` windows through the counter's vectorized batch hook).
    ``per_second`` counts updates; ``speedup_vs_per_update`` is relative to
    the ``per-update`` variant of the same kernel.  ``exact`` records the
    count identity check — it must be true on every row, timing never excuses
    a wrong answer.
    """

    kernel: str
    variant: str
    parameters: str
    operations: int
    seconds: float
    per_second: float
    speedup_vs_per_update: float
    exact: bool


def experiment_e11_kernel_throughput(
    num_vertices: int = 32,
    num_updates: int = 2560,
    batch_size: int = 256,
    counters: Sequence[str] = ("wedge", "hhh22", "assadi-shah"),
    seed: int = 0,
) -> List[KernelThroughputRow]:
    """E11: the counters' vectorized batch hooks versus their per-update paths.

    The standard dense churn stream is replayed through each counter twice:
    one update at a time, and in windows of ``batch_size`` through the
    vectorized batch hook.  Each timed replay follows one untimed replay of
    the stream's first ``batch_size`` updates through a throwaway engine of
    the same config.  Both must end with **bit-identical 4-cycle counts**,
    each verified against a from-scratch recount; a mismatch raises
    :class:`~repro.exceptions.CounterStateError` — the CI perf-smoke job gates
    on that, not on timing.

    Returns one row per (counter, variant); speedups are computed against the
    per-update variant of the same counter.
    """
    stream = erdos_renyi_stream(num_vertices, num_updates, seed=seed)
    rows: List[KernelThroughputRow] = []
    for name in counters:
        per_update_seconds: Optional[float] = None
        final_counts: Dict[str, int] = {}
        for variant, size in (("per-update", 1), ("batched", batch_size)):
            config = EngineConfig(counter=name, batch_size=size)
            # One untimed window through a throwaway engine first: a fresh
            # process pays its first-call costs there, not in the timed run.
            time_replay(FourCycleEngine(config), stream[:batch_size])
            engine = FourCycleEngine(config)
            seconds = max(time_replay(engine, stream), 1e-9)
            if per_update_seconds is None:
                per_update_seconds = seconds
            if not engine.is_consistent():
                raise CounterStateError(
                    f"E11: counter {name!r} variant {variant!r} is inconsistent "
                    f"with a from-scratch recount (count={engine.count})"
                )
            final_counts[variant] = engine.count
            rows.append(
                KernelThroughputRow(
                    kernel=f"{name}-updates",
                    variant=variant,
                    parameters=f"n={num_vertices} updates={num_updates} batch={size}",
                    operations=len(stream),
                    seconds=seconds,
                    per_second=len(stream) / seconds,
                    speedup_vs_per_update=per_update_seconds / seconds,
                    exact=True,
                )
            )
        if len(set(final_counts.values())) > 1:
            raise CounterStateError(
                f"E11: counter {name!r} counts diverged across paths: {final_counts}"
            )
    return rows


# ---------------------------------------------------------------------------
# E12 — sparse-vs-dense products and the incremental wedge hook
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SpgemmBackendRow:
    """Throughput of one product variant (or batch-hook mode) on one instance.

    For the product family ``operations`` is the expansion work (the
    variant-independent multiplication count) and ``speedup_vs_baseline`` is
    relative to the dict baseline (:func:`dict_product`) on the same
    instance; for the wedge family ``operations`` counts stream updates
    and the baseline is the forced full rebuild.  ``consistent`` records the
    bit-identity check — it must be true on every row (the CI perf-smoke job
    gates on it); timing is reported, never gated.
    """

    kernel: str
    variant: str
    parameters: str
    operations: int
    seconds: float
    per_second: float
    speedup_vs_baseline: float
    consistent: bool


#: The E12 product variants: the dict baseline, which always runs, and the
#: two kernels raced against it.
E12_PRODUCT_VARIANTS = ("dict", "csr", "dense")


def dict_product(left: CountMatrix, right: CountMatrix) -> tuple[CountMatrix, int]:
    """``left · right`` by one dict probe and one ``add`` per multiply-add.

    Returns the product and its expansion work, as
    :func:`~repro.matmul.engine.multiply` does.  E12's baseline, and the
    independent reference the kernel tests compare against.
    """
    result = CountMatrix()
    work = 0
    for row, middle, left_value in left.items():
        right_row = right.row(middle)
        work += len(right_row)
        for column, right_value in right_row.items():
            result.add(row, column, left_value * right_value)
    return result, work


def dense_product(left: CountMatrix, right: CountMatrix) -> tuple[CountMatrix, int]:
    """``left · right`` as one dense BLAS product over the operands' CSR
    exports; returns the product and the dense multiply-add count.  E12's
    dense variant."""
    left_csr, right_csr = left.csr(), right.csr()
    left_dense = aligned_left_operand(left_csr, right_csr).to_dense()
    right_dense = right_operand(right_csr).to_dense()
    product = exact_integer_matmul(left_dense, right_dense)
    flops = left_dense.shape[0] * left_dense.shape[1] * right_dense.shape[1]
    return CountMatrix.from_dense(product, left_csr.row_order, right_csr.col_order), flops


def _community_count_matrix(num_communities: int, size: int) -> CountMatrix:
    """A clique-community adjacency: sparse overall, locally dense.

    The self-product of this matrix is the wedge rebuild shape: expansion
    work ``~ size`` times larger than the output (every pair inside a
    community collides once per common neighbor), which is where SpGEMM's
    per-operation advantage over dict probing shows fully.  Labels are
    composite tuples — the case the interned kernels target (tuples do not
    cache their hash, so every dict probe of the dict baseline re-hashes).
    """
    matrix = CountMatrix()
    for community in range(num_communities):
        base = community * size
        for a in range(base, base + size):
            for b in range(base, base + size):
                if a != b:
                    matrix.add(("shard", a, a * a), ("shard", b, b * b), 1)
    return matrix


def _uniform_count_matrix(
    dimension: int, density: float, rng: random.Random, row_prefix: str, column_prefix: str
) -> CountMatrix:
    """A uniformly random integer matrix with string labels."""
    matrix = CountMatrix()
    for i in range(dimension):
        for j in range(dimension):
            if rng.random() < density:
                matrix.add(
                    f"{row_prefix}{i:05d}", f"{column_prefix}{j:05d}", rng.randint(1, 4)
                )
    return matrix


def _e12_product_instances(
    community_count: int, community_size: int, uniform_dimension: int, dense_dimension: int,
    seed: int,
):
    """The three product instances: sparse-structured, sparse-uniform, dense."""
    rng = random.Random(seed)
    communities = _community_count_matrix(community_count, community_size)
    dimension = community_count * community_size
    yield (
        f"communities(n={dimension},density={communities.nnz / dimension ** 2:.3%})",
        communities,
        communities,
    )
    uniform_left = _uniform_count_matrix(uniform_dimension, 0.01, rng, "r", "m")
    uniform_right = _uniform_count_matrix(uniform_dimension, 0.01, rng, "m", "c")
    yield (f"uniform(n={uniform_dimension},density=1%)", uniform_left, uniform_right)
    dense_left = _uniform_count_matrix(dense_dimension, 0.3, rng, "r", "m")
    dense_right = _uniform_count_matrix(dense_dimension, 0.3, rng, "m", "c")
    yield (f"dense(n={dense_dimension},density=30%)", dense_left, dense_right)


def experiment_e12_spgemm_backends(
    community_count: int = 128,
    community_size: int = 48,
    uniform_dimension: int = 512,
    dense_dimension: int = 192,
    wedge_vertices: int = 2048,
    wedge_base_edges: int = 12288,
    wedge_churn_updates: int = 2560,
    wedge_batch_size: int = 128,
    backends: Sequence[str] = E12_PRODUCT_VARIANTS,
    product_repeats: int = 1,
    seed: int = 0,
) -> List[SpgemmBackendRow]:
    """E12: CSR SpGEMM versus the dict baseline and dense BLAS, plus the
    incremental wedge batch hook versus its full rebuild.

    Two families:

    * **Products** — each instance of :func:`_e12_product_instances` is
      multiplied by :func:`dict_product`, :func:`~repro.matmul.engine.multiply`
      (``csr``) and :func:`dense_product`; ``backends`` selects among the
      last two, and the dict baseline always runs.  The products must be
      identical matrices and the CSR expansion work must equal the dict
      baseline's, or :class:`~repro.exceptions.CounterStateError` is raised.
      The interned CSR snapshots are warmed before timing: they are shared
      mutation-keyed state (built at most once per matrix) and the dict
      baseline never uses them.  ``product_repeats`` runs every variant that
      many times and reports the minimum (applied to all variants equally —
      min-of-N removes scheduler noise from the recorded artifact without
      favouring any kernel).
    * **Wedge batch hook** — a large random graph is built in bulk and then
      churned with small delete/insert windows
      (:func:`_e12_wedge_churn_stream`: a standing graph with
      ``wedge_base_edges`` edges, batches touching a small fraction of it —
      the regime the incremental ``ΔW`` merge targets), replayed with the
      hook forced to full rebuilds, forced incremental, and in automatic
      mode; every run's final count must match the full-rebuild trajectory
      and a from-scratch recount.

    ``consistent`` is true on every returned row by construction — a mismatch
    raises instead of being reported.
    """
    unknown = sorted(set(backends) - set(E12_PRODUCT_VARIANTS))
    if unknown:
        raise ConfigurationError(
            f"unknown E12 backend{'s' if len(unknown) > 1 else ''}: {', '.join(unknown)}; "
            f"expected a subset of {', '.join(E12_PRODUCT_VARIANTS)}"
        )
    import time

    rows: List[SpgemmBackendRow] = []
    products = {"dict": dict_product, "csr": multiply, "dense": dense_product}
    chosen = [name for name in E12_PRODUCT_VARIANTS if name == "dict" or name in backends]
    for instance, left, right in _e12_product_instances(
        community_count, community_size, uniform_dimension, dense_dimension, seed
    ):
        left.csr()
        right.csr()
        timings: Dict[str, float] = {}
        results: Dict[str, CountMatrix] = {}
        work: Dict[str, int] = {}
        for name in chosen:
            best = None
            for _ in range(max(product_repeats, 1)):
                started = time.perf_counter()
                results[name], work[name] = products[name](left, right)
                elapsed = max(time.perf_counter() - started, 1e-9)
                best = elapsed if best is None else min(best, elapsed)
            timings[name] = best
        for name in chosen:
            if results[name] != results["dict"]:
                raise CounterStateError(f"E12: the {name} product diverged on {instance}")
        if "csr" in work and work["csr"] != work["dict"]:
            raise CounterStateError(
                f"E12: CSR expansion work {work['csr']} does not match the dict "
                f"baseline's {work['dict']} on {instance}"
            )
        # The dense variant counts dense flops; every row reports the
        # expansion work the dict baseline and CSR share.
        operations = work["dict"]
        for name in chosen:
            rows.append(
                SpgemmBackendRow(
                    kernel=f"product:{instance}",
                    variant=name,
                    parameters=f"nnz={left.nnz}+{right.nnz} out={results[name].nnz}",
                    operations=operations,
                    seconds=timings[name],
                    per_second=operations / timings[name],
                    speedup_vs_baseline=timings["dict"] / timings[name],
                    consistent=True,
                )
            )
    rows.extend(
        _e12_wedge_hook_rows(
            wedge_vertices, wedge_base_edges, wedge_churn_updates, wedge_batch_size, seed
        )
    )
    return rows


def _e12_wedge_churn_stream(
    num_vertices: int, base_edges: int, churn_updates: int, seed: int
):
    """A bulk-built random graph followed by small delete/insert churn.

    The build prefix inserts ``base_edges`` random edges; the churn suffix
    alternates deleting a random live edge and inserting a random absent one,
    keeping the standing graph size constant — so each churn batch touches a
    small fraction of the graph, which is the regime that separates the
    incremental wedge hook from a full rebuild.
    """
    from repro.graph.updates import EdgeUpdate, UpdateStream

    rng = random.Random(seed)
    live: Dict[tuple, int] = {}
    while len(live) < base_edges:
        u, v = rng.randrange(num_vertices), rng.randrange(num_vertices)
        if u != v:
            live.setdefault((min(u, v), max(u, v)), len(live))
    edge_list = list(live)
    updates = [EdgeUpdate.insert(u, v) for u, v in edge_list]
    live_set = set(edge_list)
    for step in range(churn_updates):
        if step % 2 == 0:
            index = rng.randrange(len(edge_list))
            edge = edge_list[index]
            last = edge_list[-1]
            edge_list[index] = last
            edge_list.pop()
            live_set.discard(edge)
            updates.append(EdgeUpdate.delete(*edge))
        else:
            while True:
                u, v = rng.randrange(num_vertices), rng.randrange(num_vertices)
                if u != v and (min(u, v), max(u, v)) not in live_set:
                    break
            edge = (min(u, v), max(u, v))
            edge_list.append(edge)
            live_set.add(edge)
            updates.append(EdgeUpdate.insert(*edge))
    return UpdateStream(updates)


def _e12_wedge_hook_rows(
    num_vertices: int, base_edges: int, churn_updates: int, batch_size: int, seed: int
) -> List[SpgemmBackendRow]:
    """Incremental versus full-rebuild wedge batch hook on a churn stream."""
    stream = _e12_wedge_churn_stream(num_vertices, base_edges, churn_updates, seed)
    modes = (("full-rebuild", False), ("incremental", True), ("auto", None))
    timings: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    rows: List[SpgemmBackendRow] = []
    for variant, incremental in modes:
        engine = FourCycleEngine(
            EngineConfig(
                counter="wedge",
                options={"incremental": incremental},
                batch_size=batch_size,
                track_costs=False,
            )
        )
        timings[variant] = max(time_replay(engine, stream), 1e-9)
        counts[variant] = engine.count
        if not engine.is_consistent():
            raise CounterStateError(
                f"E12: wedge hook mode {variant!r} is inconsistent with a "
                f"from-scratch recount (count={engine.count})"
            )
    if len(set(counts.values())) > 1:
        raise CounterStateError(
            f"E12: wedge hook counts diverged across modes: {counts}"
        )
    for variant, _ in modes:
        rows.append(
            SpgemmBackendRow(
                kernel="wedge-batch-hook",
                variant=variant,
                parameters=(
                    f"n={num_vertices} base_m={base_edges} "
                    f"churn={churn_updates} batch={batch_size}"
                ),
                operations=len(stream),
                seconds=timings[variant],
                per_second=len(stream) / timings[variant],
                speedup_vs_baseline=timings["full-rebuild"] / timings[variant],
                consistent=True,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# E14 — shard-parallel SpGEMM and rebuild scaling
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ShardScalingRow:
    """Throughput of one kernel at one worker count on the community instance.

    ``speedup_vs_serial`` is relative to the ``workers=1`` row of the same
    kernel (the plain serial path, no shard plan).  ``consistent`` records
    bit-identity against that serial reference — the full CSR arrays for the
    product family, the exact 4-cycle count (also checked against the closed
    form for disjoint cliques) for the rebuild family.  It must be true on
    every row; the CI perf-smoke job gates on it and never on timing.
    """

    kernel: str
    variant: str
    parameters: str
    operations: int
    seconds: float
    per_second: float
    speedup_vs_serial: float
    consistent: bool


#: Worker counts the E14 sweep covers by default.
E14_WORKER_SWEEP = (1, 2, 4)


def _community_csr_adjacency(num_communities: int, size: int) -> "CsrMatrix":
    """The E12 community instance as an interned 0/1 CSR adjacency.

    Same structure as :func:`_community_count_matrix` (disjoint ``size``-cliques,
    both orientations, no diagonal) with rows already in interned id order —
    the representation the counters' batch hooks hand to the SpGEMM kernel.
    """
    import numpy as np

    from repro.matmul.engine import CsrMatrix

    n = num_communities * size
    rows, cols = [], []
    for community in range(num_communities):
        base = community * size
        members = np.arange(base, base + size, dtype=np.int64)
        grid_rows = np.repeat(members, size)
        grid_cols = np.tile(members, size)
        keep = grid_rows != grid_cols
        rows.append(grid_rows[keep])
        cols.append(grid_cols[keep])
    all_rows = np.concatenate(rows)
    return CsrMatrix.from_coo(
        all_rows, np.concatenate(cols), np.ones(len(all_rows), dtype=np.int64), n, n
    )


def _community_clique_cycles(num_communities: int, size: int) -> int:
    """Closed-form 4-cycle count of disjoint ``size``-cliques: ``3 C(s, 4)``
    per clique (choose the 4 vertices; 3 distinct cyclic orderings)."""
    import math

    return num_communities * 3 * math.comb(size, 4)


def _e14_spgemm_rows(
    num_communities: int, size: int, workers: Sequence[int], repeats: int
) -> List[ShardScalingRow]:
    """Whole-product ``A @ A`` through the shard executor at each width."""
    import time

    import numpy as np

    from repro.matmul.engine import csr_spgemm
    from repro.matmul.sharding import ShardExecutor

    adjacency = _community_csr_adjacency(num_communities, size)
    reference, reference_work = csr_spgemm(adjacency, adjacency)
    instance = (
        f"communities(n={adjacency.num_rows},"
        f"density={adjacency.nnz / adjacency.num_rows ** 2:.3%})"
    )
    rows: List[ShardScalingRow] = []
    timings: Dict[int, float] = {}
    for count in workers:
        with ShardExecutor(workers=count) as executor:
            best = None
            for _ in range(max(repeats, 1)):
                started = time.perf_counter()
                product, work = executor.spgemm(adjacency, adjacency)
                elapsed = max(time.perf_counter() - started, 1e-9)
                best = elapsed if best is None else min(best, elapsed)
            if count == 1:
                # workers=1 short-circuits to the plain kernel: no shard
                # plan, no column compression — the honest serial baseline.
                shards, policy = 1, "serial"
            else:
                shards = executor.target_shards(reference_work, adjacency.num_rows)
                policy = executor.resolve_policy(reference_work, shards)
        consistent = (
            work == reference_work
            and np.array_equal(product.indptr, reference.indptr)
            and np.array_equal(product.cols, reference.cols)
            and np.array_equal(product.data, reference.data)
        )
        if not consistent:
            raise CounterStateError(
                f"E14: sharded product (workers={count}) diverged from the "
                f"serial kernel on {instance}"
            )
        timings[count] = best
        baseline = timings.get(1, best)
        rows.append(
            ShardScalingRow(
                kernel=f"spgemm:{instance}",
                variant=f"workers={count}",
                parameters=f"policy={policy} shards={shards} nnz={adjacency.nnz}",
                operations=reference_work,
                seconds=best,
                per_second=reference_work / best,
                speedup_vs_serial=baseline / best,
                consistent=True,
            )
        )
    return rows


def _e14_rebuild_rows(
    num_communities: int,
    size: int,
    workers: Sequence[int],
    churn_edges: int,
    repeats: int,
    seed: int,
) -> List[ShardScalingRow]:
    """The hhh22 masked CSR rebuild driven end-to-end through the engine.

    Each engine is built from an :class:`EngineConfig` carrying the
    ``workers`` option (exercising the spec/config forwarding path), loaded
    with the full community graph, then timed on churn batches: a seeded set
    of intra-community edges is deleted in one (untimed) batch and re-inserted
    in the next (timed) one.  Both batches clear the hook threshold, so every
    timed window is one full masked rebuild at standing graph size, and after
    each timed batch the graph is back to the complete community instance —
    where the count must equal the clique closed form.
    """
    import time

    from repro.graph.updates import EdgeUpdate

    rng = random.Random(seed)
    edges = []
    for community in range(num_communities):
        base = community * size
        edges.extend(
            (base + a, base + b) for a in range(size) for b in range(a + 1, size)
        )
    churn = rng.sample(edges, min(churn_edges, len(edges)))
    expected = _community_clique_cycles(num_communities, size)
    instance = f"communities(n={num_communities * size},m={len(edges)})"
    rows: List[ShardScalingRow] = []
    timings: Dict[int, float] = {}
    counts: Dict[int, int] = {}
    for count in workers:
        engine = FourCycleEngine(
            EngineConfig(
                counter="hhh22",
                workers=count,
                batch_size=len(edges),
                track_costs=False,
            )
        )
        engine.apply_batch([EdgeUpdate.insert(u, v) for u, v in edges])
        best = None
        for _ in range(max(repeats, 1)):
            engine.apply_batch([EdgeUpdate.delete(u, v) for u, v in churn])
            started = time.perf_counter()
            engine.apply_batch([EdgeUpdate.insert(u, v) for u, v in churn])
            elapsed = max(time.perf_counter() - started, 1e-9)
            best = elapsed if best is None else min(best, elapsed)
        counts[count] = engine.count
        timings[count] = best
        engine.counter.shard_executor.close()
        if engine.count != expected:
            raise CounterStateError(
                f"E14: hhh22 rebuild count {engine.count} (workers={count}) does "
                f"not match the clique closed form {expected} on {instance}"
            )
    if len(set(counts.values())) > 1:
        raise CounterStateError(f"E14: hhh22 counts diverged across workers: {counts}")
    operations = len(churn)
    for count in workers:
        rows.append(
            ShardScalingRow(
                kernel="hhh22-masked-rebuild",
                variant=f"workers={count}",
                parameters=f"{instance} churn={len(churn)} count={counts[count]}",
                operations=operations,
                seconds=timings[count],
                per_second=operations / timings[count],
                speedup_vs_serial=timings[workers[0]] / timings[count],
                consistent=True,
            )
        )
    return rows


def experiment_e14_shard_scaling(
    community_count: int = 128,
    community_size: int = 48,
    workers: Sequence[int] = E14_WORKER_SWEEP,
    churn_edges: int = 64,
    repeats: int = 3,
    seed: int = 0,
) -> List[ShardScalingRow]:
    """E14: shard-parallel SpGEMM and rebuild scaling on the community instance.

    Two kernel families, each swept over ``workers``:

    * **whole-product SpGEMM** — ``A @ A`` of the E12 community adjacency
      through :class:`~repro.matmul.sharding.ShardExecutor`; the ``workers=1``
      row is the plain serial kernel and every wider row must reproduce its
      CSR arrays bit for bit (a mismatch raises, it is never reported);
    * **hhh22 masked rebuild** — the full high/low-masked structure rebuild
      at standing graph size, driven through
      :class:`~repro.api.engine.FourCycleEngine` with the ``workers`` config
      option, counts pinned to the disjoint-clique closed form.

    Timing is min-of-``repeats`` applied to every width equally.  The
    ``workers=1`` baseline is honest serial execution — no shard plan, no
    column compression — so ``speedup_vs_serial`` measures everything the
    sharded path adds: per-shard column compression (smaller dense-scratch
    merges) plus whatever true parallelism the host's cores give the pool.
    """
    if not workers or list(workers)[0] != 1:
        raise ConfigurationError(
            f"E14 workers sweep must start at the serial baseline 1, got {workers!r}"
        )
    rows = _e14_spgemm_rows(community_count, community_size, workers, repeats)
    rows.extend(
        _e14_rebuild_rows(
            community_count, community_size, workers, churn_edges, repeats, seed
        )
    )
    return rows


# ---------------------------------------------------------------------------
# E15 — always-on service load
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ServiceLoadRow:
    """One traffic class of the service load run.

    ``p50_ms``/``p95_ms``/``p99_ms`` are per-request latency percentiles over
    every request of the class (connection-per-request, so a request's latency
    includes its TCP connect).  ``consistent`` records the end-of-run gates:
    zero failed requests, the served count bit-identical to a single-engine
    reference replay of the same updates, and a server-side from-scratch
    recount agreeing — a violation raises, it is never reported as a row.
    Timing percentiles are informational; CI gates on exactness only.
    """

    scenario: str
    clients: int
    requests: int
    operations: int
    seconds: float
    per_second: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    errors: int
    consistent: bool


def _latency_percentile(sorted_ms: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted latency sample."""
    if not sorted_ms:
        return 0.0
    import math

    rank = min(len(sorted_ms) - 1, max(0, math.ceil(fraction * len(sorted_ms)) - 1))
    return sorted_ms[rank]


def _e15_client_edges(client: int, block: int, updates: int) -> List:
    """The deterministic insert stream owned by one load client.

    Client ``i`` owns the vertex block ``[i * block, (i + 1) * block)`` and
    inserts the first ``updates`` pairs of its block's complete-graph
    enumeration.  Blocks are disjoint, so every interleaving of the per-client
    streams is a valid global stream and the final graph — hence the final
    4-cycle count — is independent of arrival order.  That is what makes the
    load run *exactness-checkable*: concurrency can reorder requests freely
    without changing the answer the gates pin.
    """
    from repro.graph.updates import EdgeUpdate

    base = client * block
    edges = []
    for a in range(block):
        for b in range(a + 1, block):
            edges.append(EdgeUpdate.insert(base + a, base + b))
            if len(edges) == updates:
                return edges
    raise ConfigurationError(
        f"E15: a block of {block} vertices holds {len(edges)} edges, fewer "
        f"than the {updates} updates each client must send; raise block"
    )


async def _e15_drive(
    clients: int,
    batches_per_client: int,
    batch_size: int,
    block: int,
    readers: int,
    reader_polls: int,
    counter: str,
    wal_path: str,
) -> Dict[str, object]:
    """Serve, flood, verify: the async body of E15 (one event loop, one core).

    The service and every client coroutine share the loop, so "concurrent
    clients" means concurrently open sockets with in-flight requests — the
    scheduling regime an always-on single-host deployment actually runs in.
    """
    import time

    from repro.io.serialization import edge_update_to_dict
    from repro.service.app import ReproService
    from repro.service.http import http_json_request

    service = ReproService(host="127.0.0.1", port=0)
    host, port = await service.start()
    tenant = "e15-load"
    ingest_ms: List[float] = []
    read_ms: List[float] = []
    errors: List[str] = []
    try:
        status, body = await http_json_request(
            host, port, "POST", "/engines",
            {
                "name": tenant,
                "config": {
                    "counter": counter,
                    "track_costs": False,
                    "wal_path": wal_path,
                },
            },
        )
        if status != 201:
            raise CounterStateError(f"E15: tenant creation failed: {status} {body}")

        async def ingest_client(index: int) -> None:
            edges = _e15_client_edges(index, block, batches_per_client * batch_size)
            payloads = [
                [edge_update_to_dict(update) for update in edges[i : i + batch_size]]
                for i in range(0, len(edges), batch_size)
            ]
            for window in payloads:
                started = time.perf_counter()
                status, body = await http_json_request(
                    host, port, "POST", f"/engines/{tenant}/updates",
                    {"updates": window},
                )
                ingest_ms.append((time.perf_counter() - started) * 1e3)
                if status != 200:
                    errors.append(f"ingest[{index}]: {status} {body}")

        async def reader_client(index: int) -> None:
            for _ in range(reader_polls):
                started = time.perf_counter()
                status, body = await http_json_request(
                    host, port, "GET", f"/engines/{tenant}/counts"
                )
                read_ms.append((time.perf_counter() - started) * 1e3)
                if status != 200:
                    errors.append(f"read[{index}]: {status} {body}")

        started = time.perf_counter()
        await _e15_gather_all(
            [ingest_client(index) for index in range(clients)]
            + [reader_client(index) for index in range(readers)]
        )
        elapsed = max(time.perf_counter() - started, 1e-9)

        status, counts = await http_json_request(
            host, port, "GET", f"/engines/{tenant}/counts"
        )
        if status != 200:
            raise CounterStateError(f"E15: final counts read failed: {status} {counts}")
        status, verdict = await http_json_request(
            host, port, "GET", f"/engines/{tenant}/consistency"
        )
        if status != 200:
            raise CounterStateError(f"E15: consistency check failed: {status} {verdict}")
    finally:
        await service.stop()
    return {
        "elapsed": elapsed,
        "ingest_ms": sorted(ingest_ms),
        "read_ms": sorted(read_ms),
        "errors": errors,
        "counts": counts,
        "consistent": bool(verdict.get("consistent")),
    }


async def _e15_gather_all(coroutines: List) -> None:
    """``gather`` that surfaces the first failure after letting all finish."""
    import asyncio

    results = await asyncio.gather(*coroutines, return_exceptions=True)
    for result in results:
        if isinstance(result, BaseException):
            raise result


def experiment_e15_service_load(
    clients: int = 1200,
    batches_per_client: int = 2,
    batch_size: int = 8,
    block: int = 8,
    readers: int = 64,
    reader_polls: int = 4,
    counter: str = "wedge",
    wal_dir: Optional[str] = None,
) -> List[ServiceLoadRow]:
    """E15: concurrent HTTP load against one durable served engine.

    ``clients`` ingestion clients each send ``batches_per_client`` windows of
    ``batch_size`` inserts over their own disjoint vertex block (connection
    per request), while ``readers`` polling clients read the published counts
    view concurrently.  The engine is durable (WAL-attached) throughout, so
    every accepted window was logged and fsynced before its response.

    End-of-run gates (all raise, none are reported as data):

    * every request succeeded;
    * the served final count is bit-identical to the reference: a fresh
      engine replaying one client's block, times the number of clients
      (blocks are disjoint and identical, and 4-cycles never cross blocks);
    * ``updates_processed`` equals the number of updates sent, and the WAL
      cursor (``last_durable_seq``) covers every logged record;
    * a server-side from-scratch recount agrees (``consistent: true``).
    """
    import asyncio
    import tempfile

    if clients < 1:
        raise ConfigurationError(f"E15 needs at least one client, got {clients}")
    updates_per_client = batches_per_client * batch_size
    total_updates = clients * updates_per_client

    with tempfile.TemporaryDirectory(prefix="repro-e15-") as scratch:
        wal_path = f"{wal_dir or scratch}/e15-load.wal"
        outcome = asyncio.run(
            _e15_drive(
                clients,
                batches_per_client,
                batch_size,
                block,
                readers,
                reader_polls,
                counter,
                wal_path,
            )
        )

    if outcome["errors"]:
        sample = "; ".join(outcome["errors"][:3])
        raise CounterStateError(
            f"E15: {len(outcome['errors'])} of the load requests failed "
            f"(first: {sample})"
        )
    counts = outcome["counts"]
    # Every client inserts the same pattern into its own disjoint block, and
    # 4-cycles never cross blocks, so the global reference count is one
    # block's replayed count times the number of clients (the per-block
    # analogue of E14's clique closed form).
    reference = FourCycleEngine(
        EngineConfig(counter=counter, batch_size=updates_per_client, track_costs=False)
    )
    reference.apply_batch(_e15_client_edges(0, block, updates_per_client))
    expected = clients * reference.count
    if counts["count"] != expected:
        raise CounterStateError(
            f"E15: served count {counts['count']} does not match the reference "
            f"replay ({clients} blocks x {reference.count} = {expected})"
        )
    if counts["updates_processed"] != total_updates:
        raise CounterStateError(
            f"E15: served engine processed {counts['updates_processed']} updates, "
            f"expected {total_updates}"
        )
    if counts["last_durable_seq"] < 0:
        raise CounterStateError(
            "E15: the served engine was not durable (no WAL cursor); the load "
            "run must exercise the logged ingestion path"
        )
    if not outcome["consistent"]:
        raise CounterStateError(
            "E15: server-side from-scratch recount disagreed with the "
            "maintained count"
        )

    elapsed = outcome["elapsed"]
    rows = [
        ServiceLoadRow(
            scenario="ingest",
            clients=clients,
            requests=len(outcome["ingest_ms"]),
            operations=total_updates,
            seconds=elapsed,
            per_second=total_updates / elapsed,
            p50_ms=_latency_percentile(outcome["ingest_ms"], 0.50),
            p95_ms=_latency_percentile(outcome["ingest_ms"], 0.95),
            p99_ms=_latency_percentile(outcome["ingest_ms"], 0.99),
            errors=0,
            consistent=True,
        )
    ]
    if readers > 0:
        rows.append(
            ServiceLoadRow(
                scenario="read-while-ingest",
                clients=readers,
                requests=len(outcome["read_ms"]),
                operations=len(outcome["read_ms"]),
                seconds=elapsed,
                per_second=len(outcome["read_ms"]) / elapsed,
                p50_ms=_latency_percentile(outcome["read_ms"], 0.50),
                p95_ms=_latency_percentile(outcome["read_ms"], 0.95),
                p99_ms=_latency_percentile(outcome["read_ms"], 0.99),
                errors=0,
                consistent=True,
            )
        )
    return rows
