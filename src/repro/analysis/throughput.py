"""Throughput experiments E10–E14: one row type, two race loops.

Each experiment times the *variants* of one or more *kernels*, proves every
variant exact, and reports its speed-up over the kernel's first variant.
Two loops do all of the timing and checking:

* :func:`race_engines` replays one update stream through fresh engines per
  :class:`~repro.api.EngineConfig` variant: E10's batch sizes, E11's
  per-update/batched pair and E12's forced and chosen wedge batch paths.
* :func:`race_products` keeps the minimum of ``repeats`` calls of each
  product variant: E12's dict/CSR/dense products and E14's ``workers``
  sweeps of :meth:`~repro.matmul.sharding.ShardExecutor.spgemm` and of the
  hhh22 masked rebuild.

Both raise :class:`~repro.exceptions.CounterStateError` naming the kernel and
the variant when a check fails, so ``consistent`` is true on every
:class:`ThroughputRow` they return.  Timing is reported; only the benchmark
wrappers assert wall-clock floors on it.
"""

from __future__ import annotations

import functools
import math
import operator
import random
import time
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.instances import (
    community_csr_adjacency,
    community_edges,
    product_instances,
    wedge_churn_stream,
)
from repro.api import EngineConfig, FourCycleEngine, available_counter_names
from repro.exceptions import ConfigurationError, CounterStateError
from repro.graph.updates import EdgeUpdate, UpdateStream
from repro.instrumentation.harness import time_replay
from repro.kernels import CsrMatrix, exact_integer_matmul
from repro.matmul.engine import (
    CountMatrix,
    aligned_left_operand,
    csr_spgemm,
    multiply,
    right_operand,
)
from repro.matmul.sharding import ShardExecutor
from repro.workloads.generators import erdos_renyi_stream


@dataclass(frozen=True)
class ThroughputRow:
    """Throughput of one variant of one kernel.

    ``operations`` is what every variant of the kernel processes (stream
    updates in the engine race, the reference's work in the product race),
    and ``per_second`` is ``operations / seconds``.  ``speedup`` is the
    kernel's first variant's seconds over this variant's.  ``consistent``
    records the exactness check; a variant that fails it raises instead of
    returning a row, so CI gates on it and never on timing.
    """

    kernel: str
    variant: str
    parameters: str
    operations: int
    seconds: float
    per_second: float
    speedup: float
    consistent: bool


def _rows(kernel: str, measured: Sequence[Tuple[str, str, int, float]]) -> List[ThroughputRow]:
    """One row per ``(variant, parameters, operations, seconds)``."""
    baseline = measured[0][3]
    return [
        ThroughputRow(
            kernel=kernel,
            variant=variant,
            parameters=parameters,
            operations=operations,
            seconds=seconds,
            per_second=operations / seconds,
            speedup=baseline / seconds,
            consistent=True,
        )
        for variant, parameters, operations, seconds in measured
    ]


def force_batch_path(counter, path: Optional[str]):
    """Make ``counter`` take ``path`` ("replay" or "rebuild") on every batch
    window, by patching the base class's cost decision on this one counter;
    ``None`` leaves the decision alone.  The program has no setting for the
    path: an experiment or a test that runs one path on purpose forces it
    here.  Returns the counter."""
    if path not in (None, "replay", "rebuild"):
        raise ConfigurationError(f"unknown batch path {path!r}")
    if path is not None:
        counter._replay_is_cheaper = lambda batch: path == "replay"
    return counter


def race_engines(
    kernel: str,
    stream: UpdateStream,
    variants: Sequence[Tuple[str, EngineConfig, Optional[str]]],
    parameters: str,
    warmup: int = 0,
    repeats: int = 1,
) -> List[ThroughputRow]:
    """Replay ``stream`` through fresh engines per ``(variant, config,
    path)``, each forced to ``path`` by :func:`force_batch_path` (``None``
    lets the counter choose), keeping the fastest of ``repeats`` replays as
    :func:`race_products` does.

    Each replay is timed by :func:`~repro.instrumentation.harness.time_replay`
    (normalization included, the engine's event dispatch not).  A positive
    ``warmup`` first replays the stream's first ``warmup`` updates, untimed,
    through a throwaway engine of the same config, so a fresh process pays
    its first-call costs outside the timing.  Every engine's count must pass
    a from-scratch recount and equal the first variant's.
    """
    measured: List[Tuple[str, str, int, float]] = []
    first_count = None
    for variant, config, path in variants:
        if warmup:
            warm = FourCycleEngine(config)
            force_batch_path(warm.counter, path)
            time_replay(warm, stream[:warmup])
        seconds = math.inf
        for _ in range(max(repeats, 1)):
            engine = FourCycleEngine(config)
            force_batch_path(engine.counter, path)
            seconds = min(seconds, max(time_replay(engine, stream), 1e-9))
            if not engine.is_consistent():
                raise CounterStateError(
                    f"{kernel}: variant {variant!r} is inconsistent with a "
                    f"from-scratch recount (count={engine.count})"
                )
        if first_count is None:
            first_count = engine.count
        elif engine.count != first_count:
            raise CounterStateError(
                f"{kernel}: variant {variant!r} ended at count {engine.count}, "
                f"variant {measured[0][0]!r} at {first_count}"
            )
        measured.append(
            (variant, f"{parameters} batch={config.batch_size}", len(stream), seconds)
        )
    return _rows(kernel, measured)


#: One product-race variant: its name, its ``parameters`` column, a ``run``
#: callable returning ``(result, work)``, and a ``prepare`` callable (or None)
#: that runs untimed before every timed call of ``run``.
ProductVariant = Tuple[
    str, str, Callable[[], Tuple[object, Optional[int]]], Optional[Callable[[], object]]
]


def race_products(
    kernel: str,
    variants: Iterable[ProductVariant],
    repeats: int = 1,
    reference: Optional[Tuple[object, int]] = None,
    same: Callable[[object, object], bool] = operator.eq,
) -> List[ThroughputRow]:
    """Time each variant by the minimum of ``repeats`` calls and check it.

    Min-of-N applies to every variant equally: it removes scheduler noise
    without favouring any kernel.  Every variant's ``(result, work)`` must
    equal ``reference``, by default the first variant's: the results under
    ``same``, the work exactly, except that a variant reporting ``None`` work
    (dense BLAS counts dense multiply-adds, not expansion work) is checked on
    its result alone.  Every row's ``operations`` is the reference work.
    ``variants`` is consumed lazily, so a generator can hold one variant's
    resources (a shard pool, an engine) only while that variant runs.
    """
    measured: List[Tuple[str, str, int, float]] = []
    against = "the reference"
    for variant, parameters, run, prepare in variants:
        best = math.inf
        for _ in range(max(repeats, 1)):
            if prepare is not None:
                prepare()
            started = time.perf_counter()
            result, work = run()
            best = min(best, time.perf_counter() - started)
        if reference is None:
            reference, against = (result, work), f"variant {variant!r}"
        elif not same(result, reference[0]) or work not in (None, reference[1]):
            raise CounterStateError(f"{kernel}: variant {variant!r} diverged from {against}")
        measured.append((variant, parameters, reference[1], max(best, 1e-9)))
    return _rows(kernel, measured)


# ---------------------------------------------------------------------------
# E10 — batched-pipeline throughput
# ---------------------------------------------------------------------------
def experiment_e10_batch_throughput(
    num_vertices: int = 24,
    num_updates: int = 1280,
    batch_sizes: Sequence[int] = (1, 8, 64, 256),
    counters: Optional[Sequence[str]] = None,
    seed: int = 0,
) -> List[ThroughputRow]:
    """E10: end-to-end updates/sec of the batch pipeline versus batch size.

    Replays the standard workload — a dense Erdős–Rényi churn stream whose
    live edge count hovers near the complete graph, the regime where
    per-update work is degree-bound — through every counter once per batch
    size: size 1 uses the per-update ``apply`` path, larger sizes the
    ``apply_batch`` pipeline.  One kernel per counter, one ``batch=<size>``
    variant per batch size; speed-ups are over the first size of the sweep.
    All runs of a counter must end at the same recount-verified count — the
    batch/unbatch exactness contract, measured rather than assumed.
    """
    stream = erdos_renyi_stream(num_vertices, num_updates, seed=seed)
    rows: List[ThroughputRow] = []
    for name in sorted(counters if counters is not None else available_counter_names()):
        variants = [
            (f"batch={size}", EngineConfig(counter=name, batch_size=size), None)
            for size in batch_sizes
        ]
        rows.extend(
            race_engines(name, stream, variants, f"n={num_vertices} updates={num_updates}")
        )
    return rows


# ---------------------------------------------------------------------------
# E11 — the batch paths against the per-update paths
# ---------------------------------------------------------------------------
def experiment_e11_kernel_throughput(
    num_vertices: int = 32,
    num_updates: int = 2560,
    batch_size: int = 256,
    counters: Sequence[str] = ("wedge", "hhh22", "assadi-shah"),
    seed: int = 0,
) -> List[ThroughputRow]:
    """E11: the counters' batch paths versus their per-update paths.

    The standard dense churn stream is replayed through each counter twice:
    one update at a time (variant ``per-update``), and in windows of
    ``batch_size`` (``batched``: the windows that fill the graph rebuild, the
    rest replay, as each counter's prices choose).  Each
    variant's time is the fastest of three replays (the batched wedge replay
    takes about 3.5 ms, short enough for one stall to sink it), after one
    untimed replay of the stream's first ``batch_size`` updates through a
    throwaway engine of the same config.  Both must end at bit-identical,
    recount-verified counts.
    """
    stream = erdos_renyi_stream(num_vertices, num_updates, seed=seed)
    rows: List[ThroughputRow] = []
    for name in counters:
        variants = [
            ("per-update", EngineConfig(counter=name), None),
            ("batched", EngineConfig(counter=name, batch_size=batch_size), None),
        ]
        rows.extend(
            race_engines(
                f"{name}-updates",
                stream,
                variants,
                f"n={num_vertices} updates={num_updates}",
                warmup=batch_size,
                repeats=3,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# E12 — sparse-vs-dense products and the wedge batch paths
# ---------------------------------------------------------------------------
#: The E12 product variants, in race order: the dict baseline first.
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


def _dense_result(left: CountMatrix, right: CountMatrix) -> tuple[CountMatrix, None]:
    """:func:`dense_product`'s result alone: its multiply-add count is not
    expansion work, so the product race checks the result only."""
    return dense_product(left, right)[0], None


_E12_PRODUCTS = {"dict": dict_product, "csr": multiply, "dense": _dense_result}


def experiment_e12_spgemm_backends(
    community_count: int = 128,
    community_size: int = 48,
    uniform_dimension: int = 512,
    dense_dimension: int = 192,
    wedge_vertices: int = 2048,
    wedge_base_edges: int = 12288,
    wedge_churn_updates: int = 2560,
    wedge_batch_size: int = 128,
    product_repeats: int = 3,
    seed: int = 0,
) -> List[ThroughputRow]:
    """E12: CSR SpGEMM versus the dict baseline and dense BLAS, plus the
    wedge counter's chosen batch path versus its two forced paths.

    Two families:

    * **Products** — each instance of
      :func:`~repro.analysis.instances.product_instances` is multiplied by
      :func:`dict_product`, :func:`~repro.matmul.engine.multiply` (``csr``)
      and :func:`dense_product`, the minimum of ``product_repeats`` runs
      each.  Every product must equal the dict baseline's, and the CSR
      expansion work must equal the dict baseline's.  The interned CSR
      snapshots are warmed before timing: they are shared mutation-keyed
      state (built at most once per matrix) and the dict baseline never
      uses them.
    * **Wedge batch paths** — a large random graph is built in bulk and then
      churned with small delete/insert windows
      (:func:`~repro.analysis.instances.wedge_churn_stream`: a standing
      graph with ``wedge_base_edges`` edges, batches touching a small
      fraction of it), replayed with every window forced to the full
      rebuild, forced to the update-by-update replay
      (:func:`force_batch_path`), and on the path the counter's prices
      choose (``auto``); every variant must end at the full rebuild's
      recount-verified count.
    """
    rows: List[ThroughputRow] = []
    for instance, left, right in product_instances(
        community_count, community_size, uniform_dimension, dense_dimension, seed
    ):
        left.csr()
        right.csr()
        parameters = f"nnz={left.nnz}+{right.nnz}"
        variants = [
            (name, parameters, functools.partial(_E12_PRODUCTS[name], left, right), None)
            for name in E12_PRODUCT_VARIANTS
        ]
        rows.extend(race_products(f"product:{instance}", variants, product_repeats))
    stream = wedge_churn_stream(wedge_vertices, wedge_base_edges, wedge_churn_updates, seed)
    config = EngineConfig(counter="wedge", batch_size=wedge_batch_size, track_costs=False)
    variants = [
        ("full-rebuild", config, "rebuild"), ("replay", config, "replay"), ("auto", config, None)
    ]
    rows.extend(
        race_engines(
            "wedge-batch-hook",
            stream,
            variants,
            f"n={wedge_vertices} base_m={wedge_base_edges} churn={wedge_churn_updates}",
        )
    )
    return rows


# ---------------------------------------------------------------------------
# E14 — shard-parallel SpGEMM and rebuild scaling
# ---------------------------------------------------------------------------
def _same_csr(left: CsrMatrix, right: CsrMatrix) -> bool:
    """Bit-identity of two CSR matrices: shape and all three arrays."""
    return left.num_cols == right.num_cols and all(
        np.array_equal(getattr(left, name), getattr(right, name))
        for name in ("indptr", "cols", "data")
    )


def _e14_spgemm_variants(
    adjacency: CsrMatrix, work: int, workers: Sequence[int]
) -> Iterable[ProductVariant]:
    """``A @ A`` through a :class:`ShardExecutor` of each width, its pool
    open only while its variant runs."""
    for count in workers:
        with ShardExecutor(workers=count) as executor:
            if count == 1:
                # workers=1 short-circuits to the plain kernel: no shard
                # plan, no column compression — the honest serial baseline.
                shards, policy = 1, "serial"
            else:
                shards = executor.target_shards(work, adjacency.num_rows)
                policy = executor.resolve_policy(work, shards)
            yield (
                f"workers={count}",
                f"policy={policy} shards={shards} nnz={adjacency.nnz}",
                functools.partial(executor.spgemm, adjacency, adjacency),
                None,
            )


def _e14_rebuild_variants(
    edges: Sequence[Tuple[int, int]],
    churn: Sequence[Tuple[int, int]],
    parameters: str,
    workers: Sequence[int],
) -> Iterable[ProductVariant]:
    """The hhh22 masked rebuild of each width, driven through the engine.

    Each engine is built from an :class:`EngineConfig` carrying ``workers``
    (exercising the spec/config forwarding path) and loaded with the whole
    community graph.  A timed call re-inserts the churn edges that its
    untimed ``prepare`` deleted.  Every engine is forced to the rebuild
    (:func:`force_batch_path`; its prices would replay a window this small
    against the graph), so every timed window is one full masked rebuild at
    standing graph size.
    """
    deletes = [EdgeUpdate.delete(u, v) for u, v in churn]
    inserts = [EdgeUpdate.insert(u, v) for u, v in churn]
    for count in workers:
        engine = FourCycleEngine(
            EngineConfig(
                counter="hhh22", workers=count, batch_size=len(edges), track_costs=False
            )
        )
        force_batch_path(engine.counter, "rebuild")
        engine.apply_batch([EdgeUpdate.insert(u, v) for u, v in edges])
        try:
            yield (
                f"workers={count}",
                parameters,
                lambda: (engine.apply_batch(inserts), len(inserts)),
                lambda: engine.apply_batch(deletes),
            )
        finally:
            engine.counter.shard_executor.close()


def experiment_e14_shard_scaling(
    community_count: int = 128,
    community_size: int = 48,
    workers: Sequence[int] = (1, 2, 4),
    churn_edges: int = 64,
    repeats: int = 3,
    seed: int = 0,
) -> List[ThroughputRow]:
    """E14: shard-parallel SpGEMM and rebuild scaling on the community instance.

    Two kernels, each swept over ``workers`` and timed by the minimum of
    ``repeats`` runs:

    * **whole-product SpGEMM** — ``A @ A`` of the E12 community adjacency
      through :class:`~repro.matmul.sharding.ShardExecutor`; every width
      must reproduce the serial ``csr_spgemm`` CSR arrays and work bit for
      bit;
    * **hhh22 masked rebuild** — the full high/low-masked structure rebuild
      at standing graph size, driven through
      :class:`~repro.api.engine.FourCycleEngine` with the ``workers`` config
      option; after every timed window the graph is the whole community
      instance again, where the count must equal the disjoint-clique closed
      form ``3 C(s, 4)`` per clique.

    The ``workers=1`` baseline is honest serial execution — no shard plan, no
    column compression — so ``speedup`` measures everything the sharded path
    adds: per-shard column compression (smaller dense-scratch merges) plus
    whatever true parallelism the host's cores give the pool.
    """
    if not workers or list(workers)[0] != 1:
        raise ConfigurationError(
            f"E14 workers sweep must start at the serial baseline 1, got {workers!r}"
        )
    adjacency = community_csr_adjacency(community_count, community_size)
    reference = csr_spgemm(adjacency, adjacency)
    instance = (
        f"communities(n={adjacency.num_rows},"
        f"density={adjacency.nnz / adjacency.num_rows ** 2:.3%})"
    )
    rows = race_products(
        f"spgemm:{instance}",
        _e14_spgemm_variants(adjacency, reference[1], workers),
        repeats,
        reference=reference,
        same=_same_csr,
    )
    edges = community_edges(community_count, community_size)
    churn = random.Random(seed).sample(edges, min(churn_edges, len(edges)))
    expected = community_count * 3 * math.comb(community_size, 4)
    parameters = (
        f"communities(n={community_count * community_size},m={len(edges)}) "
        f"churn={len(churn)} count={expected}"
    )
    rows.extend(
        race_products(
            "hhh22-masked-rebuild",
            _e14_rebuild_variants(edges, churn, parameters, workers),
            repeats,
            reference=(expected, len(churn)),
        )
    )
    return rows
