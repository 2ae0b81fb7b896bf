"""Dynamic 3-path oracles over a chain of three relations.

The equivalent problem the paper solves (Section 2.2): maintain three binary
relations forming a chain ``L1 -A-> L2 -B-> L3 -C-> L4`` under tuple
insertions/deletions, and answer queries ``(u in L1, v in L4)`` asking for the
number of layered 3-paths from ``u`` to ``v`` — i.e. the entry
``(A · B · C)[u, v]``.  Both the layered 4-cycle counter (four oracle copies,
one per query relation) and the general-graph counters (one oracle via the
Section 8 reduction) are thin wrappers around such an oracle.

This module defines:

* :class:`ThreePathOracle` — the oracle interface plus the shared relation
  storage (forward/backward adjacency per chain position).
* :class:`NaiveThreePathOracle` — answers queries by neighborhood enumeration;
  the simplest exact oracle, used for cross-validation.
* :class:`PhaseThreePathOracle` — the phase + fast-matrix-multiplication
  decomposition at the core of the paper's main algorithm: old-phase products
  are precomputed by matrix multiplication spread over the phase (exact
  row-block SpGEMM standing in for the paper's fast matrix multiplication),
  and queries combine them with the signed delta edges of the recent phases.
* :class:`OracleBackedCounter` — a general-graph 4-cycle counter driven by any
  oracle through the Section 8 reduction.
"""

from __future__ import annotations

import abc
import math
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Set

import numpy as np

from repro.core.base import DynamicFourCycleCounter
from repro.exceptions import ConfigurationError, InvalidUpdateError
from repro.graph.static_counts import four_cycles_from_adjacency, four_cycles_from_csr_square
from repro.instrumentation.cost_model import CostModel
from repro.kernels import CsrMatrix, exact_integer_matmul
from repro.matmul.engine import CountMatrix, CountMatrixCSR, csr_spgemm, spgemm_work
from repro.matmul.scheduler import ChainProductJob, PhaseScheduler
from repro.theory.parameters import solve_main_parameters

if TYPE_CHECKING:  # imported lazily to avoid a runtime cycle
    from repro.graph.dynamic_graph import DynamicGraph

Vertex = Hashable

#: Chain positions: 1 connects L1 to L2, 2 connects L2 to L3, 3 connects L3 to L4.
CHAIN_POSITIONS = (1, 2, 3)


class _ChainRelation:
    """Forward/backward adjacency for one position of the chain."""

    __slots__ = ("forward", "backward", "size")

    def __init__(self) -> None:
        self.forward: Dict[Vertex, Set[Vertex]] = {}
        self.backward: Dict[Vertex, Set[Vertex]] = {}
        self.size = 0

    def has(self, left: Vertex, right: Vertex) -> bool:
        neighbors = self.forward.get(left)
        return neighbors is not None and right in neighbors

    def apply(self, left: Vertex, right: Vertex, sign: int) -> None:
        if sign == +1:
            if self.has(left, right):
                raise InvalidUpdateError(
                    f"tuple ({left!r}, {right!r}) is already present in the chain relation"
                )
            self.forward.setdefault(left, set()).add(right)
            self.backward.setdefault(right, set()).add(left)
            self.size += 1
        elif sign == -1:
            if not self.has(left, right):
                raise InvalidUpdateError(
                    f"tuple ({left!r}, {right!r}) is not present in the chain relation"
                )
            self.forward[left].discard(right)
            self.backward[right].discard(left)
            self.size -= 1
        else:
            raise InvalidUpdateError(f"sign must be +1 or -1, got {sign}")

    def to_count_matrix(self) -> CountMatrix:
        matrix = CountMatrix()
        for left, rights in self.forward.items():
            for right in rights:
                matrix.add(left, right, 1)
        return matrix

    def snapshot(self) -> CountMatrixCSR:
        """The relation as a read-only 0/1 matrix, exported straight from the
        adjacency sets (one pass over the tuples, no label-keyed matrix)."""
        forward = self.forward
        row_order = [left for left, rights in forward.items() if rights]
        col_order = [right for right, lefts in self.backward.items() if lefts]
        col_index = {label: position for position, label in enumerate(col_order)}
        indptr = np.zeros(len(row_order) + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter((len(forward[left]) for left in row_order), np.int64, len(row_order)),
            out=indptr[1:],
        )
        col_ids = np.fromiter(
            (col_index[right] for left in row_order for right in forward[left]),
            np.int64,
            self.size,
        )
        return CountMatrixCSR(
            version=0,
            row_order=row_order,
            col_order=col_order,
            indptr=indptr,
            col_ids=col_ids,
            data=np.ones(self.size, dtype=np.int64),
        )


class ThreePathOracle(abc.ABC):
    """Interface and shared state of dynamic 3-path oracles."""

    #: Short machine-readable name.
    name: str = "abstract-oracle"

    def __init__(self, cost: Optional[CostModel] = None) -> None:
        self.cost = cost if cost is not None else CostModel()
        self._relations: Dict[int, _ChainRelation] = {
            position: _ChainRelation() for position in CHAIN_POSITIONS
        }
        self._updates_processed = 0
        #: Shard-parallel SpGEMM executor for the bulk-rebuild products;
        #: installed by :class:`OracleBackedCounter` (which owns the worker
        #: configuration).  ``None`` means the plain serial kernel.
        self.shard_executor = None

    def _spgemm(self, left: CsrMatrix, right: CsrMatrix) -> tuple[CsrMatrix, int]:
        """``left @ right`` through the counter-installed shard executor,
        falling back to the serial kernel when none is installed.  Both paths
        are bit-identical; the executor is pure performance."""
        if self.shard_executor is None:
            return csr_spgemm(left, right)
        return self.shard_executor.spgemm(left, right)

    # -- shared relation access -------------------------------------------------
    def relation(self, position: int) -> _ChainRelation:
        rel = self._relations.get(position)
        if rel is None:
            raise ConfigurationError(f"chain position must be 1, 2 or 3, got {position}")
        return rel

    @property
    def num_edges(self) -> int:
        """Total number of tuples over the three chain relations."""
        return sum(rel.size for rel in self._relations.values())

    @property
    def updates_processed(self) -> int:
        return self._updates_processed

    # -- update / query -----------------------------------------------------------
    def update(self, position: int, left: Vertex, right: Vertex, sign: int) -> None:
        """Apply a signed tuple update at the given chain position."""
        relation = self.relation(position)
        self._before_relation_update(position, left, right, sign)
        relation.apply(left, right, sign)
        self._after_relation_update(position, left, right, sign)
        self._updates_processed += 1

    def insert(self, position: int, left: Vertex, right: Vertex) -> None:
        self.update(position, left, right, +1)

    def delete(self, position: int, left: Vertex, right: Vertex) -> None:
        self.update(position, left, right, -1)

    # -- batch deferral -----------------------------------------------------------
    def begin_batch(self) -> None:
        """Start of a batched update window: oracles may defer amortized
        bookkeeping (phase rebuilds, class transitions) until
        :meth:`end_batch`.  The default does nothing — plain oracles have no
        deferrable work."""

    def end_batch(self) -> None:
        """End of a batched update window: flush any deferred bookkeeping.
        Exactness never depends on these checks running per update, only the
        amortized cost accounting does, so deferring them to the boundary is
        safe."""

    def rebuild_from_mirrored_graph(
        self,
        graph: "DynamicGraph",
        matrix: np.ndarray,
        labels: List[Vertex],
        square: Optional[np.ndarray] = None,
    ) -> None:
        """Reset the oracle to mirror ``graph`` under the Section 8 reduction.

        The batched fast path of :class:`OracleBackedCounter` applies a whole
        window to the graph in bulk and then calls this instead of replaying
        the per-tuple hooks: all three chain relations are rebuilt to equal
        the graph's adjacency (both orientations), and subclasses extend it to
        rebuild their auxiliary structures with vectorized kernels over the
        interned adjacency ``matrix`` (in ``labels`` order; ``square`` is
        ``matrix @ matrix`` when the caller already has it).  Only valid in
        the mirrored setting where ``A = B = C =`` the adjacency matrix.
        """
        del matrix, labels, square  # vectorized kernels live in subclasses
        self._rebuild_mirrored_relations(graph)

    def rebuild_from_mirrored_csr(
        self,
        graph: "DynamicGraph",
        adjacency: CsrMatrix,
        labels: List[Vertex],
        square: CsrMatrix,
    ) -> None:
        """Sparse twin of :meth:`rebuild_from_mirrored_graph`.

        ``adjacency`` is the graph's interned CSR adjacency and ``square`` its
        SpGEMM self-product; subclasses rebuild their auxiliary structures
        from them without ever materializing a dense ``n x n`` array — the
        path the density-aware dispatcher takes on sparse graphs.
        """
        del adjacency, labels, square  # sparse kernels live in subclasses
        self._rebuild_mirrored_relations(graph)

    def _rebuild_mirrored_relations(self, graph: "DynamicGraph") -> None:
        """Reset all three chain relations to mirror the graph's adjacency."""
        for position in CHAIN_POSITIONS:
            relation = _ChainRelation()
            # Forward and backward maps (and each relation) need independent
            # sets: later per-tuple updates mutate them one direction and one
            # relation at a time.
            relation.forward = {
                vertex: set(graph.neighbors(vertex)) for vertex in graph.vertices()
            }
            relation.backward = {
                vertex: set(graph.neighbors(vertex)) for vertex in graph.vertices()
            }
            relation.size = 2 * graph.num_edges
            self._relations[position] = relation

    @abc.abstractmethod
    def count_three_paths(self, u: Vertex, v: Vertex) -> int:
        """The number of chain 3-paths from ``u`` (L1) to ``v`` (L4)."""

    # -- subclass hooks -------------------------------------------------------------
    def _before_relation_update(self, position: int, left: Vertex, right: Vertex, sign: int) -> None:
        """Hook called before the relation storage changes."""

    def _after_relation_update(self, position: int, left: Vertex, right: Vertex, sign: int) -> None:
        """Hook called after the relation storage changed."""

    # -- validation helpers -----------------------------------------------------------
    def count_three_paths_naive(self, u: Vertex, v: Vertex) -> int:
        """Reference enumeration used by tests to validate any oracle."""
        first = self.relation(1).forward.get(u, _EMPTY_SET)
        third = self.relation(3).backward.get(v, _EMPTY_SET)
        second_forward = self.relation(2).forward
        total = 0
        for x in first:
            middle = second_forward.get(x, _EMPTY_SET)
            if len(middle) <= len(third):
                total += sum(1 for y in middle if y in third)
            else:
                total += sum(1 for y in third if y in middle)
        return total

    def __repr__(self) -> str:
        return f"{type(self).__name__}(edges={self.num_edges}, updates={self._updates_processed})"


class NaiveThreePathOracle(ThreePathOracle):
    """Answers queries by direct neighborhood enumeration (no extra state)."""

    name = "naive-oracle"

    def count_three_paths(self, u: Vertex, v: Vertex) -> int:
        first = self.relation(1).forward.get(u, _EMPTY_SET)
        third = self.relation(3).backward.get(v, _EMPTY_SET)
        second_forward = self.relation(2).forward
        total = 0
        for x in first:
            self.cost.charge("neighborhood_scan")
            middle = second_forward.get(x, _EMPTY_SET)
            smaller, larger = (middle, third) if len(middle) <= len(third) else (third, middle)
            for y in smaller:
                self.cost.charge("adjacency_probe")
                if y in larger:
                    total += 1
        return total


class PhaseThreePathOracle(ThreePathOracle):
    """Phase + fast-matrix-multiplication oracle (the paper's core mechanism).

    The update stream is split into *phases*.  At the start of each phase the
    current relations are snapshotted and the products ``A_o · B_o``,
    ``B_o · C_o`` and ``A_o · B_o · C_o`` of that snapshot are submitted to a
    :class:`~repro.matmul.scheduler.PhaseScheduler`, which advances them by a
    bounded amount of work on every update so the products are ready by the end
    of the phase (Section 5.1 / Algorithm 2, Step 2).  Each advance computes a
    block of product rows with one exact SpGEMM call
    (:class:`~repro.matmul.scheduler.IncrementalMatrixProduct`); the paper's
    fast matrix multiplication appears only through the exponent models of
    :mod:`repro.theory.omega`.  Snapshots and products stay positional
    (:class:`~repro.matmul.engine.CountMatrixCSR`) from the relation export to
    the query, which builds a product row's dict only when it first reads
    that row.  Consequently the
    products available during a phase describe the snapshot taken one phase
    earlier, and the "new" edges span at most the current and previous phase —
    exactly the paper's ``P_new = P_{j+1} ∪ P_j``.

    A query ``(u, v)`` expands ``(A_o + dA)(B_o + dB)(C_o + dC)[u, v]`` exactly:

    * ``A_o B_o C_o`` — one lookup in the precomputed triple product;
    * ``dA · (B_o C_o)`` — iterate the new ``A``-edges incident to ``u``;
    * ``(A_o B_o) · dC`` — iterate the new ``C``-edges incident to ``v``;
    * ``dA · B_o · dC`` — iterate the new ``A``/``C`` edges at both endpoints;
    * ``A · dB · C`` — iterate the new ``B``-edges (at most two phases' worth)
      with O(1) adjacency probes; this is the lazy evaluation the paper applies
      to new-phase edges, refined by its class-based data structures.

    Every term is exact, so the oracle is exact at all times, including before
    the first phase completes (the old products are then empty and the deltas
    carry everything).
    """

    name = "phase-oracle"

    def __init__(
        self,
        phase_length: Optional[int] = None,
        delta: Optional[float] = None,
        min_phase_length: int = 16,
        cost: Optional[CostModel] = None,
    ) -> None:
        super().__init__(cost=cost)
        if phase_length is not None and phase_length <= 0:
            raise ConfigurationError(f"phase_length must be positive, got {phase_length}")
        self._fixed_phase_length = phase_length
        self._delta = delta if delta is not None else solve_main_parameters().delta
        self._min_phase_length = max(1, min_phase_length)
        self._phase_length = phase_length if phase_length is not None else self._min_phase_length
        self._updates_in_phase = 0
        self._phases_completed = 0
        # Products of the *active* old snapshot (one phase behind).
        self._product_ab = CountMatrixCSR.empty()
        self._product_bc = CountMatrixCSR.empty()
        self._product_abc = CountMatrixCSR.empty()
        # Signed deltas since the active old snapshot, indexed for queries.
        self._delta_a_by_left: Dict[Vertex, Dict[Vertex, int]] = {}
        self._delta_b: Dict[tuple[Vertex, Vertex], int] = {}
        self._delta_c_by_right: Dict[Vertex, Dict[Vertex, int]] = {}
        # Signed deltas since the *pending* snapshot (the one being multiplied).
        self._pending_delta_a: Dict[Vertex, Dict[Vertex, int]] = {}
        self._pending_delta_b: Dict[tuple[Vertex, Vertex], int] = {}
        self._pending_delta_c: Dict[Vertex, Dict[Vertex, int]] = {}
        self._scheduler = PhaseScheduler(budget_per_update=max(1, self._min_phase_length))
        self._pending_jobs: Dict[str, ChainProductJob] = {}
        self._defer_phase_end = False
        self._start_phase()

    # -- introspection ---------------------------------------------------------------
    @property
    def phase_length(self) -> int:
        return self._phase_length

    @property
    def phases_completed(self) -> int:
        return self._phases_completed

    @property
    def scheduler(self) -> PhaseScheduler:
        return self._scheduler

    def new_edge_count(self) -> int:
        """Number of signed delta edges currently handled lazily."""
        return (
            sum(len(entries) for entries in self._delta_a_by_left.values())
            + len(self._delta_b)
            + sum(len(entries) for entries in self._delta_c_by_right.values())
        )

    # -- update hooks ------------------------------------------------------------------
    def _after_relation_update(self, position: int, left: Vertex, right: Vertex, sign: int) -> None:
        self._record_delta(position, left, right, sign)
        worked = self._scheduler.work()
        self.cost.charge("matmul_ops", worked)
        self._updates_in_phase += 1
        if self._updates_in_phase >= self._phase_length and not self._defer_phase_end:
            self._end_phase()

    def begin_batch(self) -> None:
        """Defer phase rollovers to the batch boundary.

        Phase ends only swap which snapshot the precomputed products describe;
        the query is exact against *any* snapshot plus its deltas, so letting a
        phase run past its nominal length during a batch never changes an
        answer — it only postpones the rebuild to :meth:`end_batch`.
        """
        self._defer_phase_end = True

    def end_batch(self) -> None:
        self._defer_phase_end = False
        if self._updates_in_phase >= self._phase_length:
            self._end_phase()

    def _record_delta(self, position: int, left: Vertex, right: Vertex, sign: int) -> None:
        self.cost.charge("structure_update")
        if position == 1:
            _add_nested(self._delta_a_by_left, left, right, sign)
            _add_nested(self._pending_delta_a, left, right, sign)
        elif position == 2:
            _add_flat(self._delta_b, (left, right), sign)
            _add_flat(self._pending_delta_b, (left, right), sign)
        else:
            _add_nested(self._delta_c_by_right, right, left, sign)
            _add_nested(self._pending_delta_c, right, left, sign)

    # -- phase machinery -----------------------------------------------------------------
    def _start_phase(
        self, snapshots: Optional[tuple[CountMatrixCSR, CountMatrixCSR, CountMatrixCSR]] = None
    ) -> None:
        """Snapshot the current relations and submit their products.

        ``snapshots`` lets a bulk rebuild pass in already-materialized
        relation matrices (the jobs only read them) instead of re-walking the
        relation dictionaries tuple by tuple.
        """
        if snapshots is not None:
            snapshot_a, snapshot_b, snapshot_c = snapshots
        else:
            snapshot_a = self.relation(1).snapshot()
            snapshot_b = self.relation(2).snapshot()
            snapshot_c = self.relation(3).snapshot()
        self._pending_jobs = {
            "ab": ChainProductJob([snapshot_a, snapshot_b], name="A_old*B_old"),
            "bc": ChainProductJob([snapshot_b, snapshot_c], name="B_old*C_old"),
            "abc": ChainProductJob([snapshot_a, snapshot_b, snapshot_c], name="A_old*B_old*C_old"),
        }
        self._pending_delta_a = {}
        self._pending_delta_b = {}
        self._pending_delta_c = {}
        self._scheduler.clear()
        for job in self._pending_jobs.values():
            self._scheduler.submit(job)
        self._phase_length = self._compute_phase_length()
        self._scheduler.budget_per_update = self._compute_budget()
        self._updates_in_phase = 0

    def _end_phase(self) -> None:
        """Finish the pending products and promote them to the active ones."""
        flushed = self._scheduler.finish_all()
        self.cost.charge("matmul_ops", flushed)
        self._product_ab = self._pending_jobs["ab"].result
        self._product_bc = self._pending_jobs["bc"].result
        self._product_abc = self._pending_jobs["abc"].result
        self._delta_a_by_left = {left: dict(entries) for left, entries in self._pending_delta_a.items()}
        self._delta_b = dict(self._pending_delta_b)
        self._delta_c_by_right = {
            right: dict(entries) for right, entries in self._pending_delta_c.items()
        }
        self._phases_completed += 1
        self._start_phase()

    def rebuild_from_mirrored_graph(
        self,
        graph: "DynamicGraph",
        matrix: np.ndarray,
        labels: List[Vertex],
        square: Optional[np.ndarray] = None,
    ) -> None:
        """Bulk mirror rebuild plus a vectorized phase synchronization.

        Instead of letting the scheduler spread the old-phase products over
        the next phase, the products of the *current* snapshot are computed
        immediately with dense BLAS products (in the mirrored setting
        ``A = B = C``, so ``AB = BC = A^2`` and ``ABC = A^3``) and promoted,
        and every delta store is cleared: queries right after the batch
        boundary answer from the triple product alone.  This is a legal phase
        boundary — the oracle is exact against *any* snapshot plus its deltas,
        and here the deltas are simply empty.
        """
        super().rebuild_from_mirrored_graph(graph, matrix, labels, square)
        if square is None:
            square = exact_integer_matmul(matrix, matrix)
        cube = exact_integer_matmul(square, matrix)
        n = matrix.shape[0]
        self._promote_mirrored_products(
            CountMatrixCSR.from_csr(CsrMatrix.from_dense(matrix), labels),
            CountMatrixCSR.from_csr(CsrMatrix.from_dense(square), labels),
            CountMatrixCSR.from_csr(CsrMatrix.from_dense(cube), labels),
            work=2 * n * n * n,
        )

    def rebuild_from_mirrored_csr(
        self,
        graph: "DynamicGraph",
        adjacency: CsrMatrix,
        labels: List[Vertex],
        square: CsrMatrix,
    ) -> None:
        """Sparse bulk rebuild: the same phase synchronization, no dense array.

        The promoted products come from the SpGEMM kernel (``AB = BC = A^2``,
        ``ABC = A^3`` in the mirrored setting); everything else matches
        :meth:`rebuild_from_mirrored_graph`.
        """
        super().rebuild_from_mirrored_csr(graph, adjacency, labels, square)
        cube, work = self._spgemm(square, adjacency)
        self._promote_mirrored_products(
            CountMatrixCSR.from_csr(adjacency, labels),
            CountMatrixCSR.from_csr(square, labels),
            CountMatrixCSR.from_csr(cube, labels),
            work=work + spgemm_work(adjacency, adjacency),
        )

    def _promote_mirrored_products(
        self,
        adjacency: CountMatrixCSR,
        product_square: CountMatrixCSR,
        product_cube: CountMatrixCSR,
        work: int,
    ) -> None:
        """Install freshly computed mirrored products and open a new phase."""
        self._product_ab = product_square
        self._product_bc = product_square
        self._product_abc = product_cube
        self._delta_a_by_left = {}
        self._delta_b = {}
        self._delta_c_by_right = {}
        self._phases_completed += 1
        # The pending jobs re-multiply the same snapshot; A = B = C is the
        # read-only adjacency, so one positional matrix serves all three jobs.
        self._start_phase(snapshots=(adjacency, adjacency, adjacency))
        self.cost.charge("batch_rebuild", work)

    def _compute_phase_length(self) -> int:
        if self._fixed_phase_length is not None:
            return self._fixed_phase_length
        m = max(self.num_edges, 1)
        return max(self._min_phase_length, int(math.ceil(float(m) ** (1.0 - self._delta))))

    def _compute_budget(self) -> int:
        """Per-update work budget that finishes the pending products in time."""
        estimated = 0
        for job in self._pending_jobs.values():
            estimated += _estimate_chain_cost(job)
        return max(1, int(math.ceil(2.0 * estimated / max(self._phase_length, 1))))

    # -- query ----------------------------------------------------------------------------
    def count_three_paths(self, u: Vertex, v: Vertex) -> int:
        total = 0
        # Old * old * old.
        self.cost.charge("structure_lookup")
        total += self._product_abc.get(u, v)
        # dA * (B_old * C_old).
        delta_a = self._delta_a_by_left.get(u, _EMPTY_DICT)
        for x, a_sign in delta_a.items():
            self.cost.charge("structure_lookup")
            total += a_sign * self._product_bc.get(x, v)
        # (A_old * B_old) * dC.
        delta_c = self._delta_c_by_right.get(v, _EMPTY_DICT)
        for y, c_sign in delta_c.items():
            self.cost.charge("structure_lookup")
            total += self._product_ab.get(u, y) * c_sign
        # dA * B_old * dC.
        if delta_a and delta_c:
            b_relation = self.relation(2)
            for x, a_sign in delta_a.items():
                for y, c_sign in delta_c.items():
                    self.cost.charge("adjacency_probe")
                    total += a_sign * c_sign * self._old_b_entry(b_relation, x, y)
        # A * dB * C  (all combinations that use a new B edge).
        if self._delta_b:
            a_forward = self.relation(1).forward.get(u, _EMPTY_SET)
            c_backward = self.relation(3).backward.get(v, _EMPTY_SET)
            for (x, y), b_sign in self._delta_b.items():
                self.cost.charge("adjacency_probe", 2)
                if x in a_forward and y in c_backward:
                    total += b_sign
        return total

    def _old_b_entry(self, b_relation: _ChainRelation, x: Vertex, y: Vertex) -> int:
        current = 1 if b_relation.has(x, y) else 0
        return current - self._delta_b.get((x, y), 0)


class OracleBackedCounter(DynamicFourCycleCounter):
    """A general-graph 4-cycle counter driven by a 3-path oracle.

    Implements the Section 8 reduction: every general edge ``{u, v}`` is
    mirrored (in both orientations) into all three chain relations, whose
    matrices therefore all equal the graph's adjacency matrix, and the number
    of 4-cycles through ``{u, v}`` is the oracle's 3-path count ``(u, v)``.
    """

    name = "oracle-backed"

    def __init__(self, oracle: ThreePathOracle, workers: int = 1) -> None:
        super().__init__(workers=workers)
        self._oracle = oracle
        # Share one cost model so oracle work shows up in the counter's totals,
        # and one shard executor so the oracle's rebuild products parallelize
        # under the same worker configuration (and share the same pools).
        self._oracle.cost = self.cost
        self._oracle.shard_executor = self.shard_executor

    @property
    def oracle(self) -> ThreePathOracle:
        return self._oracle

    def _batch_hook(self, batch) -> bool:
        """Batch fast path: bulk-apply the window, then one vectorized rebuild.

        The per-update path mirrors every edge into six relation updates, each
        firing the oracle's Python maintenance hooks.  For a large window it
        is cheaper to apply the net updates to the graph in bulk, rebuild the
        oracle from the mirrored graph with matrix kernels
        (:meth:`ThreePathOracle.rebuild_from_mirrored_graph` on the dense
        path, :meth:`ThreePathOracle.rebuild_from_mirrored_csr` on the sparse
        one — the density-aware dispatcher picks), and take the exact boundary
        count from the closed-walk trace formula over the same adjacency.
        """
        if len(batch) < self.batch_fast_path_threshold:
            return False
        self._graph.apply_batch(batch)
        if self._graph.num_edges == 0:
            # Degenerate empty graph: both kernels reduce to clearing state.
            matrix, labels = self._graph.interned_adjacency_matrix()
            self._oracle.rebuild_from_mirrored_graph(self._graph, matrix, labels)
            self._count = 0
            return True
        decision = self._adjacency_product_decision()
        if decision.backend == "dense":
            matrix, labels = self._graph.interned_adjacency_matrix()
            square = exact_integer_matmul(matrix, matrix)
            self._oracle.rebuild_from_mirrored_graph(self._graph, matrix, labels, square=square)
            self._count = four_cycles_from_adjacency(
                matrix, self._graph.num_edges, square=square
            )
            n = matrix.shape[0]
            self.cost.charge("batch_recount", n * n * n)
        else:
            adjacency = self._graph.csr_matrix()
            square, work = self._spgemm(adjacency, adjacency)
            labels = self._graph.interner.labels
            self._oracle.rebuild_from_mirrored_csr(self._graph, adjacency, labels, square)
            self._count = four_cycles_from_csr_square(
                square, adjacency.row_lengths(), self._graph.num_edges
            )
            self.cost.charge("batch_recount", work)
        return True

    def _three_paths(self, u: Vertex, v: Vertex) -> int:
        return self._oracle.count_three_paths(u, v)

    def _apply_structure_delta(self, u: Vertex, v: Vertex, sign: int) -> None:
        for position in CHAIN_POSITIONS:
            self._oracle.update(position, u, v, sign)
            self._oracle.update(position, v, u, sign)

    def _begin_batch(self, batch) -> None:
        self._oracle.begin_batch()

    def _end_batch(self, batch) -> None:
        self._oracle.end_batch()


def _add_nested(
    store: Dict[Vertex, Dict[Vertex, int]], key: Vertex, subkey: Vertex, sign: int
) -> None:
    inner = store.get(key)
    if inner is None:
        inner = {}
        store[key] = inner
    value = inner.get(subkey, 0) + sign
    if value == 0:
        inner.pop(subkey, None)
        if not inner:
            store.pop(key, None)
    else:
        inner[subkey] = value


def _add_flat(store: Dict[tuple, int], key: tuple, sign: int) -> None:
    value = store.get(key, 0) + sign
    if value == 0:
        store.pop(key, None)
    else:
        store[key] = value


def _estimate_chain_cost(job: ChainProductJob) -> int:
    """A crude upper estimate of a chain job's total work (used for budgeting)."""
    return max(1, job.operations_done) if job.is_complete else _estimate_from_matrices(job)


def _estimate_from_matrices(job: ChainProductJob) -> int:
    total = 0
    previous_nnz = 0
    for index, matrix in enumerate(job.matrices):
        nnz = matrix.nnz
        if index == 0:
            previous_nnz = nnz
            continue
        total += max(previous_nnz, 1) * max(nnz, 1)
        previous_nnz = max(previous_nnz, nnz)
    return max(total, 1)


#: Shared immutable empties.
_EMPTY_SET: frozenset = frozenset()
_EMPTY_DICT: Dict[Vertex, int] = {}
