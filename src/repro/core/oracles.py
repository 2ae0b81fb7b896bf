"""Dynamic 3-path oracles over a chain of three relations.

The equivalent problem the paper solves (Section 2.2): maintain three binary
relations forming a chain ``L1 -A-> L2 -B-> L3 -C-> L4`` under tuple
insertions/deletions, and answer queries ``(u in L1, v in L4)`` asking for the
number of layered 3-paths from ``u`` to ``v`` — i.e. the entry
``(A · B · C)[u, v]``.  Both the layered 4-cycle counter (four oracle copies,
one per query relation) and the general-graph counters (one oracle via the
Section 8 reduction) are thin wrappers around such an oracle.

A *mirrored* oracle (:meth:`ThreePathOracle.mirror`) serves the Section 8
reduction: its relations are a view of a general graph's adjacency, and it
takes one ``update_edge`` and one ``end_edge`` per graph update instead of
one ``update`` per tuple.

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
* :class:`OracleBackedCounter` — a general-graph 4-cycle counter driven by a
  mirrored oracle through the Section 8 reduction.  The base class's batch
  decision replays or rebuilds each window at the oracle's own prices for
  the two paths (:meth:`ThreePathOracle.replay_cost`,
  :meth:`ThreePathOracle.rebuild_cost`), in the units and with the constants
  of :mod:`repro.core.base`.
"""

from __future__ import annotations

import abc
import math
from typing import (
    TYPE_CHECKING,
    Collection,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Set,
    Union,
)

import numpy as np

from repro.core.base import REPLAY_UPDATE_COST, DynamicFourCycleCounter, rebuild_base_cost
from repro.exceptions import ConfigurationError, CounterStateError, InvalidUpdateError
from repro.graph.static_counts import four_cycles_from_adjacency, four_cycles_from_csr_square
from repro.graph.updates import EdgeUpdate, UpdateBatch
from repro.instrumentation.cost_model import CostModel
from repro.kernels import CsrMatrix, exact_integer_matmul
from repro.matmul.engine import CountMatrix, CountMatrixCSR, csr_spgemm, spgemm_work
from repro.matmul.omega import CSR_OP_COST, DICT_OP_COST
from repro.matmul.scheduler import ChainProductJob, PhaseScheduler
from repro.theory.parameters import solve_main_parameters

if TYPE_CHECKING:  # imported lazily to avoid a runtime cycle
    from repro.graph.dynamic_graph import DynamicGraph

Vertex = Hashable

#: Chain positions: 1 connects L1 to L2, 2 connects L2 to L3, 3 connects L3 to L4.
CHAIN_POSITIONS = (1, 2, 3)
#: The relation updates a mirrored graph edge stands for: both orientations.
_TUPLES_PER_EDGE = 2 * len(CHAIN_POSITIONS)

class _AllVertices:
    """Stands for "every vertex" wherever an endpoint set is expected."""

    __slots__ = ()

    def __contains__(self, vertex: object) -> bool:
        return True

    def __repr__(self) -> str:
        return "ALL_VERTICES"


#: The endpoint set of whole products: every row, every column.
ALL_VERTICES = _AllVertices()

#: A set of endpoints: a frozenset of vertices or :data:`ALL_VERTICES`.
EndpointSet = Union[FrozenSet[Vertex], _AllVertices]


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

    def snapshot(
        self, rows: EndpointSet = ALL_VERTICES, columns: EndpointSet = ALL_VERTICES
    ) -> CountMatrixCSR:
        """The relation as a read-only 0/1 matrix, exported straight from the
        adjacency sets (one pass over the kept tuples, no label-keyed matrix).

        ``rows`` keeps only those rows and ``columns`` only those columns (at
        most one of the two is restricted); :data:`ALL_VERTICES`, the
        default, keeps them all.
        """
        if columns is not ALL_VERTICES:
            entries: Dict[Vertex, Collection[Vertex]] = {}
            for right in columns:
                for left in self.backward.get(right, _EMPTY_SET):
                    entries.setdefault(left, []).append(right)
            col_order = [right for right in columns if self.backward.get(right)]
        elif rows is not ALL_VERTICES:
            entries = {left: self.forward[left] for left in rows if self.forward.get(left)}
            col_order = list(dict.fromkeys(right for rights in entries.values() for right in rights))
        else:
            entries = self.forward
            col_order = [right for right, lefts in self.backward.items() if lefts]
        row_order = [left for left, rights in entries.items() if rights]
        col_index = {label: position for position, label in enumerate(col_order)}
        indptr = np.zeros(len(row_order) + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter((len(entries[left]) for left in row_order), np.int64, len(row_order)),
            out=indptr[1:],
        )
        nnz = int(indptr[-1])
        col_ids = np.fromiter(
            (col_index[right] for left in row_order for right in entries[left]), np.int64, nnz
        )
        return CountMatrixCSR(
            version=0,
            row_order=row_order,
            col_order=col_order,
            indptr=indptr,
            col_ids=col_ids,
            data=np.ones(nnz, dtype=np.int64),
        )


class _GraphRelation(_ChainRelation):
    """A mirrored oracle's every chain relation: a read-only view of a graph's
    live label adjacency, holding each edge in both orientations."""

    __slots__ = ("_graph",)

    def __init__(self, graph: "DynamicGraph") -> None:
        self._graph = graph
        self.forward = self.backward = graph.adjacency

    @property
    def size(self) -> int:  # type: ignore[override]
        return 2 * self._graph.num_edges

    def apply(self, left: Vertex, right: Vertex, sign: int) -> None:
        raise CounterStateError("a mirrored oracle's relations are its graph: use update_edge")


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

    # -- the mirrored setting (Section 8) -------------------------------------------
    def mirror(self, graph: "DynamicGraph") -> None:
        """Read all three chain relations off ``graph`` (``A = B = C`` in the
        Section 8 reduction), keeping no copy: every edge ``{u, v}`` is the
        tuples ``(u, v)`` and ``(v, u)``, and sizes stay in tuples
        (``num_edges`` is six times the graph's ``m``), so thresholds and
        phase lengths keep their units.  The graph's owner reports each edge
        update through :meth:`update_edge` and :meth:`end_edge`;
        :meth:`update` raises.  Call it on an empty oracle.
        """
        if self.num_edges:
            raise CounterStateError(f"mirror() needs an empty oracle, not {self!r}")
        self._relations = dict.fromkeys(CHAIN_POSITIONS, _GraphRelation(graph))

    def update_edge(self, u: Vertex, v: Vertex, sign: int) -> None:
        """The six tuple updates of graph edge ``{u, v}`` on a mirrored
        oracle, reported while the edge is absent from the graph: just before
        its insertion (``sign = +1``) or just after its deletion (``-1``)."""

    def end_edge(self, u: Vertex, v: Vertex) -> None:
        """Called once the mirrored graph reflects the update of ``{u, v}``,
        where (as at :meth:`end_batch`) the graph equals the oracle's snapshot
        plus its deltas: the only points where classes move and phases end."""

    def rebuild_from_mirrored_graph(
        self,
        matrix: np.ndarray,
        labels: List[Vertex],
        square: Optional[np.ndarray] = None,
    ) -> None:
        """Resynchronize a mirrored oracle after its graph changed in bulk.

        The bulk rebuild of :class:`OracleBackedCounter` calls this instead
        of reporting each edge.  The relations read the graph, so they
        need nothing; subclasses rebuild their auxiliary structures with
        vectorized kernels over the interned adjacency ``matrix`` (in
        ``labels`` order; ``square`` is ``matrix @ matrix`` when known).
        """

    def rebuild_from_mirrored_csr(
        self,
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

    def rebuild_cost(self, vertices: int, edges: int) -> float:
        """The estimated cost, in :mod:`repro.matmul.omega` units, of
        :class:`OracleBackedCounter`'s bulk rebuild over a graph of
        ``vertices`` and ``edges``: its fixed part, its per-vertex and
        per-edge export, and whatever the oracle rebuilds besides."""
        return rebuild_base_cost(vertices, edges)

    def replay_cost(self, updates: Iterable[EdgeUpdate], limit: float) -> float:
        """The estimated cost, in :mod:`repro.matmul.omega` units, of
        replaying ``updates`` (a normalized window) on a mirrored oracle one
        graph update at a time, queries included; the sum may stop once it
        reaches ``limit``.  An oracle that does not price its replay is
        always rebuilt."""
        return math.inf

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
    oracle fixes the endpoint sets its products serve, ``H_L`` in ``L1`` and
    ``H_R`` in ``L4`` (named by :meth:`_endpoint_degree_floor`; this class
    serves every endpoint), snapshots ``A_o[H_L,:]``, ``B_o`` and
    ``C_o[:,H_R]``, and submits the products ``A_o[H_L,:] · B_o``,
    ``B_o · C_o[:,H_R]`` and ``A_o[H_L,:] · B_o · C_o[:,H_R]`` to a
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

    When either endpoint set is empty the phase *sleeps*: no snapshot is
    taken, no job is submitted and no delta is recorded, while the phase
    clock, :attr:`phases_completed` and the phase-rebuild events keep running.

    A query ``(u, v)`` with ``u`` in the active products' ``H_L`` and ``v`` in
    their ``H_R`` expands ``(A_o + dA)(B_o + dB)(C_o + dC)[u, v]`` exactly:

    * ``A_o B_o C_o`` — one lookup in the precomputed triple product;
    * ``dA · (B_o C_o)`` — iterate the new ``A``-edges incident to ``u``;
    * ``(A_o B_o) · dC`` — iterate the new ``C``-edges incident to ``v``;
    * ``dA · B_o · dC`` — iterate the new ``A``/``C`` edges at both endpoints;
    * ``A · dB · C`` — iterate the new ``B``-edges (at most two phases' worth)
      with O(1) adjacency probes; this is the lazy evaluation the paper applies
      to new-phase edges, refined by its class-based data structures.

    So the delta stores keep what such queries read and no more: ``dA`` rows
    of ``H_L``, ``dC`` columns of ``H_R`` and, unless the phase sleeps, all of
    ``dB``.  Every term is exact, so the oracle is exact at all times,
    including before the first phase completes (the old products are then
    empty and the deltas carry everything).
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
        # Products of the *active* old snapshot (one phase behind), and the
        # endpoint sets they serve.
        self._endpoints = self._endpoint_sets()
        self._product_ab = CountMatrixCSR.empty()
        self._product_bc = CountMatrixCSR.empty()
        self._product_abc = CountMatrixCSR.empty()
        # Signed deltas since the active old snapshot, indexed for queries.
        self._delta_a_by_left: Dict[Vertex, Dict[Vertex, int]] = {}
        self._delta_b: Dict[tuple[Vertex, Vertex], int] = {}
        self._delta_c_by_right: Dict[Vertex, Dict[Vertex, int]] = {}
        # Signed deltas since the *pending* snapshot (the one being
        # multiplied), and the endpoint sets its products will serve.
        self._pending_endpoints: tuple[EndpointSet, EndpointSet] = _ASLEEP
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
        """The current phase length, counted in relation updates.  A mirrored
        oracle counts each graph update as six (three chain relations, both
        orientations), so for phase-fmm and assadi-shah it is in sixths of a
        graph update, and a phase ends only at a graph-update boundary.
        """
        return self._phase_length

    @property
    def phases_completed(self) -> int:
        return self._phases_completed

    @property
    def scheduler(self) -> PhaseScheduler:
        return self._scheduler

    @property
    def endpoints(self) -> tuple[EndpointSet, EndpointSet]:
        """``(H_L, H_R)`` of the active products: the ``L1`` and ``L4``
        endpoints whose queries they serve (:data:`ALL_VERTICES` for every
        endpoint, two empty sets while they sleep)."""
        return self._endpoints

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
        self._advance_phase(1)
        self._end_phase_if_due()

    def update_edge(self, u: Vertex, v: Vertex, sign: int) -> None:
        """Record the edge's six tuples as deltas and advance the scheduler
        and the phase clock by six relation updates.  While both the active
        and the pending products sleep there is no delta store to record
        into, so only the clock moves."""
        if self._endpoints[0] or self._pending_endpoints[0]:
            for position in CHAIN_POSITIONS:
                self._record_delta(position, u, v, sign)
                self._record_delta(position, v, u, sign)
        self._advance_phase(_TUPLES_PER_EDGE)

    def end_edge(self, u: Vertex, v: Vertex) -> None:
        self._end_phase_if_due()

    def _advance_phase(self, updates: int) -> None:
        """Spend ``updates`` relation updates' product budget and clock."""
        if self._pending_jobs:
            budget = updates * self._scheduler.budget_per_update
            self.cost.charge("matmul_ops", self._scheduler.work(budget))
        self._updates_in_phase += updates

    def _end_phase_if_due(self) -> None:
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
        self._end_phase_if_due()

    def _record_delta(self, position: int, left: Vertex, right: Vertex, sign: int) -> None:
        """Record a signed tuple in the delta stores of the active and of the
        pending snapshot, each only where its products' queries read it."""
        rows, columns = self._endpoints
        pending_rows, pending_columns = self._pending_endpoints
        recorded = False
        if position == 1:
            if left in rows:
                _add_nested(self._delta_a_by_left, left, right, sign)
                recorded = True
            if left in pending_rows:
                _add_nested(self._pending_delta_a, left, right, sign)
                recorded = True
        elif position == 2:
            if rows:
                _add_flat(self._delta_b, (left, right), sign)
                recorded = True
            if pending_rows:
                _add_flat(self._pending_delta_b, (left, right), sign)
                recorded = True
        else:
            if right in columns:
                _add_nested(self._delta_c_by_right, right, left, sign)
                recorded = True
            if right in pending_columns:
                _add_nested(self._pending_delta_c, right, left, sign)
                recorded = True
        if recorded:
            self.cost.charge("structure_update")

    # -- phase machinery -----------------------------------------------------------------
    def _endpoint_degree_floor(self) -> float:
        """The degree that names the endpoint sets the old-phase products
        serve: ``H_L = {u : |A(u)| >= floor}`` and
        ``H_R = {v : |C(v)| >= floor}``, fixed once per phase start.

        A floor of at most 0 serves every endpoint with whole products, as
        this class does; a subclass that answers the other endpoints another
        way raises it.
        """
        return 0.0

    def _endpoint_sets(self) -> tuple[EndpointSet, EndpointSet]:
        """``(H_L, H_R)`` of the current relations; two empty sets when
        either is empty."""
        floor = self._endpoint_degree_floor()
        if floor <= 0:
            return ALL_VERTICES, ALL_VERTICES
        rows = frozenset(u for u, xs in self.relation(1).forward.items() if len(xs) >= floor)
        columns = frozenset(v for v, ys in self.relation(3).backward.items() if len(ys) >= floor)
        return (rows, columns) if rows and columns else _ASLEEP

    def _start_phase(
        self,
        endpoints: Optional[tuple[EndpointSet, EndpointSet]] = None,
        snapshots: Optional[tuple[CountMatrixCSR, CountMatrixCSR, CountMatrixCSR]] = None,
    ) -> None:
        """Fix the endpoint sets, snapshot ``A[H_L,:]``, ``B`` and
        ``C[:,H_R]`` and submit their products; a sleeping phase does neither.

        A bulk rebuild passes in the ``endpoints`` and the ``snapshots`` it
        has already materialized (the jobs only read them) instead of
        re-walking the relation dictionaries tuple by tuple.
        """
        self._pending_endpoints = self._endpoint_sets() if endpoints is None else endpoints
        rows, columns = self._pending_endpoints
        self._pending_delta_a = {}
        self._pending_delta_b = {}
        self._pending_delta_c = {}
        self._pending_jobs = {}
        self._scheduler.clear()
        if rows:
            if snapshots is None:
                snapshots = (
                    self.relation(1).snapshot(rows=rows),
                    self.relation(2).snapshot(),
                    self.relation(3).snapshot(columns=columns),
                )
            snapshot_a, snapshot_b, snapshot_c = snapshots
            self._pending_jobs = {
                "ab": ChainProductJob([snapshot_a, snapshot_b], name="A_old*B_old"),
                "bc": ChainProductJob([snapshot_b, snapshot_c], name="B_old*C_old"),
                "abc": ChainProductJob(
                    [snapshot_a, snapshot_b, snapshot_c], name="A_old*B_old*C_old"
                ),
            }
            for job in self._pending_jobs.values():
                self._scheduler.submit(job)
        self._phase_length = self._compute_phase_length()
        self._scheduler.budget_per_update = self._compute_budget()
        self._updates_in_phase = 0

    def _end_phase(self) -> None:
        """Finish the pending products and promote them, with their endpoint
        sets and deltas, to the active ones."""
        jobs = self._pending_jobs
        if jobs:
            self.cost.charge("matmul_ops", self._scheduler.finish_all())
            products = [jobs[name].result for name in ("ab", "bc", "abc")]
        else:
            products = [CountMatrixCSR.empty() for _ in range(3)]
        self._product_ab, self._product_bc, self._product_abc = products
        self._endpoints = self._pending_endpoints
        # _start_phase gives the pending stores fresh dicts, so these move.
        self._delta_a_by_left = self._pending_delta_a
        self._delta_b = self._pending_delta_b
        self._delta_c_by_right = self._pending_delta_c
        self._phases_completed += 1
        self._start_phase()

    def rebuild_from_mirrored_graph(
        self,
        matrix: np.ndarray,
        labels: List[Vertex],
        square: Optional[np.ndarray] = None,
    ) -> None:
        """A vectorized phase synchronization after a bulk graph change.

        Instead of letting the scheduler spread the old-phase products over
        the next phase, the products of the *current* snapshot are computed
        immediately with dense BLAS products and promoted, and every delta
        store is cleared: queries right after the batch boundary answer from
        the triple product alone.  This is a legal phase boundary — the oracle
        is exact against *any* snapshot plus its deltas, and here the deltas
        are simply empty.  In the mirrored setting ``A = B = C`` is the
        adjacency, both endpoint sets are ``H = {u : deg(u) >= floor}``, read
        off the degree vector, and every product is a slice of the square:
        ``A[H,:]·B = A²[H,:]``, ``B·C[:,H] = A²[:,H]`` and
        ``A[H,:]·B·C[:,H] = A²[H,:]·A[:,H]``.  When ``H`` is empty nothing is
        multiplied and the new phase sleeps.
        """
        high = self._mirrored_endpoints(matrix.sum(axis=1))
        if high is not None and not high.any():
            self._promote_mirrored_products(labels, high)
            return
        if square is None:
            square = exact_integer_matmul(matrix, matrix)
        keep = slice(None) if high is None else high
        kept_labels = labels if high is None else [labels[i] for i in np.flatnonzero(high).tolist()]
        triple = CountMatrixCSR.from_csr(
            CsrMatrix.from_dense(exact_integer_matmul(square[keep], matrix[:, keep])), kept_labels
        )
        n = matrix.shape[0]
        self._promote_mirrored_products(
            labels,
            high,
            (CsrMatrix.from_dense(matrix), CsrMatrix.from_dense(square), triple),
            work=n * n * n + n * len(kept_labels) ** 2,
        )

    def rebuild_from_mirrored_csr(
        self,
        adjacency: CsrMatrix,
        labels: List[Vertex],
        square: CsrMatrix,
    ) -> None:
        """Sparse bulk rebuild: the same phase synchronization, no dense array.

        The triple product ``A²[H,:]·A[:,H]`` comes from the SpGEMM kernel;
        everything else matches :meth:`rebuild_from_mirrored_graph`.
        """
        high = self._mirrored_endpoints(adjacency.row_lengths())
        if high is not None and not high.any():
            self._promote_mirrored_products(labels, high)
            return
        if high is None:
            cube, work = self._spgemm(square, adjacency)
        else:
            cube, work = self._spgemm(square.filter_rows(high), adjacency.filter_columns(high))
        self._promote_mirrored_products(
            labels,
            high,
            (adjacency, square, CountMatrixCSR.from_csr(cube, labels)),
            work + spgemm_work(adjacency, adjacency),
        )

    def _mirrored_endpoints(self, degrees: np.ndarray) -> Optional[np.ndarray]:
        """The indicator of ``H`` over the interned vertices in the mirrored
        setting, where ``|A(u)| = |C(u)| = deg(u)``; ``None`` when the
        products serve every vertex."""
        floor = self._endpoint_degree_floor()
        return None if floor <= 0 else degrees >= floor

    def _promote_mirrored_products(
        self,
        labels: List[Vertex],
        high: Optional[np.ndarray],
        operands: Optional[tuple[CsrMatrix, CsrMatrix, CountMatrixCSR]] = None,
        work: int = 0,
    ) -> None:
        """Install the products of the current snapshot, clear every delta
        store and open a new phase over the same snapshot.

        ``high`` is the indicator of ``H`` (``None``: every vertex), and
        ``operands`` are the adjacency, its square and the labelled triple
        product; a sleeping phase (``H`` empty) needs none of them.
        """
        if operands is None:
            endpoints, snapshots = _ASLEEP, None
            products = [CountMatrixCSR.empty() for _ in range(3)]
        else:
            adjacency, square, triple = operands
            if high is None:
                endpoints = (ALL_VERTICES, ALL_VERTICES)
                product_square = CountMatrixCSR.from_csr(square, labels)
                products = [product_square, product_square, triple]
                # A = B = C is the read-only adjacency, so one positional
                # matrix serves all three pending jobs.
                snapshot = CountMatrixCSR.from_csr(adjacency, labels)
                snapshots = (snapshot, snapshot, snapshot)
            else:
                hubs = frozenset(labels[i] for i in np.flatnonzero(high).tolist())
                endpoints = (hubs, hubs)
                products = [
                    CountMatrixCSR.from_csr(square.filter_rows(high), labels),
                    CountMatrixCSR.from_csr(square.filter_columns(high), labels),
                    triple,
                ]
                snapshots = (
                    CountMatrixCSR.from_csr(adjacency.filter_rows(high), labels),
                    CountMatrixCSR.from_csr(adjacency, labels),
                    CountMatrixCSR.from_csr(adjacency.filter_columns(high), labels),
                )
        self._endpoints = endpoints
        self._product_ab, self._product_bc, self._product_abc = products
        self._delta_a_by_left = {}
        self._delta_b = {}
        self._delta_c_by_right = {}
        self._phases_completed += 1
        # The pending jobs re-multiply the same snapshot.
        self._start_phase(endpoints, snapshots)
        self.cost.charge("batch_rebuild", work)

    # -- batch pricing ----------------------------------------------------------------
    def rebuild_cost(self, vertices: int, edges: int) -> float:
        """The base price plus the old-phase products (nothing while they
        sleep): ``A²[H,:]`` and the chain ``A²[H,:]·A[:,H]``."""
        return super().rebuild_cost(vertices, edges) + self._product_work() * CSR_OP_COST

    def _product_work(self) -> float:
        """The SpGEMM work of one set of old-phase products, estimated from
        the active ones: ``nnz(A[H,:]·B)`` for the square, twice (the
        scheduler multiplies ``A[H,:]·B`` and ``B·C[:,H]``), and that times
        the average ``B`` degree for the chain."""
        relation = self.relation(2)
        degree = relation.size / max(len(relation.forward), 1)
        return self._product_ab.nnz * (2.0 + degree)

    def replay_cost(self, updates: Iterable[EdgeUpdate], limit: float) -> float:
        """Per update: :meth:`_replay_update_cost` and the phase query's
        ``1 + |dA(u)| + |dC(v)| + |dA(u)|·|dC(v)| + 2·|dB|`` operations, where
        each replayed update adds two ``B`` tuples to the ``A·dB·C`` scan of
        every later query in the window while the active products are
        awake."""
        fixed = self._replay_update_cost()
        growth = 2 if self._endpoints[0] else 0
        delta_b = len(self._delta_b)
        by_left, by_right = self._delta_a_by_left, self._delta_c_by_right
        total = 0.0
        for update in updates:
            delta_a = len(by_left.get(update.u, _EMPTY_DICT))
            delta_c = len(by_right.get(update.v, _EMPTY_DICT))
            operations = 1 + delta_a + delta_c + delta_a * delta_c + 2 * delta_b
            total += fixed + operations * DICT_OP_COST
            if total >= limit:
                break
            delta_b += growth
        return total

    def _replay_update_cost(self) -> float:
        """One replayed update's cost besides its query and maintenance:
        :data:`REPLAY_UPDATE_COST` and, unless the phase sleeps, six delta
        records plus six relation updates' share of a phase's product work
        (the scheduler's budget, at the products' estimated real size)."""
        if not (self._endpoints[0] or self._pending_endpoints[0]):
            return REPLAY_UPDATE_COST
        share = self._product_work() * CSR_OP_COST / self._phase_length
        return REPLAY_UPDATE_COST + _TUPLES_PER_EDGE * (DICT_OP_COST + share)

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

    Implements the Section 8 reduction: the oracle mirrors the counter's graph
    (:meth:`ThreePathOracle.mirror`), so all three chain relations are its
    adjacency, and the number of 4-cycles through ``{u, v}`` is the oracle's
    3-path count ``(u, v)`` while the edge is absent.  Each edge update is one
    :meth:`ThreePathOracle.update_edge` (edge absent) and one
    :meth:`ThreePathOracle.end_edge` (graph updated).  A batch window is
    replayed that way or rebuilt in bulk (:meth:`_rebuild`), whichever the
    oracle prices lower (:meth:`ThreePathOracle.replay_cost`,
    :meth:`ThreePathOracle.rebuild_cost`).
    """

    name = "oracle-backed"

    def __init__(self, oracle: ThreePathOracle, workers: int = 1) -> None:
        super().__init__(workers=workers)
        self._oracle = oracle
        oracle.mirror(self._graph)
        # Share one cost model so oracle work shows up in the counter's totals,
        # and one shard executor so the oracle's rebuild products parallelize
        # under the same worker configuration (and share the same pools).
        self._oracle.cost = self.cost
        self._oracle.shard_executor = self.shard_executor

    @property
    def oracle(self) -> ThreePathOracle:
        return self._oracle

    def _replay_cost(self, batch: UpdateBatch, limit: float) -> float:
        return self._oracle.replay_cost(batch, limit)

    def _rebuild_cost(self, vertices: int, edges: int) -> float:
        return self._oracle.rebuild_cost(vertices, edges)

    def _rebuild(self) -> None:
        """Resynchronize the oracle with matrix kernels
        (:meth:`ThreePathOracle.rebuild_from_mirrored_graph` on the dense
        path, :meth:`ThreePathOracle.rebuild_from_mirrored_csr` on the sparse
        one — the density-aware dispatcher picks), and take the exact
        boundary count from the closed-walk trace formula over the same
        adjacency."""
        decision = self._adjacency_product_decision()
        if decision.backend == "dense":
            matrix, labels = self._graph.interned_adjacency_matrix()
            square = exact_integer_matmul(matrix, matrix)
            self._oracle.rebuild_from_mirrored_graph(matrix, labels, square=square)
            self._count = four_cycles_from_adjacency(
                matrix, self._graph.num_edges, square=square
            )
            n = matrix.shape[0]
            self.cost.charge("batch_recount", n * n * n)
        else:
            adjacency = self._graph.csr_matrix()
            square, work = self._spgemm(adjacency, adjacency)
            labels = self._graph.interner.labels
            self._oracle.rebuild_from_mirrored_csr(adjacency, labels, square)
            self._count = four_cycles_from_csr_square(
                square, adjacency.row_lengths(), self._graph.num_edges
            )
            self.cost.charge("batch_recount", work)

    def _three_paths(self, u: Vertex, v: Vertex) -> int:
        return self._oracle.count_three_paths(u, v)

    def _apply_structure_delta(self, u: Vertex, v: Vertex, sign: int) -> None:
        self._oracle.update_edge(u, v, sign)

    def _post_update(self, u: Vertex, v: Vertex, sign: int) -> None:
        self._oracle.end_edge(u, v)

    def _begin_batch(self) -> None:
        self._oracle.begin_batch()

    def _end_batch(self) -> None:
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

#: The endpoint sets of a sleeping phase: no products, no deltas.
_ASLEEP: tuple[EndpointSet, EndpointSet] = (_EMPTY_SET, _EMPTY_SET)
