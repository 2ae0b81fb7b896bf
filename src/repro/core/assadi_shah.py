"""The main algorithm (Sections 4–7): phases, degree classes, and FMM.

:class:`AssadiShahThreePathOracle` layers the paper's degree-class machinery on
top of the phase + FMM oracle:

* ``L2``/``L3`` vertices are classified **dense** or **sparse** by their
  combined degree, with a factor-two hysteresis band so a vertex only changes
  class after its degree has doubled or halved (the Section 7 overlap regions).
* The Eq. (12) structures ``A^{*S} · B^{S*}`` and ``B^{*S} · C^{S*}`` (wedge
  counts through sparse middle vertices) are maintained *on the fly* at every
  update, exactly as Claim 5.3 describes, and patched when a vertex changes
  class (the Section 7 Type-2 transitions).
* Mirrored (the Section 8 reduction), the L2 and L3 classes are one dense
  set and the two Eq. (12) structures one symmetric ``W = A·diag(S)·A``, a
  :class:`~repro.matmul.engine.SymmetricCountMatrix` maintained per graph
  edge (:meth:`AssadiShahThreePathOracle.update_edge`): each sparse endpoint
  adds its star in one pass that writes both orientations.
* Queries are routed by the endpoint and middle classes as in Section 5.3 /
  Algorithm 3: paths through a dense middle are found by iterating the (few)
  dense vertices of that layer; paths through two sparse middles are found by
  scanning the neighborhood of a non-high endpoint and reading the sparse-wedge
  structures; and when **both** endpoints are high the answer may come from
  the phase decomposition (scheduled old-phase products plus the new-phase
  deltas).
* Since only high/high queries read the old-phase products, they are computed
  for the high endpoints only: each phase start fixes
  ``H_L = {u : |A(u)| >= m^{2/3-eps}}`` and ``H_R = {v : |C(v)| >= m^{2/3-eps}}``
  and schedules ``A_o[H_L,:]·B_o``, ``B_o·C_o[:,H_R]`` and their chain (the
  shape of the warm-up's ``P_HH``).  While either set is empty the phase
  machinery sleeps: no snapshot, no job, no delta store, only the phase clock.
  A vertex that turns high mid-phase is answered by the class split, which is
  exact for any pair, until the next phase's products serve it.

Fidelity note.  The paper answers the high/high sparse-sparse case from six
explicitly stored old/new combinations (Eq. (15)) plus a warm-up-algorithm
subroutine, so that the new-phase ``B`` edges are never scanned at query time.
This implementation keeps the identical phase architecture and class routing
but answers a high/high query by whichever of two exact paths costs fewer
operations, judged from sizes known in O(1): the phase decomposition, about
``1 + |dA(u)| + |dC(v)| + |dA(u)|·|dC(v)| + 2·|dB|`` operations (it scans the
new-phase deltas), or the class split, about ``|D2|·(1 + 2·|D3|) + |D3|`` plus
one endpoint scan.  Either can exceed the paper's bound: after
``hub_adversarial_stream(3200, 12800, num_hubs=4, seed=1)`` a toggle of the
absent hub edge ``(0, 1)`` costs 676,043 operations on the phase path
(``|dB| = 9,052``) and 1,254 through the split, so routing by cost keeps such
toggles near the split's cost, but a query with both dense middles and many
new ``B`` edges still pays for one of them.  The result is exact in every
case; only the worst-case exponent of high/high queries is weaker than the
paper's until Eq. (15) is implemented.  The warm-up algorithm itself is
implemented and tested separately in :mod:`repro.core.warmup`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Hashable, Iterable, List, Optional, Set, Union

import numpy as np

from repro.core.oracles import OracleBackedCounter, PhaseThreePathOracle
from repro.graph.updates import EdgeUpdate
from repro.instrumentation.cost_model import CostModel
from repro.kernels import CsrMatrix, exact_integer_matmul
from repro.matmul.engine import CountMatrix, SymmetricCountMatrix
from repro.matmul.omega import CSR_OP_COST, DICT_OP_COST
from repro.theory.parameters import solve_main_parameters

if TYPE_CHECKING:  # typing only; avoids a runtime import cycle
    from repro.graph.dynamic_graph import DynamicGraph

Vertex = Hashable
#: An Eq. (12) structure: a layered oracle's, or the mirrored symmetric ``W``.
WedgeTable = Union[CountMatrix, SymmetricCountMatrix]


class AssadiShahThreePathOracle(PhaseThreePathOracle):
    """Phase oracle plus degree classes and sparse-wedge structures (Eq. (12))."""

    name = "assadi-shah-oracle"

    def __init__(
        self,
        phase_length: Optional[int] = None,
        eps: Optional[float] = None,
        delta: Optional[float] = None,
        min_phase_length: int = 16,
        cost: Optional[CostModel] = None,
    ) -> None:
        parameters = solve_main_parameters()
        self._eps = eps if eps is not None else parameters.eps
        super().__init__(
            phase_length=phase_length,
            delta=delta if delta is not None else parameters.delta,
            min_phase_length=min_phase_length,
            cost=cost,
        )
        #: Eq. (12): wedges L1 -> L3 through sparse L2 vertices.
        self._wedges_a_sparse_b = CountMatrix()
        #: Eq. (12): wedges L2 -> L4 through sparse L3 vertices.
        self._wedges_b_sparse_c = CountMatrix()
        self._dense_l2: Set[Vertex] = set()
        self._dense_l3: Set[Vertex] = set()
        self._class_reference_m = 1
        # While a batch is in flight, middle vertices touched by updates are
        # collected here and their class transitions are checked once at the
        # boundary (None = not batching).
        self._deferred_l2: Optional[Set[Vertex]] = None
        self._deferred_l3: Optional[Set[Vertex]] = None

    # -- class machinery ----------------------------------------------------------
    @property
    def dense_l2(self) -> Set[Vertex]:
        """Currently dense vertices of layer L2 (read-only use only)."""
        return self._dense_l2

    @property
    def dense_l3(self) -> Set[Vertex]:
        """Currently dense vertices of layer L3 (read-only use only)."""
        return self._dense_l3

    @property
    def sparse_wedges_ab(self) -> WedgeTable:
        return self._wedges_a_sparse_b

    @property
    def sparse_wedges_bc(self) -> WedgeTable:
        return self._wedges_b_sparse_c

    def _dense_threshold(self) -> float:
        """The base dense/sparse degree threshold ``m^{2/3 - eps}``."""
        m = max(self._class_reference_m, 1)
        return max(2.0, float(m) ** (2.0 / 3.0 - self._eps))

    def _high_threshold(self) -> float:
        """The high-endpoint degree threshold ``m^{2/3 - eps}``."""
        m = max(self.num_edges, 1)
        return max(2.0, float(m) ** (2.0 / 3.0 - self._eps))

    def _endpoint_degree_floor(self) -> float:
        """The old-phase products serve the high endpoints only: every other
        query goes through the class split, which never reads them."""
        return self._high_threshold()

    def _middle(self, layer: int) -> tuple[Set[Vertex], WedgeTable]:
        """The dense set and the Eq. (12) structure of middle layer ``layer``
        (2 for L2, 3 for L3), whose vertices' in-tuples sit at chain position
        ``layer - 1`` and out-tuples at ``layer``."""
        if layer == 2:
            return self._dense_l2, self._wedges_a_sparse_b
        return self._dense_l3, self._wedges_b_sparse_c

    def is_high_left(self, u: Vertex) -> bool:
        """Whether an L1 endpoint is high (classified by its degree in ``A``)."""
        return len(self.relation(1).forward.get(u, _EMPTY_SET)) >= self._high_threshold()

    def is_high_right(self, v: Vertex) -> bool:
        """Whether an L4 endpoint is high (classified by its degree in ``C``)."""
        return len(self.relation(3).backward.get(v, _EMPTY_SET)) >= self._high_threshold()

    # -- maintenance -----------------------------------------------------------------
    def _after_relation_update(self, position: int, left: Vertex, right: Vertex, sign: int) -> None:
        self._maintain_sparse_wedges(position, left, right, sign)
        super()._after_relation_update(position, left, right, sign)
        if position == 1:
            self._check_classes((right,), ())
        elif position == 2:
            self._check_classes((left,), (right,))
        else:
            self._check_classes((), (left,))

    # -- the mirrored setting -------------------------------------------------------------
    def mirror(self, graph: "DynamicGraph") -> None:
        # Both middle layers are the graph's vertices, with combined degree
        # 2·deg: one class split, and one symmetric W serves both Eq. (12)
        # structures.
        super().mirror(graph)
        self._dense_l3 = self._dense_l2
        self._wedges_a_sparse_b = self._wedges_b_sparse_c = SymmetricCountMatrix()

    def update_edge(self, u: Vertex, v: Vertex, sign: int) -> None:
        """Claim 5.3 for a graph edge: ``W += sign·(ΔA·S·A + A·S·ΔA + ΔA·S·ΔA)``
        with ``ΔA = e_u e_v^T + e_v e_u^T`` and ``A`` the graph without it.  A
        sparse ``v`` adds ``u``'s star over its neighbourhood, row and column
        ``u`` in one pass, plus ``W[u, u]`` (``2·deg(v) + 1`` wedges, charged
        one ``structure_update`` each), and a sparse ``u`` does the same for
        ``v``."""
        wedges = self._wedges_a_sparse_b
        neighbors = self.relation(2).forward
        for middle, endpoint in ((v, u), (u, v)):
            if middle not in self._dense_l2:
                scan = neighbors.get(middle, _EMPTY_SET)
                self.cost.charge("structure_update", 2 * len(scan) + 1)
                wedges.add_star(endpoint, scan, sign)
                wedges.add(endpoint, endpoint, sign)
        super().update_edge(u, v, sign)

    def end_edge(self, u: Vertex, v: Vertex) -> None:
        # The endpoints are the only vertices whose degree moved.
        self._check_classes((u, v), ())
        super().end_edge(u, v)

    # -- batch deferral ---------------------------------------------------------------
    def begin_batch(self) -> None:
        """Defer both phase rollovers and dense/sparse class transitions.

        The Eq. (12) structures stay consistent with the *current* dense sets
        at every update (their maintenance branches on membership), and every
        query split is exact for any class assignment — hysteresis already
        lets classes lag behind degrees.  Deferring the transition checks to
        the batch boundary therefore preserves exactness.
        """
        super().begin_batch()
        if self._deferred_l2 is None:
            self._deferred_l2 = set()
            self._deferred_l3 = set()

    def end_batch(self) -> None:
        touched = (self._deferred_l2 or (), self._deferred_l3 or ())
        self._deferred_l2 = self._deferred_l3 = None
        self._check_classes(*touched)
        super().end_batch()

    def rebuild_from_mirrored_graph(
        self,
        matrix: np.ndarray,
        labels: List[Vertex],
        square: Optional[np.ndarray] = None,
    ) -> None:
        """Bulk mirror rebuild: phase sync plus vectorized class structures.

        After the phase-oracle rebuild, the degree classes are recomputed from
        the interned degree vector (in the mirrored reduction every middle
        layer's combined degree is ``2 deg``) and ``W`` is rebuilt as one
        masked dense product ``A . diag(sparse) . A`` — the same quantity
        Claim 5.3 maintains edge by edge — instead of replaying per-update
        neighborhood scans.
        """
        super().rebuild_from_mirrored_graph(matrix, labels, square)
        sparse_mask = self._recompute_mirrored_classes(2 * matrix.sum(axis=1), labels)
        wedges = exact_integer_matmul(matrix * sparse_mask, matrix)
        self._wedges_a_sparse_b = self._wedges_b_sparse_c = SymmetricCountMatrix.from_dense(
            wedges, labels
        )
        n = matrix.shape[0]
        self.cost.charge("batch_rebuild", n * n * n)

    def rebuild_from_mirrored_csr(
        self,
        adjacency: CsrMatrix,
        labels: List[Vertex],
        square: CsrMatrix,
    ) -> None:
        """Sparse bulk rebuild: phase sync plus SpGEMM class structures.

        Identical quantities to :meth:`rebuild_from_mirrored_graph` — the
        Eq. (12) masked product becomes a column-filtered SpGEMM
        ``(A . diag(sparse)) . A`` — with no dense ``n x n`` materialized.
        """
        super().rebuild_from_mirrored_csr(adjacency, labels, square)
        sparse_mask = self._recompute_mirrored_classes(2 * adjacency.row_lengths(), labels)
        wedges, work = self._spgemm(adjacency.filter_columns(sparse_mask), adjacency)
        self._wedges_a_sparse_b = self._wedges_b_sparse_c = SymmetricCountMatrix.from_csr(
            wedges, labels
        )
        self.cost.charge("batch_rebuild", work)

    # -- batch pricing ----------------------------------------------------------------
    def rebuild_cost(self, vertices: int, edges: int) -> float:
        """The phase oracle's price plus ``W``: its masked SpGEMM and one
        dict per row, and the counter's ``A²``, all read off ``nnz(W)``."""
        wedges = self._wedges_a_sparse_b.nnz
        return super().rebuild_cost(vertices, edges) + wedges * (DICT_OP_COST + 2 * CSR_OP_COST)

    def replay_cost(self, updates: Iterable[EdgeUpdate], limit: float) -> float:
        """Per update: :meth:`_replay_update_cost`, the class-split query's
        ``|D2|·(1 + 2·|D3|) + |D3|`` operations plus the smaller endpoint
        scan (a high/high query takes the phase path only when that is
        cheaper), and ``2·deg + 1`` ``W`` entries per sparse endpoint."""
        fixed = self._replay_update_cost()
        neighbors = self.relation(2).forward
        dense = self._dense_l2
        split = len(dense) * (1 + 2 * len(self._dense_l3)) + len(self._dense_l3)
        total = 0.0
        for update in updates:
            u, v = update.u, update.v
            degree_u = len(neighbors.get(u, _EMPTY_SET))
            degree_v = len(neighbors.get(v, _EMPTY_SET))
            operations = split + min(degree_u, degree_v)
            if v not in dense:
                operations += 2 * degree_v + 1
            if u not in dense:
                operations += 2 * degree_u + 1
            total += fixed + operations * DICT_OP_COST
            if total >= limit:
                break
        return total

    def _recompute_mirrored_classes(
        self, combined_degrees: np.ndarray, labels: List[Vertex]
    ) -> np.ndarray:
        """Reset the one dense set from the mirrored combined degrees.

        Returns the sparse-vertex indicator the Eq. (12) product masks with.
        """
        m = max(self.num_edges, 1)
        self._class_reference_m = m
        threshold = self._dense_threshold()
        dense_mask = combined_degrees >= 2.0 * threshold
        self._dense_l2 = self._dense_l3 = {labels[i] for i in np.nonzero(dense_mask)[0]}
        return ~dense_mask

    def _maintain_sparse_wedges(self, position: int, left: Vertex, right: Vertex, sign: int) -> None:
        """On-the-fly maintenance of the Eq. (12) structures (Claim 5.3) for
        one tuple of a layered oracle.

        The tuple is an in-tuple of ``right`` in middle layer ``position + 1``
        and an out-tuple of ``left`` in middle layer ``position``, where those
        layers exist (an ``A`` tuple touches L2, a ``B`` tuple both, a ``C``
        tuple L3).  Through a sparse middle it adds the wedges
        ``left - right - out(right)`` as one bulk row add and
        ``in(left) - left - right`` as one bulk column add, each charged one
        ``structure_update`` per wedge.
        """
        if position < 3:
            dense, wedges = self._middle(position + 1)
            if right not in dense:
                scan = self.relation(position + 1).forward.get(right, _EMPTY_SET)
                self.cost.charge("structure_update", len(scan))
                wedges.add_row(left, scan, sign)
        if position > 1:
            dense, wedges = self._middle(position)
            if left not in dense:
                scan = self.relation(position - 1).backward.get(left, _EMPTY_SET)
                self.cost.charge("structure_update", len(scan))
                wedges.add_column(scan, right, sign)

    def _refresh_class_thresholds(self) -> None:
        m = max(self.num_edges, 1)
        if m > 2 * self._class_reference_m or 2 * m < self._class_reference_m:
            self._class_reference_m = m

    def _check_classes(self, l2: Iterable[Vertex], l3: Iterable[Vertex]) -> None:
        """Check the given middle vertices for class transitions; while
        batching, collect them for the check at the boundary instead."""
        if self._deferred_l2 is not None and self._deferred_l3 is not None:
            self._deferred_l2.update(l2)
            self._deferred_l3.update(l3)
            return
        self._refresh_class_thresholds()
        for layer, middles in ((2, l2), (3, l3)):
            for x in middles:
                self._observe_middle(layer, x)

    def _observe_middle(self, layer: int, x: Vertex) -> None:
        """Move middle vertex ``x`` to the dense class once its combined
        degree (Section 4) reaches twice the threshold, and back once it
        falls below the threshold."""
        dense, _ = self._middle(layer)
        degree = len(self.relation(layer - 1).backward.get(x, _EMPTY_SET)) + len(
            self.relation(layer).forward.get(x, _EMPTY_SET)
        )
        threshold = self._dense_threshold()
        if x in dense:
            if degree < threshold:
                dense.discard(x)
                self._patch_transition(layer, x, sign=+1)
        elif degree >= 2.0 * threshold:
            self._patch_transition(layer, x, sign=-1)
            dense.add(x)

    def _patch_transition(self, layer: int, x: Vertex, sign: int) -> None:
        """Add (``sign=+1``) or remove (``-1``) every wedge through ``x`` from
        its layer's Eq. (12) structure when ``x`` changes class: one row add
        per in-neighbour, or, on the mirrored ``W``, the square of ``x``'s
        neighbourhood (its in- and out-neighbours)."""
        into = self.relation(layer - 1).backward.get(x, _EMPTY_SET)
        out = self.relation(layer).forward.get(x, _EMPTY_SET)
        self.cost.charge("rebuild_ops", len(into) * len(out))
        _, wedges = self._middle(layer)
        if isinstance(wedges, SymmetricCountMatrix):
            wedges.add_square(out, sign)
        else:
            for u in into:
                wedges.add_row(u, out, sign)

    # -- query -------------------------------------------------------------------------
    def count_three_paths(self, u: Vertex, v: Vertex) -> int:
        rows, columns = self._endpoints
        if u in rows and v in columns and self._phase_path_is_cheaper(u, v):
            # The hard case of Claim 5.8: both endpoints high.  The paper
            # resolves the sparse-sparse part from the Eq. (15) structures and
            # the warm-up subroutine; we take the exact phase decomposition
            # when it costs less than the class split (see the fidelity note).
            self.cost.charge("query_ops")
            return super().count_three_paths(u, v)
        return self._count_by_middle_classes(u, v)

    def _phase_path_is_cheaper(self, u: Vertex, v: Vertex) -> bool:
        """Whether the phase decomposition of ``(u, v)`` costs fewer
        operations than :meth:`_count_by_middle_classes`, judged from sizes
        known in O(1): the phase path charges
        ``1 + |dA(u)| + |dC(v)| + |dA(u)|·|dC(v)| + 2·|dB|``, the class split
        at most ``|D2|·(1 + 2·|D3|) + |D3|`` plus its endpoint scan."""
        delta_a = len(self._delta_a_by_left.get(u, _EMPTY_DICT))
        delta_c = len(self._delta_c_by_right.get(v, _EMPTY_DICT))
        phase = 1 + delta_a + delta_c + delta_a * delta_c + 2 * len(self._delta_b)
        scan = min(
            len(self.relation(1).forward.get(u, _EMPTY_SET)),
            len(self.relation(3).backward.get(v, _EMPTY_SET)),
        )
        dense_l2, dense_l3 = len(self._dense_l2), len(self._dense_l3)
        return phase < dense_l2 * (1 + 2 * dense_l3) + dense_l3 + scan

    def _count_by_middle_classes(self, u: Vertex, v: Vertex) -> int:
        """Exact class-split query of Claims 5.8/5.9, for any pair of endpoints."""
        a_forward = self.relation(1).forward.get(u, _EMPTY_SET)
        c_backward = self.relation(3).backward.get(v, _EMPTY_SET)
        b_forward = self.relation(2).forward
        c_forward = self.relation(3).forward
        total = 0
        # Dense L2 middle: split the L3 middle into sparse (via B^{*S} C^{S*})
        # and dense (explicit pair enumeration).
        for x in self._dense_l2:
            self.cost.charge("adjacency_probe")
            if x not in a_forward:
                continue
            self.cost.charge("structure_lookup")
            total += self._wedges_b_sparse_c.get(x, v)
            x_b = b_forward.get(x, _EMPTY_SET)
            for y in self._dense_l3:
                self.cost.charge("adjacency_probe", 2)
                if y in x_b and v in c_forward.get(y, _EMPTY_SET):
                    total += 1
        # Sparse L2 middle with dense L3 middle: iterate the dense L3 vertices
        # adjacent to v and read the A^{*S} B^{S*} wedges.
        for y in self._dense_l3:
            self.cost.charge("adjacency_probe")
            if v in c_forward.get(y, _EMPTY_SET):
                self.cost.charge("structure_lookup")
                total += self._wedges_a_sparse_b.get(u, y)
        # Sparse-sparse: scan the smaller endpoint neighborhood (a non-high
        # endpoint's, whenever the other endpoint is high).
        if len(a_forward) <= len(c_backward):
            for x in a_forward:
                self.cost.charge("structure_lookup")
                if x not in self._dense_l2:
                    total += self._wedges_b_sparse_c.get(x, v)
        else:
            for y in c_backward:
                self.cost.charge("structure_lookup")
                if y not in self._dense_l3:
                    total += self._wedges_a_sparse_b.get(u, y)
        return total


class AssadiShahCounter(OracleBackedCounter):
    """General-graph 4-cycle counter using the main algorithm's oracle."""

    name = "assadi-shah"

    def __init__(
        self,
        phase_length: Optional[int] = None,
        eps: Optional[float] = None,
        delta: Optional[float] = None,
        min_phase_length: int = 16,
        workers: int = 1,
    ) -> None:
        oracle = AssadiShahThreePathOracle(
            phase_length=phase_length,
            eps=eps,
            delta=delta,
            min_phase_length=min_phase_length,
        )
        super().__init__(oracle=oracle, workers=workers)

    @property
    def main_oracle(self) -> AssadiShahThreePathOracle:
        oracle = self.oracle
        assert isinstance(oracle, AssadiShahThreePathOracle)
        return oracle

    @property
    def phases_completed(self) -> int:
        return self.main_oracle.phases_completed


def expected_update_exponent(eps: Optional[float] = None) -> float:
    """The theoretical worst-case update exponent ``2/3 - eps`` of Theorem 1."""
    if eps is None:
        eps = solve_main_parameters().eps
    return 2.0 / 3.0 - eps


def expected_phase_length(m: int, delta: Optional[float] = None) -> int:
    """The theoretical phase length ``m^{1 - delta}`` of Section 5.1."""
    if delta is None:
        delta = solve_main_parameters().delta
    return max(1, int(math.ceil(float(max(m, 1)) ** (1.0 - delta))))


#: Shared immutable empties.
_EMPTY_SET: frozenset = frozenset()
_EMPTY_DICT: Dict[Vertex, int] = {}
