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
* Queries are routed by the endpoint and middle classes as in Section 5.3 /
  Algorithm 3: paths through a dense middle are found by iterating the (few)
  dense vertices of that layer; paths through two sparse middles are found by
  scanning the neighborhood of a non-high endpoint and reading the sparse-wedge
  structures; and when **both** endpoints are high the answer comes from the
  phase decomposition (scheduled old-phase products plus the new-phase deltas).

Fidelity note.  The paper answers the high/high sparse-sparse case from six
explicitly stored old/new combinations (Eq. (15)) plus a warm-up-algorithm
subroutine, so that the new-phase ``B`` edges are never scanned at query time.
This implementation keeps the identical phase architecture and class routing
but answers that one case from the exact phase decomposition (which does scan
the new-phase deltas).  The result is exact in every case; only the worst-case
exponent of high/high queries is weaker than the paper's.  The warm-up
algorithm itself is implemented and tested separately in
:mod:`repro.core.warmup`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Set

import numpy as np

from repro.core.oracles import OracleBackedCounter, PhaseThreePathOracle
from repro.instrumentation.cost_model import CostModel
from repro.kernels import CsrMatrix, exact_integer_matmul
from repro.matmul.engine import CountMatrix
from repro.theory.parameters import solve_main_parameters

if TYPE_CHECKING:  # typing only; avoids a runtime import cycle
    from repro.graph.dynamic_graph import DynamicGraph

Vertex = Hashable


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
    def sparse_wedges_ab(self) -> CountMatrix:
        return self._wedges_a_sparse_b

    @property
    def sparse_wedges_bc(self) -> CountMatrix:
        return self._wedges_b_sparse_c

    def _dense_threshold(self) -> float:
        """The base dense/sparse degree threshold ``m^{2/3 - eps}``."""
        m = max(self._class_reference_m, 1)
        return max(2.0, float(m) ** (2.0 / 3.0 - self._eps))

    def _high_threshold(self) -> float:
        """The high-endpoint degree threshold ``m^{2/3 - eps}``."""
        m = max(self.num_edges, 1)
        return max(2.0, float(m) ** (2.0 / 3.0 - self._eps))

    def _combined_degree_l2(self, x: Vertex) -> int:
        """Combined degree of an L2 vertex in ``A`` and ``B`` (Section 4)."""
        a_side = self.relation(1).backward.get(x, _EMPTY_SET)
        b_side = self.relation(2).forward.get(x, _EMPTY_SET)
        return len(a_side) + len(b_side)

    def _combined_degree_l3(self, y: Vertex) -> int:
        """Combined degree of an L3 vertex in ``B`` and ``C``."""
        b_side = self.relation(2).backward.get(y, _EMPTY_SET)
        c_side = self.relation(3).forward.get(y, _EMPTY_SET)
        return len(b_side) + len(c_side)

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
        if self._deferred_l2 is not None and self._deferred_l3 is not None:
            # Batching: record the touched middles, check them at the boundary.
            if position == 1:
                self._deferred_l2.add(right)
            elif position == 2:
                self._deferred_l2.add(left)
                self._deferred_l3.add(right)
            else:
                self._deferred_l3.add(left)
            return
        self._refresh_class_thresholds()
        self._observe_classes(position, left, right)

    # -- batch deferral ---------------------------------------------------------------
    def begin_batch(self) -> None:
        """Defer both phase rollovers and dense/sparse class transitions.

        The Eq. (12) structures stay consistent with the *current* dense sets
        at every update (``_maintain_sparse_wedges`` branches on membership),
        and every query split is exact for any class assignment — hysteresis
        already lets classes lag behind degrees.  Deferring the transition
        checks to the batch boundary therefore preserves exactness.
        """
        super().begin_batch()
        if self._deferred_l2 is None:
            self._deferred_l2 = set()
            self._deferred_l3 = set()

    def end_batch(self) -> None:
        touched_l2 = self._deferred_l2 or ()
        touched_l3 = self._deferred_l3 or ()
        self._deferred_l2 = None
        self._deferred_l3 = None
        self._refresh_class_thresholds()
        for x in touched_l2:
            self._observe_l2(x)
        for y in touched_l3:
            self._observe_l3(y)
        super().end_batch()

    def rebuild_from_mirrored_graph(
        self,
        graph: "DynamicGraph",
        matrix: np.ndarray,
        labels: List[Vertex],
        square: Optional[np.ndarray] = None,
    ) -> None:
        """Bulk mirror rebuild: phase sync plus vectorized class structures.

        After the phase-oracle rebuild, the degree classes are recomputed from
        the interned degree vector (in the mirrored reduction every middle
        layer's combined degree is ``2 deg``) and the Eq. (12) sparse-wedge
        structures are rebuilt as one masked dense product
        ``A . diag(sparse) . B`` — the same quantity Claim 5.3 maintains tuple
        by tuple — instead of replaying per-update neighborhood scans.
        """
        super().rebuild_from_mirrored_graph(graph, matrix, labels, square)
        sparse_mask = self._recompute_mirrored_classes(2 * matrix.sum(axis=1), labels)
        # A . diag(sparse) . B with A = B = adjacency; the L2 and L3 sparse
        # sets coincide in the mirrored reduction, so one product serves both
        # structures (as independent copies — they are mutated separately).
        wedges = exact_integer_matmul(matrix * sparse_mask, matrix)
        self._wedges_a_sparse_b = CountMatrix.from_dense(wedges, labels)
        self._wedges_b_sparse_c = self._wedges_a_sparse_b.copy()
        n = matrix.shape[0]
        self.cost.charge("batch_rebuild", n * n * n)

    def rebuild_from_mirrored_csr(
        self,
        graph: "DynamicGraph",
        adjacency: CsrMatrix,
        labels: List[Vertex],
        square: CsrMatrix,
    ) -> None:
        """Sparse bulk rebuild: phase sync plus SpGEMM class structures.

        Identical quantities to :meth:`rebuild_from_mirrored_graph` — the
        Eq. (12) masked product becomes a column-filtered SpGEMM
        ``(A . diag(sparse)) . A`` — with no dense ``n x n`` materialized.
        """
        super().rebuild_from_mirrored_csr(graph, adjacency, labels, square)
        sparse_mask = self._recompute_mirrored_classes(2 * adjacency.row_lengths(), labels)
        wedges, work = self._spgemm(adjacency.filter_columns(sparse_mask), adjacency)
        self._wedges_a_sparse_b = CountMatrix.from_csr(wedges, labels)
        self._wedges_b_sparse_c = self._wedges_a_sparse_b.copy()
        self.cost.charge("batch_rebuild", work)

    def _recompute_mirrored_classes(
        self, combined_degrees: np.ndarray, labels: List[Vertex]
    ) -> np.ndarray:
        """Reset the dense L2/L3 sets from the mirrored combined degrees.

        Returns the sparse-vertex indicator the Eq. (12) products mask with.
        """
        m = max(self.num_edges, 1)
        self._class_reference_m = m
        threshold = self._dense_threshold()
        dense_mask = combined_degrees >= 2.0 * threshold
        dense_vertices = {labels[i] for i in np.nonzero(dense_mask)[0]}
        self._dense_l2 = dense_vertices
        self._dense_l3 = set(dense_vertices)
        return ~dense_mask

    def _maintain_sparse_wedges(self, position: int, left: Vertex, right: Vertex, sign: int) -> None:
        """On-the-fly maintenance of the Eq. (12) structures (Claim 5.3).

        Each neighborhood scan changes one row or one column of a structure
        and is applied as one bulk add, charged one ``structure_update`` per
        wedge.
        """
        if position == 1:
            # A update (u, x): wedges u - x - y for every B-neighbor y of a sparse x.
            u, x = left, right
            if x not in self._dense_l2:
                scan = self.relation(2).forward.get(x, _EMPTY_SET)
                self.cost.charge("structure_update", len(scan))
                self._wedges_a_sparse_b.add_row(u, scan, sign)
        elif position == 2:
            # B update (x, y): contributes to both structures.
            x, y = left, right
            if x not in self._dense_l2:
                scan = self.relation(1).backward.get(x, _EMPTY_SET)
                self.cost.charge("structure_update", len(scan))
                self._wedges_a_sparse_b.add_column(scan, y, sign)
            if y not in self._dense_l3:
                scan = self.relation(3).forward.get(y, _EMPTY_SET)
                self.cost.charge("structure_update", len(scan))
                self._wedges_b_sparse_c.add_row(x, scan, sign)
        else:
            # C update (y, v): wedges x - y - v for every B-neighbor x of a sparse y.
            y, v = left, right
            if y not in self._dense_l3:
                scan = self.relation(2).backward.get(y, _EMPTY_SET)
                self.cost.charge("structure_update", len(scan))
                self._wedges_b_sparse_c.add_column(scan, v, sign)

    def _refresh_class_thresholds(self) -> None:
        m = max(self.num_edges, 1)
        if m > 2 * self._class_reference_m or 2 * m < self._class_reference_m:
            self._class_reference_m = m

    def _observe_classes(self, position: int, left: Vertex, right: Vertex) -> None:
        """Check the affected middle-layer vertices for class transitions."""
        if position == 1:
            self._observe_l2(right)
        elif position == 2:
            self._observe_l2(left)
            self._observe_l3(right)
        else:
            self._observe_l3(left)

    def _observe_l2(self, x: Vertex) -> None:
        degree = self._combined_degree_l2(x)
        threshold = self._dense_threshold()
        if x in self._dense_l2:
            if degree < threshold:
                self._dense_l2.discard(x)
                self._patch_l2_transition(x, sign=+1)
        elif degree >= 2.0 * threshold:
            self._patch_l2_transition(x, sign=-1)
            self._dense_l2.add(x)

    def _observe_l3(self, y: Vertex) -> None:
        degree = self._combined_degree_l3(y)
        threshold = self._dense_threshold()
        if y in self._dense_l3:
            if degree < threshold:
                self._dense_l3.discard(y)
                self._patch_l3_transition(y, sign=+1)
        elif degree >= 2.0 * threshold:
            self._patch_l3_transition(y, sign=-1)
            self._dense_l3.add(y)

    def _patch_l2_transition(self, x: Vertex, sign: int) -> None:
        """Add (``sign=+1``) or remove (``-1``) every wedge through ``x`` from
        the ``A^{*S} · B^{S*}`` structure when ``x`` changes class."""
        a_side = self.relation(1).backward.get(x, _EMPTY_SET)
        b_side = self.relation(2).forward.get(x, _EMPTY_SET)
        self.cost.charge("rebuild_ops", len(a_side) * len(b_side))
        for u in a_side:
            self._wedges_a_sparse_b.add_row(u, b_side, sign)

    def _patch_l3_transition(self, y: Vertex, sign: int) -> None:
        b_side = self.relation(2).backward.get(y, _EMPTY_SET)
        c_side = self.relation(3).forward.get(y, _EMPTY_SET)
        self.cost.charge("rebuild_ops", len(b_side) * len(c_side))
        for x in b_side:
            self._wedges_b_sparse_c.add_row(x, c_side, sign)

    # -- query -------------------------------------------------------------------------
    def count_three_paths(self, u: Vertex, v: Vertex) -> int:
        if self.is_high_left(u) and self.is_high_right(v):
            # The hard case of Claim 5.8: both endpoints high.  The paper
            # resolves the sparse-sparse part from the Eq. (15) structures and
            # the warm-up subroutine; we take the exact phase decomposition.
            self.cost.charge("query_ops")
            return super().count_three_paths(u, v)
        return self._count_by_middle_classes(u, v)

    def _count_by_middle_classes(self, u: Vertex, v: Vertex) -> int:
        """Exact class-split query of Claims 5.8/5.9 (at least one non-high endpoint)."""
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
        # Sparse-sparse: scan the non-high endpoint's neighborhood.
        if not self.is_high_left(u) and (
            self.is_high_right(v) or len(a_forward) <= len(c_backward)
        ):
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


#: Shared immutable empty set.
_EMPTY_SET: frozenset = frozenset()
