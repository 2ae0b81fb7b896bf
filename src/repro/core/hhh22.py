"""The Hanauer–Henzinger–Hua (SAND 2022) style ``O(m^{2/3})`` baseline.

This is the algorithm the paper improves on, reimplemented from the
description in the paper's introduction ("Algorithm of Previous Work"):

* vertices are split into **high** (degree at least roughly ``m^{1/3}``) and
  **low** degree;
* the maintained structures are

  - ``P_LL[a][b]`` — 3-paths from ``a`` to ``b`` whose two middle vertices are
    both low,
  - ``W_low[a][b]`` — wedges from ``a`` to ``b`` through a low center,
  - ``W_hh[a][b]`` — wedges through a high center, stored only for pairs
    ``(a, b)`` that are themselves both high;

* a query ``(u, v)`` adds up: the stored ``P_LL`` entry, the paths with exactly
  one high middle (iterate the high vertices adjacent to an endpoint and use
  ``W_low``), and the paths with two high middles (enumerate neighbors when
  both endpoints are low, otherwise route through ``W_hh``).

The high/low threshold follows ``m`` with hysteresis: vertices are promoted at
degree ``2 * theta`` and demoted below ``theta``, and the whole structure is
rebuilt when ``m`` drifts by more than a factor of two since the threshold was
set, so class-transition work is amortized exactly as in [HHH22].  All
structures count *geometric* configurations (each path/wedge once, stored
symmetrically in a :class:`~repro.matmul.engine.SymmetricCountMatrix`, whose
``add_star`` writes one vertex's new wedges or paths, both orientations, in
one pass), and — as everywhere in this package — the updated edge is
absent from the graph during maintenance and queries, which removes every
degeneracy concern (Claim A.3 / Claim 8.1 style argument).
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Optional, Set

import numpy as np

from repro.core.base import REPLAY_UPDATE_COST, DynamicFourCycleCounter, rebuild_base_cost
from repro.graph.updates import UpdateBatch
from repro.kernels import csr_linear_combination, exact_integer_matmul
from repro.matmul.engine import SymmetricCountMatrix
from repro.matmul.omega import CSR_OP_COST, DICT_OP_COST

Vertex = Hashable


class HHH22Counter(DynamicFourCycleCounter):
    """High/low degree partitioned counter with ``O(m^{2/3})``-style update time."""

    name = "hhh22"

    def __init__(self, workers: int = 1) -> None:
        super().__init__(workers=workers)
        self._high: Set[Vertex] = set()
        self._wedges_low = SymmetricCountMatrix()   # W_low[a][b], low center
        self._wedges_high = SymmetricCountMatrix()  # W_hh[a][b], high center, a and b high
        self._paths_ll = SymmetricCountMatrix()     # P_LL[a][b], both middles low
        self._reference_m = 1
        self._theta = 1.0
        #: While a batch is in flight, class checks are deferred: touched
        #: vertices are collected here and examined once at the boundary.
        self._deferred_class_checks: Optional[Set[Vertex]] = None

    # -- introspection ---------------------------------------------------------
    @property
    def high_vertices(self) -> Set[Vertex]:
        """The current set of high-degree vertices (read-only use only)."""
        return self._high

    @property
    def threshold(self) -> float:
        """The current low/high degree threshold ``theta``."""
        return self._theta

    def is_high(self, vertex: Vertex) -> bool:
        return vertex in self._high

    # -- batch paths -------------------------------------------------------------
    def _replay_cost(self, batch: UpdateBatch, limit: float) -> float:
        """Per update, by class: ``2·deg`` W entries per low centre, the
        middle-edge ``deg(u)·deg(v)`` P_LL term when both endpoints are low,
        and per low endpoint the end-edge term, the degree sum over its low
        neighbours (``O(2θ)`` to read, as the endpoint is low).  A window
        whose net delta moves ``m`` out of the factor-2 band ends in
        :meth:`_full_rebuild`, so it is priced as a rebuild."""
        if self._outside_band(self._graph.num_edges + batch.net_edge_delta()):
            return limit
        neighbors = self._graph.neighbors
        high = self._high
        total = 0.0
        for update in batch:
            u, v = update.u, update.v
            operations = 0
            for endpoint in (u, v):
                if endpoint not in high:
                    around = neighbors(endpoint)
                    operations += 2 * len(around) + sum(
                        len(neighbors(y)) for y in around if y not in high
                    )
            if u not in high and v not in high:
                operations += len(neighbors(u)) * len(neighbors(v))
            total += REPLAY_UPDATE_COST + operations * DICT_OP_COST
            if total >= limit:
                break
        return total

    def _replay_bound(self, batch: UpdateBatch) -> float:
        """Every update at the low-degree bound ``2θ`` (a low vertex is
        promoted on reaching it): at most ``4·2θ + 3·(2θ)²`` entries.  A
        window that leaves the band has no bound."""
        if self._outside_band(self._graph.num_edges + batch.net_edge_delta()):
            return math.inf
        low = 2.0 * self._theta
        return len(batch) * (REPLAY_UPDATE_COST + (4 * low + 3 * low * low) * DICT_OP_COST)

    def _outside_band(self, edges: int) -> bool:
        """Whether ``edges`` lies outside the factor-2 band around the ``m``
        the threshold was set at (:meth:`_run_class_checks` then rebuilds)."""
        m = max(edges, 1)
        return m > 2 * self._reference_m or 2 * m < self._reference_m

    def _rebuild_cost(self, vertices: int, edges: int) -> float:
        """The export and the stored entries of ``W_low``, ``W_hh`` and
        ``P_LL``, each one dict entry and two SpGEMM expansions."""
        entries = self._wedges_low.nnz + self._wedges_high.nnz + self._paths_ll.nnz
        return rebuild_base_cost(vertices, edges) + entries * (DICT_OP_COST + 2 * CSR_OP_COST)

    def _rebuild(self) -> None:
        """Recompute classes, structures, and the count with matrix kernels.

        Exact because classes and structures are recomputed from scratch (the
        hysteresis band makes class *timing* a pure performance concern) and
        the count is taken from the full wedge matrix.  The structures are
        the same quantities ``_full_rebuild`` assembles edge by edge,
        expressed as matrix products over the interned adjacency matrix ``A``
        with ``L``/``H`` the low/high indicator vectors:

        * ``W_low  = (A . diag(L) . A)`` off-diagonal — wedges through a low
          center;
        * ``W_hh   = (A . diag(H) . A)`` off-diagonal, restricted to high
          endpoint pairs — wedges through a high center;
        * ``P_LL``: 3-walk count ``A . (diag(L) A diag(L)) . A`` minus the
          degenerate walks that reuse an endpoint (inclusion–exclusion over
          ``a = y`` and ``b = x``), diagonal zeroed.

        The products run on dense BLAS or on the CSR SpGEMM kernel, whichever
        the density-aware dispatcher picks; both assemble identical matrices.
        """
        self._refresh_thresholds()
        if self._adjacency_product_decision().backend == "dense":
            self._rebuild_structures_dense()
        else:
            self._rebuild_structures_csr()

    def _refresh_thresholds(self) -> None:
        m = max(self._graph.num_edges, 1)
        self._reference_m = m
        self._theta = max(1.0, float(m) ** (1.0 / 3.0))

    def _rebuild_structures_dense(self) -> None:
        graph = self._graph
        matrix, labels = graph.interned_adjacency_matrix()
        n = matrix.shape[0]
        degrees = matrix.sum(axis=1)
        high_mask = degrees >= 2.0 * self._theta
        low_mask = ~high_mask
        self._high = {labels[i] for i in np.nonzero(high_mask)[0]}
        # Count: every unordered pair with w common neighbors spans C(w, 2)
        # 4-cycles per diagonal; the ordered-pair sum counts each cycle 4x.
        wedge = exact_integer_matmul(matrix, matrix)
        np.fill_diagonal(wedge, 0)
        pairs = wedge * (wedge - 1) // 2
        self._count = int(pairs.sum()) // 4
        # Wedges split by their center's class.
        low_centers = exact_integer_matmul(matrix * low_mask, matrix)
        np.fill_diagonal(low_centers, 0)
        self._wedges_low = SymmetricCountMatrix.from_dense(low_centers, labels)
        high_centers = wedge - low_centers  # complementary center classes
        high_centers *= np.outer(high_mask, high_mask)
        self._wedges_high = SymmetricCountMatrix.from_dense(high_centers, labels)
        # 3-paths with two low middles, by inclusion-exclusion on 3-walks.
        middle = matrix * np.outer(low_mask, low_mask)
        walks = exact_integer_matmul(exact_integer_matmul(matrix, middle), matrix)
        low_degrees = (matrix * low_mask).sum(axis=1)
        end_reuse = (low_mask * low_degrees)[:, None] * matrix
        paths = walks - end_reuse - end_reuse.T + middle
        np.fill_diagonal(paths, 0)
        self._paths_ll = SymmetricCountMatrix.from_dense(paths, labels)
        # Four dense n x n products, charged so the ops columns stay
        # comparable with the per-update structure_update path.
        self.cost.charge("batch_rebuild", 4 * n * n * n)

    def _rebuild_structures_csr(self) -> None:
        """The same rebuild, entirely sparse: no dense n x n is materialized.

        Masks become entry filters (``A . diag(L)`` drops masked columns,
        ``diag(L) . A`` masked rows), the additive inclusion–exclusion runs as
        an exact COO linear combination, and every product goes through the
        Gustavson kernel.
        """
        graph = self._graph
        adjacency = graph.csr_matrix()
        labels = graph.interner.labels
        n = adjacency.num_rows
        degrees = adjacency.row_lengths()
        high_mask = degrees >= 2.0 * self._theta
        low_mask = ~high_mask
        self._high = {labels[i] for i in np.nonzero(high_mask)[0]}
        work = 0
        wedge, spent = self._spgemm(adjacency, adjacency)
        work += spent
        wedge = wedge.without_diagonal()
        pairs = wedge.data * (wedge.data - 1) // 2
        self._count = int(pairs.sum()) // 4
        masked_columns = adjacency.filter_columns(low_mask)  # A . diag(L)
        low_centers, spent = self._spgemm(masked_columns, adjacency)
        work += spent
        low_centers = low_centers.without_diagonal()
        self._wedges_low = SymmetricCountMatrix.from_csr(low_centers, labels)
        high_centers = (
            csr_linear_combination([(1, wedge), (-1, low_centers)], n, n)
            .filter_rows(high_mask)
            .filter_columns(high_mask)
        )
        self._wedges_high = SymmetricCountMatrix.from_csr(high_centers, labels)
        middle = masked_columns.filter_rows(low_mask)  # diag(L) . A . diag(L)
        inner, spent = self._spgemm(adjacency, middle)
        work += spent
        walks, spent = self._spgemm(inner, adjacency)
        work += spent
        low_degrees = masked_columns.row_sums()
        end_reuse = adjacency.scale_rows(np.where(low_mask, low_degrees, 0))
        paths = csr_linear_combination(
            [(1, walks), (-1, end_reuse), (-1, end_reuse.transpose()), (1, middle)], n, n
        ).without_diagonal()
        self._paths_ll = SymmetricCountMatrix.from_csr(paths, labels)
        self.cost.charge("batch_rebuild", work)

    # -- query ------------------------------------------------------------------
    def _three_paths(self, u: Vertex, v: Vertex) -> int:
        total = 0
        # Both middles low: stored directly.
        self.cost.charge("structure_lookup")
        total += self._paths_ll.get(u, v)
        # Exactly one high middle: iterate high vertices adjacent to one
        # endpoint and read the low-center wedges to the other endpoint.
        total += self._one_high_middle(u, v)
        total += self._one_high_middle(v, u)
        # Both middles high.
        u_high = u in self._high
        v_high = v in self._high
        if not u_high and not v_high:
            total += self._both_high_by_enumeration(u, v)
        elif u_high and v_high:
            for x in self._high_neighbors(u):
                self.cost.charge("structure_lookup")
                total += self._wedges_high.get(x, v)
        elif u_high:
            for y in self._graph.neighbors(v):
                self.cost.charge("neighborhood_scan")
                if y in self._high:
                    self.cost.charge("structure_lookup")
                    total += self._wedges_high.get(u, y)
        else:  # v high, u low
            for x in self._graph.neighbors(u):
                self.cost.charge("neighborhood_scan")
                if x in self._high:
                    self.cost.charge("structure_lookup")
                    total += self._wedges_high.get(x, v)
        return total

    def _one_high_middle(self, endpoint: Vertex, other: Vertex) -> int:
        """Paths ``endpoint - x - y - other`` with ``x`` high and ``y`` low."""
        total = 0
        for x in self._high_neighbors(endpoint):
            self.cost.charge("structure_lookup")
            total += self._wedges_low.get(x, other)
        return total

    def _both_high_by_enumeration(self, u: Vertex, v: Vertex) -> int:
        """Paths with two high middles when both endpoints are low: enumerate
        the (small) neighborhoods and test the middle edge directly."""
        total = 0
        graph = self._graph
        for x in graph.neighbors(u):
            if x not in self._high:
                continue
            for y in graph.neighbors(v):
                self.cost.charge("adjacency_probe")
                if y in self._high and y != x and graph.has_edge(x, y):
                    total += 1
        return total

    def _high_neighbors(self, vertex: Vertex) -> Iterable[Vertex]:
        """High vertices adjacent to ``vertex``, iterating the smaller of the
        neighborhood and the global high set (the [HHH22] trick for keeping the
        scan within ``O(m^{2/3})``)."""
        neighbors = self._graph.neighbors(vertex)
        if len(neighbors) <= len(self._high):
            for candidate in neighbors:
                self.cost.charge("neighborhood_scan")
                if candidate in self._high:
                    yield candidate
        else:
            for candidate in self._high:
                self.cost.charge("adjacency_probe")
                if candidate in neighbors:
                    yield candidate

    # -- maintenance -------------------------------------------------------------
    def _apply_structure_delta(self, u: Vertex, v: Vertex, sign: int) -> None:
        self._update_wedges(u, v, sign)
        self._update_wedges(v, u, sign)
        self._update_paths_middle_edge(u, v, sign)
        self._update_paths_end_edge(u, v, sign)
        self._update_paths_end_edge(v, u, sign)

    def _update_wedges(self, center: Vertex, other: Vertex, sign: int) -> None:
        """Wedges created/destroyed with ``center`` as the middle vertex and the
        new edge ``{center, other}`` as one of the wedge's two edges: the star
        of ``other`` over ``center``'s neighbours (its high ones, for
        ``W_hh``), charged one ``structure_update`` per entry.  The edge is
        absent, so ``other`` is not among them."""
        if center in self._high:
            if other not in self._high:
                return
            # Materialized first: the scan charges as it iterates.
            ends = list(self._high_neighbors(center))
            wedges = self._wedges_high
        else:
            ends = self._graph.neighbors(center)
            wedges = self._wedges_low
        self.cost.charge("structure_update", 2 * len(ends))
        wedges.add_star(other, ends, sign)

    def _update_paths_middle_edge(self, u: Vertex, v: Vertex, sign: int) -> None:
        """3-paths whose *middle* edge is the new edge ``{u, v}`` (both middles
        must be low): for every ``a`` in ``N(u)``, its star over ``N(v)``
        without ``a``, charged one ``structure_update`` per pair scanned."""
        if u in self._high or v in self._high:
            return
        graph = self._graph
        paths = self._paths_ll
        neighbors_u = graph.neighbors(u)
        neighbors_v = graph.neighbors(v)
        self.cost.charge("structure_update", len(neighbors_u) * len(neighbors_v))
        for a in neighbors_u:
            paths.add_star(a, neighbors_v - {a} if a in neighbors_v else neighbors_v, sign)

    def _update_paths_end_edge(self, endpoint: Vertex, middle: Vertex, sign: int) -> None:
        """3-paths whose first edge is the new edge: ``endpoint - middle - y - b``
        with ``middle`` and ``y`` both low.  Per low ``y``, the star of
        ``endpoint`` over ``N(y)`` without ``endpoint`` and ``middle``; the
        scan of ``N(middle)`` is charged per neighbour and the star per
        neighbour of ``y``."""
        if middle in self._high:
            return
        graph = self._graph
        high = self._high
        paths = self._paths_ll
        around = graph.neighbors(middle)
        excluded = {endpoint, middle}
        scanned = 0
        for y in around:
            if y in high:
                continue
            ends = graph.neighbors(y)
            scanned += len(ends)
            paths.add_star(endpoint, ends - excluded, sign)
        self.cost.charge("neighborhood_scan", len(around))
        self.cost.charge("structure_update", scanned)

    # -- class transitions ---------------------------------------------------------
    def _post_update(self, u: Vertex, v: Vertex, sign: int) -> None:
        if self._deferred_class_checks is not None:
            self._deferred_class_checks.update((u, v))
            return
        self._run_class_checks((u, v))

    def _begin_batch(self) -> None:
        self._deferred_class_checks = set()

    def _end_batch(self) -> None:
        touched = self._deferred_class_checks or ()
        self._deferred_class_checks = None
        self._run_class_checks(touched)

    def _run_class_checks(self, vertices: Iterable[Vertex]) -> None:
        """Rebuild on ``m`` drift, else re-examine the touched vertices.

        The hysteresis band makes the *timing* of these checks a pure
        performance concern: every structure is maintained consistently with
        the current ``self._high`` set, so deferring transitions to a batch
        boundary never affects exactness — it only lets vertex classes lag by
        at most one batch.
        """
        if self._outside_band(self._graph.num_edges):
            self._full_rebuild()
            return
        for vertex in vertices:
            degree = self._graph.degree(vertex)
            if vertex in self._high and degree < self._theta:
                self._demote(vertex)
            elif vertex not in self._high and degree >= 2.0 * self._theta:
                self._promote(vertex)

    def _promote(self, vertex: Vertex) -> None:
        """Move ``vertex`` from low to high, patching every structure."""
        graph = self._graph
        neighbors = list(graph.neighbors(vertex))
        # Wedges centered at the vertex leave W_low.
        for i, a in enumerate(neighbors):
            for b in neighbors[i + 1:]:
                self.cost.charge("rebuild_ops", 2)
                self._wedges_low.add(a, b, -1)
                self._wedges_low.add(b, a, -1)
        # 3-paths with the vertex as a (low) middle leave P_LL.
        self._adjust_paths_for_middle(vertex, -1)
        self._high.add(vertex)
        # Wedges centered at the vertex between high endpoints enter W_hh ...
        high_neighbors = [a for a in neighbors if a in self._high]
        for i, a in enumerate(high_neighbors):
            for b in high_neighbors[i + 1:]:
                self.cost.charge("rebuild_ops", 2)
                self._wedges_high.add(a, b, 1)
                self._wedges_high.add(b, a, 1)
        # ... and wedges with the vertex as a (now high) endpoint through a
        # high center enter W_hh as well.
        for center in neighbors:
            if center not in self._high:
                continue
            for b in self._high_neighbors(center):
                if b == vertex:
                    continue
                self.cost.charge("rebuild_ops", 2)
                self._wedges_high.add(vertex, b, 1)
                self._wedges_high.add(b, vertex, 1)

    def _demote(self, vertex: Vertex) -> None:
        """Move ``vertex`` from high to low, patching every structure."""
        graph = self._graph
        neighbors = list(graph.neighbors(vertex))
        high_neighbors = [a for a in neighbors if a in self._high and a != vertex]
        # Wedges centered at the vertex between high endpoints leave W_hh.
        for i, a in enumerate(high_neighbors):
            for b in high_neighbors[i + 1:]:
                self.cost.charge("rebuild_ops", 2)
                self._wedges_high.add(a, b, -1)
                self._wedges_high.add(b, a, -1)
        # Wedges with the vertex as a high endpoint leave W_hh.
        for b, value in list(self._wedges_high.row(vertex).items()):
            self.cost.charge("rebuild_ops", 2)
            self._wedges_high.add(vertex, b, -value)
            self._wedges_high.add(b, vertex, -value)
        self._high.discard(vertex)
        # Wedges centered at the vertex enter W_low.
        for i, a in enumerate(neighbors):
            for b in neighbors[i + 1:]:
                self.cost.charge("rebuild_ops", 2)
                self._wedges_low.add(a, b, 1)
                self._wedges_low.add(b, a, 1)
        # 3-paths with the vertex as a (now low) middle enter P_LL.
        self._adjust_paths_for_middle(vertex, 1)

    def _adjust_paths_for_middle(self, vertex: Vertex, sign: int) -> None:
        """Add or remove every 3-path that uses ``vertex`` as a low middle with
        another low middle next to it."""
        graph = self._graph
        for y in graph.neighbors(vertex):
            if y in self._high:
                continue
            for a in graph.neighbors(vertex):
                if a == y:
                    continue
                for b in graph.neighbors(y):
                    if b == vertex or b == a:
                        continue
                    self.cost.charge("rebuild_ops", 2)
                    self._paths_ll.add(a, b, sign)
                    self._paths_ll.add(b, a, sign)

    def _full_rebuild(self) -> None:
        """Recompute the threshold, classes and all structures from scratch.

        Triggered when ``m`` drifts by a factor of two since the threshold was
        set, which happens ``O(log m)`` times over any stream prefix.
        """
        graph = self._graph
        m = max(graph.num_edges, 1)
        self._reference_m = m
        self._theta = max(1.0, float(m) ** (1.0 / 3.0))
        self._high = {
            vertex for vertex in graph.vertices() if graph.degree(vertex) >= 2.0 * self._theta
        }
        self._wedges_low = SymmetricCountMatrix()
        self._wedges_high = SymmetricCountMatrix()
        self._paths_ll = SymmetricCountMatrix()
        # Wedges, grouped by their center's class.
        for center in graph.vertices():
            neighbors = list(graph.neighbors(center))
            self.cost.charge("rebuild_ops", len(neighbors))
            if center in self._high:
                high_neighbors = [a for a in neighbors if a in self._high]
                for i, a in enumerate(high_neighbors):
                    for b in high_neighbors[i + 1:]:
                        self.cost.charge("rebuild_ops", 2)
                        self._wedges_high.add(a, b, 1)
                        self._wedges_high.add(b, a, 1)
            else:
                for i, a in enumerate(neighbors):
                    for b in neighbors[i + 1:]:
                        self.cost.charge("rebuild_ops", 2)
                        self._wedges_low.add(a, b, 1)
                        self._wedges_low.add(b, a, 1)
        # 3-paths through two low middles, grouped by their middle edge.
        for x, y in graph.edges():
            if x in self._high or y in self._high:
                continue
            for a in graph.neighbors(x):
                if a == y:
                    continue
                for b in graph.neighbors(y):
                    if b == x or b == a:
                        continue
                    self.cost.charge("rebuild_ops")
                    self._paths_ll.add(a, b, 1)
                    self._paths_ll.add(b, a, 1)
