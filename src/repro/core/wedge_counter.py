"""The simple wedge-based counter of Appendix A.

Maintains the number of wedges (2-paths) between every pair of vertices, in
a :class:`~repro.matmul.engine.SymmetricCountMatrix` (both orientations).  An
edge update adds the star of each endpoint over the other's neighbours,
``2·(deg(u) + deg(v)) = O(n)`` wedge entries written in two one-pass
:meth:`~repro.matmul.engine.SymmetricCountMatrix.add_star` calls, and a
query sums ``deg(u) = O(n)`` stored counts, giving the ``O(n)`` worst-case
update time of Lemma A.1.  The distinctness argument of Claim A.3 — every
3-walk counted is a genuine 3-path because the updated edge is absent at
query time — is inherited from the base-class ordering.

A batch window is replayed update by update or rebuilt in bulk, whichever the
base class's decision prices lower (the replay at its wedge-entry updates and
lookups, the rebuild at its export and its wedge entries).  The rebuild is one
``A @ A`` on whichever kernel the density-aware dispatcher picks: the
Gustavson SpGEMM kernel or one BLAS product over the interned adjacency
matrix.  Both paths end bit-identical; the choice is pure performance.
"""

from __future__ import annotations

import math
from typing import Hashable

import numpy as np

from repro.core.base import REPLAY_UPDATE_COST, DynamicFourCycleCounter, rebuild_base_cost
from repro.graph.updates import UpdateBatch
from repro.kernels import exact_integer_matmul
from repro.matmul.engine import SymmetricCountMatrix
from repro.matmul.omega import CSR_OP_COST, DICT_OP_COST

Vertex = Hashable


class WedgeCounter(DynamicFourCycleCounter):
    """Appendix A: all-pairs wedge counts, ``O(n)`` worst-case update time."""

    name = "wedge"

    def __init__(self, workers: int = 1) -> None:
        super().__init__(workers=workers)
        #: ``wedges[a][b]`` = number of common neighbors of ``a`` and ``b``;
        #: stored symmetrically (both orientations) for O(1) lookups.
        self._wedges = SymmetricCountMatrix()

    @property
    def wedge_matrix(self) -> SymmetricCountMatrix:
        """The maintained wedge-count matrix (read-only use only)."""
        return self._wedges

    def wedges_between(self, a: Vertex, b: Vertex) -> int:
        """The maintained number of wedges between ``a`` and ``b``."""
        return self._wedges.get(a, b)

    def _replay_cost(self, batch: UpdateBatch, limit: float) -> float:
        """Per update: ``2·(deg u + deg v)`` wedge entries and the query's
        ``min(deg u, |W row v|)`` lookups."""
        neighbors = self._graph.neighbors
        row = self._wedges.row
        total = 0.0
        for update in batch:
            degree_u = len(neighbors(update.u))
            entries = 2 * (degree_u + len(neighbors(update.v)))
            lookups = min(degree_u, len(row(update.v)))
            total += REPLAY_UPDATE_COST + (entries + lookups) * DICT_OP_COST
            if total >= limit:
                break
        return total

    def _replay_bound(self, batch: UpdateBatch) -> float:
        """Every update at the largest degree ``d``: a vertex of degree ``d``
        puts its ``d(d-1)`` ordered neighbour pairs in W, so ``d`` is at most
        the root of ``nnz(W)``, and an update prices at most ``5·d`` entries
        and lookups."""
        degree = (1 + math.sqrt(1 + 4 * self._wedges.nnz)) / 2
        return len(batch) * (REPLAY_UPDATE_COST + 5 * degree * DICT_OP_COST)

    def _rebuild_cost(self, vertices: int, edges: int) -> float:
        """The export and ``A @ A``'s stored entries: one dict entry and two
        SpGEMM expansions each, read off the maintained ``nnz(W)``."""
        return rebuild_base_cost(vertices, edges) + self._wedges.nnz * (
            DICT_OP_COST + 2 * CSR_OP_COST
        )

    def _rebuild(self) -> None:
        """One ``A @ A`` (off-diagonal) on whichever kernel the dispatcher
        picks, which also yields the exact 4-cycle count: an unordered pair
        with ``w`` common neighbors spans ``C(w, 2)`` 4-cycles per diagonal,
        and every 4-cycle has two diagonals, so the ordered-pair sum of
        ``C(w, 2)`` counts each cycle four times."""
        if self._adjacency_product_decision().backend == "dense":
            matrix, order = self._graph.interned_adjacency_matrix()
            self._rebuild_dense(matrix, order)
        else:
            self._rebuild_csr()

    def _rebuild_csr(self) -> None:
        """Full rebuild through the sparse SpGEMM kernel (no dense n x n)."""
        adjacency = self._graph.csr_matrix()
        wedge, work = self._spgemm(adjacency, adjacency)
        wedge = wedge.without_diagonal()
        self._wedges = SymmetricCountMatrix.from_csr(wedge, self._graph.interner.labels)
        pairs = wedge.data * (wedge.data - 1) // 2
        self._count = int(pairs.sum()) // 4
        self.cost.charge("batch_rebuild", work)

    def _rebuild_dense(self, matrix: np.ndarray, order) -> None:
        """Full rebuild through one dense BLAS product."""
        n = matrix.shape[0]
        wedge = exact_integer_matmul(matrix, matrix)
        np.fill_diagonal(wedge, 0)
        # One dense n x n product: ~n^3 multiply-adds, charged so the ops
        # columns stay comparable with the per-update structure_update path.
        self.cost.charge("batch_rebuild", n * n * n)
        self._wedges = SymmetricCountMatrix.from_dense(wedge, order)
        pairs = wedge * (wedge - 1) // 2
        self._count = int(pairs.sum()) // 4

    def _three_paths(self, u: Vertex, v: Vertex) -> int:
        # Sum wedges(x, v) over x in N(u).  The wedge matrix is symmetric, so
        # the sum can be aggregated from whichever side is smaller: the
        # neighborhood of u or the non-zero wedge row of v (the row is what a
        # high-degree neighborhood scan used to probe entry by entry).
        neighbors = self._graph.neighbors(u)
        row = self._wedges.row(v)
        total = 0
        if len(row) < len(neighbors):
            self.cost.charge("structure_lookup", len(row))
            for x, value in row.items():
                if x in neighbors:
                    total += value
        else:
            self.cost.charge("structure_lookup", len(neighbors))
            for x in neighbors:
                total += row.get(x, 0)
        return total

    def _apply_structure_delta(self, u: Vertex, v: Vertex, sign: int) -> None:
        # New wedges created (or destroyed) by the edge {u, v} are exactly the
        # wedges centered at u (paired with v) and centered at v (paired with
        # u); the edge itself is absent from the graph here, so the neighbor
        # sets never contain the opposite endpoint.  Each endpoint's
        # neighbours are the star of the other one: one symmetric pass writes
        # both orientations, charged one structure_update per entry.
        wedges = self._wedges
        neighbors_u = self._graph.neighbors(u)
        if neighbors_u:
            self.cost.charge("structure_update", 2 * len(neighbors_u))
            wedges.add_star(v, neighbors_u, sign)
        neighbors_v = self._graph.neighbors(v)
        if neighbors_v:
            self.cost.charge("structure_update", 2 * len(neighbors_v))
            wedges.add_star(u, neighbors_v, sign)
