"""Brute-force reference counter.

Answers every query by enumerating the neighborhoods of the two endpoints and
checking adjacency of the middle pair.  Worst-case update time
``O(deg(u) * deg(v))`` — far from the paper's bound, but trivially correct, so
it is the ground truth the test suite and the cross-validation experiment (E4)
measure every other counter against.
"""

from __future__ import annotations

from typing import Hashable

from repro.core.base import REPLAY_UPDATE_COST, DynamicFourCycleCounter
from repro.graph.updates import UpdateBatch
from repro.matmul.omega import DENSE_FLOP_COST, DICT_OP_COST, VECTORIZED_PRODUCT_OVERHEAD

Vertex = Hashable


class BruteForceCounter(DynamicFourCycleCounter):
    """Reference counter: no auxiliary structures, quadratic-in-degree queries."""

    name = "brute-force"

    def _replay_cost(self, batch: UpdateBatch, limit: float) -> float:
        """``deg(u)·deg(v)`` adjacency probes per update, each a charged
        ``has_edge`` call (about three label-keyed operations)."""
        neighbors = self._graph.neighbors
        total = 0.0
        for update in batch:
            probes = len(neighbors(update.u)) * len(neighbors(update.v))
            total += REPLAY_UPDATE_COST + 3 * probes * DICT_OP_COST
            if total >= limit:
                break
        return total

    def _rebuild_cost(self, vertices: int, edges: int) -> float:
        """The dense ``tr(A^4)`` recount it runs: its export and array passes,
        and ``n^3`` BLAS multiply-adds at the tenth of a unit each they took
        on the fitted shapes.  So a large sparse graph replays instead of
        densifying."""
        return (
            10 * VECTORIZED_PRODUCT_OVERHEAD
            + (vertices + edges) * DICT_OP_COST
            + vertices**3 * DENSE_FLOP_COST / 10
        )

    def _rebuild(self) -> None:
        """One trace-formula recount (one numpy ``tr(A^4)``) at the batch
        boundary, which is exactly where the batch contract requires the
        count to be exact."""
        n = self._graph.num_vertices
        # tr(A^4) costs two dense n x n products (A^2, then squared): ~2 n^3
        # multiply-adds, so the ops columns stay comparable across batch sizes.
        self.cost.charge("batch_recount", 2 * n * n * n)
        self._count = self.recount()

    def _three_paths(self, u: Vertex, v: Vertex) -> int:
        graph = self._graph
        total = 0
        neighbors_u = graph.neighbors(u)
        neighbors_v = graph.neighbors(v)
        # Enumerate from the smaller side first; the inner membership test is
        # O(1) either way, but charging reflects the actual scan sizes.
        for x in neighbors_u:
            if x == v:
                continue
            self.cost.charge("neighborhood_scan")
            for y in neighbors_v:
                if y == u or y == x:
                    continue
                self.cost.charge("adjacency_probe")
                if graph.has_edge(x, y):
                    total += 1
        return total
