"""Static (from-scratch) counting utilities.

These are the ground-truth oracles the dynamic algorithms are validated
against.  Two independent methods are provided for 4-cycle counting — the
closed-walk trace formula, which reads the graph's interned adjacency export,
and wedge enumeration, which reads only the label-keyed neighbor sets — so the
test suite can check them against each other as well as against the dynamic
counters.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Tuple

import numpy as np

from repro.graph.dynamic_graph import DynamicGraph
from repro.kernels import exact_integer_matmul

Vertex = Hashable


def _export_adjacency(graph: DynamicGraph) -> np.ndarray:
    """Adjacency matrix in interned-id order.

    The trace and walk formulas are order-insensitive, so they take the
    interned export: one vectorized scatter, no vertex sort.
    """
    matrix, _ = graph.interned_adjacency_matrix(dtype=np.int64)
    return matrix


def four_cycles_from_csr_square(square, degrees: np.ndarray, num_edges: int) -> int:
    """Exact 4-cycle count from the sparse self-product of the adjacency.

    The trace formula of :func:`four_cycles_from_adjacency` evaluated without
    a dense matrix: for symmetric ``A``, ``tr(A^4)`` is the squared Frobenius
    norm of ``A^2``, which is the sum of the squared stored entries of the
    SpGEMM product ``square`` (a :class:`~repro.matmul.engine.CsrMatrix`);
    ``degrees`` is the per-vertex degree vector.
    """
    if num_edges == 0:
        return 0
    walk_count = int((square.data * square.data).sum())
    degenerate = 2 * num_edges + 2 * int(np.sum(degrees * (degrees - 1)))
    remaining = walk_count - degenerate
    if remaining % 8 != 0:
        raise AssertionError(
            f"trace formula produced a non-multiple of 8 ({remaining}); "
            "the CSR adjacency export is inconsistent"
        )
    return remaining // 8


def closed_four_walks_from_adjacency(
    matrix: np.ndarray, square: np.ndarray | None = None
) -> int:
    """``tr(A^4)`` for a symmetric 0/1 adjacency matrix.

    Computed as the squared Frobenius norm of ``A^2`` — one dense product
    instead of the two a literal fourth power costs.  ``square`` short-cuts
    callers that already hold ``A^2``.
    """
    if square is None:
        square = exact_integer_matmul(matrix, matrix)
    return int((square * square).sum())


def four_cycles_from_adjacency(
    matrix: np.ndarray, num_edges: int, square: np.ndarray | None = None
) -> int:
    """Exact 4-cycle count from a symmetric 0/1 adjacency matrix.

    The closed-walk trace formula shared by every vectorized recount path
    (brute-force and counter rebuilds, static validation):
    ``C4 = (tr(A^4) - 2 m - 2 * sum_v deg(v) (deg(v) - 1)) / 8``.
    """
    walk_count = closed_four_walks_from_adjacency(matrix, square)
    degrees = matrix.sum(axis=1)
    degenerate = 2 * num_edges + 2 * int(np.sum(degrees * (degrees - 1)))
    remaining = walk_count - degenerate
    if remaining % 8 != 0:
        raise AssertionError(
            f"trace formula produced a non-multiple of 8 ({remaining}); "
            "the adjacency matrix export is inconsistent"
        )
    return remaining // 8


def count_four_cycles_trace(graph: DynamicGraph) -> int:
    """Exact number of 4-cycles via the closed-walk trace formula.

    ``tr(A^4)`` counts closed 4-walks.  Removing the degenerate walks (back and
    forth over one edge, and "cherries" re-using the center vertex) and
    dividing by the 8 automorphic traversals of a 4-cycle gives

    ``C4 = (tr(A^4) - 2 m - 2 * sum_v deg(v) (deg(v) - 1)) / 8``.
    """
    if graph.num_edges == 0:
        return 0
    return four_cycles_from_adjacency(_export_adjacency(graph), graph.num_edges)


def count_closed_four_walks(graph: DynamicGraph) -> int:
    """The number of closed 4-walks, ``tr(A^4)``.

    Used to validate the Section 8 reduction: the layered 4-cycle count of the
    reduced 4-layered graph equals this quantity.
    """
    if graph.num_edges == 0:
        return 0
    return closed_four_walks_from_adjacency(_export_adjacency(graph))


def count_four_cycles_wedges(graph: DynamicGraph) -> int:
    """Exact number of 4-cycles by counting wedges between vertex pairs.

    Every 4-cycle is determined by its two diagonal (opposite) vertex pairs.
    For each unordered pair ``{u, v}`` with ``c`` common neighbors there are
    ``c * (c - 1) / 2`` 4-cycles using ``{u, v}`` as one diagonal, and each
    4-cycle is counted once per diagonal, i.e. twice in total.
    """
    wedge_counts: Dict[Tuple[Vertex, Vertex], int] = {}
    for center in graph.vertices():
        neighbors = sorted(graph.neighbors(center), key=repr)
        for i, first in enumerate(neighbors):
            for second in neighbors[i + 1:]:
                key = (first, second)
                wedge_counts[key] = wedge_counts.get(key, 0) + 1
    doubled = sum(count * (count - 1) // 2 for count in wedge_counts.values())
    if doubled % 2 != 0:
        raise AssertionError(
            f"wedge enumeration produced an odd doubled count ({doubled}); "
            "4-cycles must be counted exactly twice"
        )
    return doubled // 2


def count_four_cycles_through_edge(graph: DynamicGraph, u: Vertex, v: Vertex) -> int:
    """Number of 4-cycles that use the edge ``{u, v}``.

    Equal to the number of simple 3-paths between ``u`` and ``v`` avoiding the
    edge itself; the edge does not need to be present in the graph (the paper
    queries before inserting / after deleting).
    """
    return count_three_paths(graph, u, v)


def count_three_paths(graph: DynamicGraph, u: Vertex, v: Vertex) -> int:
    """Number of simple 3-paths ``u - x - y - v`` (``u, x, y, v`` all distinct).

    Brute-force enumeration over ``N(u)`` and ``N(v)``; used as ground truth in
    tests and by the brute-force counter.
    """
    total = 0
    for x in graph.neighbors(u):
        if x == v:
            continue
        for y in graph.neighbors(v):
            if y == u or y == x:
                continue
            if graph.has_edge(x, y):
                total += 1
    return total


def count_wedges_between(graph: DynamicGraph, u: Vertex, v: Vertex) -> int:
    """Number of 2-paths (wedges) ``u - x - v``, i.e. common neighbors."""
    return len(graph.common_neighbors(u, v))


def total_wedges(graph: DynamicGraph) -> int:
    """Total number of wedges in the graph: ``sum_v C(deg(v), 2)``."""
    return sum(
        graph.degree(vertex) * (graph.degree(vertex) - 1) // 2 for vertex in graph.vertices()
    )


def count_four_cycles_edge_list(edges: Iterable[tuple[Vertex, Vertex]]) -> int:
    """Convenience wrapper: count 4-cycles of a static edge list."""
    graph = DynamicGraph(edges=edges)
    return count_four_cycles_trace(graph)
