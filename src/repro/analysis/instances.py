"""The inputs of the product experiments E12 and E14.

Clique-community adjacencies (label-keyed for E12's products, interned CSR
for E14's SpGEMM), uniformly random sparse and dense matrices, and the
standing-graph churn stream E12 replays through the wedge batch paths.  Every
builder is deterministic in its arguments.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.graph.updates import EdgeUpdate, UpdateStream
from repro.kernels import CsrMatrix
from repro.matmul.engine import CountMatrix


def community_edges(num_communities: int, size: int) -> List[Tuple[int, int]]:
    """The undirected edges ``(a, b)``, ``a < b``, of disjoint ``size``-cliques."""
    edges = []
    for community in range(num_communities):
        base = community * size
        edges.extend((base + a, base + b) for a in range(size) for b in range(a + 1, size))
    return edges


def community_count_matrix(num_communities: int, size: int) -> CountMatrix:
    """The clique communities as a label-keyed adjacency: sparse overall,
    locally dense, both orientations, no diagonal.

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


def uniform_count_matrix(
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


def product_instances(
    community_count: int, community_size: int, uniform_dimension: int, dense_dimension: int,
    seed: int,
) -> Iterator[Tuple[str, CountMatrix, CountMatrix]]:
    """The three product instances: sparse-structured, sparse-uniform, dense."""
    rng = random.Random(seed)
    communities = community_count_matrix(community_count, community_size)
    dimension = community_count * community_size
    yield (
        f"communities(n={dimension},density={communities.nnz / dimension ** 2:.3%})",
        communities,
        communities,
    )
    uniform_left = uniform_count_matrix(uniform_dimension, 0.01, rng, "r", "m")
    uniform_right = uniform_count_matrix(uniform_dimension, 0.01, rng, "m", "c")
    yield (f"uniform(n={uniform_dimension},density=1%)", uniform_left, uniform_right)
    dense_left = uniform_count_matrix(dense_dimension, 0.3, rng, "r", "m")
    dense_right = uniform_count_matrix(dense_dimension, 0.3, rng, "m", "c")
    yield (f"dense(n={dense_dimension},density=30%)", dense_left, dense_right)


def wedge_churn_stream(
    num_vertices: int, base_edges: int, churn_updates: int, seed: int
) -> UpdateStream:
    """A bulk-built random graph followed by small delete/insert churn.

    The build prefix inserts ``base_edges`` random edges; the churn suffix
    alternates deleting a random live edge and inserting a random absent one,
    keeping the standing graph size constant — so each churn batch touches a
    small fraction of the graph, which is the regime that separates the
    wedge counter's replay from its full rebuild.
    """
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


def community_csr_adjacency(num_communities: int, size: int) -> CsrMatrix:
    """:func:`community_count_matrix` as an interned 0/1 CSR adjacency, rows
    already in interned id order — the representation the counters' batch
    hooks hand to the SpGEMM kernel."""
    n = num_communities * size
    edges = np.array(community_edges(num_communities, size), dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate((edges[:, 0], edges[:, 1]))
    cols = np.concatenate((edges[:, 1], edges[:, 0]))
    return CsrMatrix.from_coo(rows, cols, np.ones(len(rows), dtype=np.int64), n, n)
