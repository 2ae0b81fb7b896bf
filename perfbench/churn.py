"""Seeded update generators for the benchmark workloads (standard library only).

The program under test never generates its own inputs: every workload draws
its initial graph and its churn from one of these generators, seeded from the
benchmark's ``--seed``.  The load-generator process imports this module too,
so it must not import numpy or ``repro``.

A generator keeps its own live-edge set, which is what lets the benchmark
check the engine's final graph and count against an independent recount.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Optional, Sequence, Tuple

Edge = Tuple[int, int]
#: One generated update: ``(kind, u, v)`` with kind ``"insert"`` or ``"delete"``.
Update = Tuple[str, int, int]


class Churn:
    """Steady insert/delete churn around a target number of live edges.

    Endpoints are drawn from ``vertices`` with optional ``weights`` (uniform
    when omitted).  An update inserts with probability
    ``target / (target + live)``, so the live-edge count stays near
    ``target``; a delete removes a uniformly chosen live edge.  Every update
    is valid against the generator's own edge set, so no apply ever fails.
    """

    def __init__(
        self,
        seed: int,
        vertices: Sequence[int],
        target_edges: int,
        weights: Optional[Sequence[float]] = None,
    ) -> None:
        self._rng = random.Random(seed)
        self._vertices = list(vertices)
        self._cum_weights = None if weights is None else list(itertools.accumulate(weights))
        self._target = target_edges
        self._live: List[Edge] = []
        self._position: Dict[Edge, int] = {}
        self._endpoints: List[int] = []

    @property
    def live_edges(self) -> List[Edge]:
        return list(self._live)

    def _endpoint(self) -> int:
        if not self._endpoints:
            self._endpoints = self._rng.choices(
                self._vertices, cum_weights=self._cum_weights, k=4096
            )
        return self._endpoints.pop()

    def _add(self, edge: Edge) -> None:
        self._position[edge] = len(self._live)
        self._live.append(edge)

    def _remove_at(self, index: int) -> Edge:
        edge = self._live[index]
        last = self._live.pop()
        if last != edge:
            self._live[index] = last
            self._position[last] = index
        del self._position[edge]
        return edge

    def _fresh_edge(self) -> Edge:
        while True:
            u, v = self._endpoint(), self._endpoint()
            if u == v:
                continue
            edge = (u, v) if u < v else (v, u)
            if edge not in self._position:
                return edge

    def initial(self, count: int) -> List[Update]:
        """``count`` inserts forming the initial graph."""
        inserts = []
        for _ in range(count):
            edge = self._fresh_edge()
            self._add(edge)
            inserts.append(("insert", edge[0], edge[1]))
        return inserts

    def next(self) -> Update:
        live = len(self._live)
        if not live or self._rng.random() * (self._target + live) < self._target:
            edge = self._fresh_edge()
            self._add(edge)
            return ("insert", edge[0], edge[1])
        edge = self._remove_at(self._rng.randrange(live))
        return ("delete", edge[0], edge[1])

    def take(self, count: int) -> List[Update]:
        return [self.next() for _ in range(count)]


def zipf_weights(n: int, exponent: float) -> List[float]:
    """Rank weights ``(r + 1) ** -exponent`` for ranks ``0 .. n - 1``."""
    return [(rank + 1) ** -exponent for rank in range(n)]


def shuffled_vertices(seed: int, n: int) -> List[int]:
    """Vertex ids ``0 .. n - 1`` in a seeded order, so which ids are the
    Zipf hubs changes with the seed."""
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return order


def served_producer(seed: int, producer: int, vertices: int, producers: int, edges: int) -> Churn:
    """The churn generator of one served producer.

    Producer ``p`` owns the vertex block ``[p * vertices // producers,
    (p + 1) * vertices // producers)`` and ``edges // producers`` of the
    preloaded edges, so producers never touch each other's edges and any
    interleaving of their windows is valid.  The benchmark process and the
    load generator both build it from the same arguments.
    """
    low = producer * vertices // producers
    high = (producer + 1) * vertices // producers
    return Churn(seed * 1000 + producer, range(low, high), edges // producers)
