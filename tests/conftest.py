"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from repro.api import available_counter_names, counter_spec
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.updates import EdgeUpdate, UpdateStream
from repro.matmul.scheduler import ProductDecision, ProductDispatcher
from repro.matmul.sharding import ShardExecutor


@pytest.fixture
def scoped_counter_specs():
    """Restore the process-wide counter spec store after a test that
    registers specs, so later tests (and the benchmarks that enumerate
    ``available_counter_names()``) never see test-only counters."""
    from repro.core import specs

    saved = dict(specs._SPECS)
    yield
    specs._SPECS.clear()
    specs._SPECS.update(saved)


def square_edges() -> list[tuple[str, str]]:
    """A single 4-cycle a-b-c-d-a."""
    return [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]


def k4_edges() -> list[tuple[int, int]]:
    """The complete graph on 4 vertices (contains exactly three 4-cycles)."""
    return [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def complete_bipartite_edges(left: int, right: int) -> list[tuple[str, str]]:
    """K_{left,right}; it has C(left,2) * C(right,2) 4-cycles."""
    return [(f"l{i}", f"r{j}") for i in range(left) for j in range(right)]


def expected_bipartite_cycles(left: int, right: int) -> int:
    return (left * (left - 1) // 2) * (right * (right - 1) // 2)


class AdjacencyModel:
    """A plain ``label -> neighbor set`` adjacency, replayed update by update.

    The independent reference that the graph's interned views and the
    counters are checked against.  It exposes the two methods
    :func:`~repro.graph.static_counts.count_four_cycles_wedges` reads.
    """

    def __init__(self, edges=()) -> None:
        self.adjacency: dict = {}
        for u, v in edges:
            self.apply(EdgeUpdate.insert(u, v))

    def apply(self, update: EdgeUpdate) -> None:
        for a, b in ((update.u, update.v), (update.v, update.u)):
            neighbors = self.adjacency.setdefault(a, set())
            if update.is_insert:
                neighbors.add(b)
            else:
                neighbors.discard(b)

    def vertices(self):
        return iter(self.adjacency)

    def neighbors(self, vertex) -> set:
        return self.adjacency.get(vertex, set())

    def edge_set(self) -> set:
        return {
            frozenset((u, v)) for u, neighbors in self.adjacency.items() for v in neighbors
        }


def random_dynamic_stream(
    num_vertices: int, num_updates: int, seed: int, delete_fraction: float = 0.3
) -> UpdateStream:
    """A consistent random insert/delete stream (self-contained, no generator
    dependency so graph/counter tests do not depend on the workloads module)."""
    rng = random.Random(seed)
    live: list[tuple[int, int]] = []
    live_set: set[tuple[int, int]] = set()
    updates: list[EdgeUpdate] = []
    while len(updates) < num_updates:
        if live and rng.random() < delete_fraction:
            index = rng.randrange(len(live))
            edge = live[index]
            live[index] = live[-1]
            live.pop()
            live_set.discard(edge)
            updates.append(EdgeUpdate.delete(*edge))
            continue
        u, v = rng.randrange(num_vertices), rng.randrange(num_vertices)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in live_set:
            continue
        live.append(key)
        live_set.add(key)
        updates.append(EdgeUpdate.insert(*key))
    return UpdateStream(updates)


@dataclass(frozen=True)
class PinnedDispatcher(ProductDispatcher):
    """A product dispatcher that always picks ``kernel`` ("dense" or "csr").

    The program has no kernel setting: its dispatcher decides per product
    from cost estimates.  A test that must run one batch kernel on purpose
    assigns this fake to ``counter.product_dispatcher`` (:func:`pin_kernel`);
    the reported cost estimates stay the real ones.
    """

    kernel: str = "csr"

    def decide(self, rows, middles, columns, expansion_work) -> ProductDecision:
        costs = super().decide(rows, middles, columns, expansion_work).costs
        return ProductDecision(backend=self.kernel, costs=costs)


def pin_kernel(counter, kernel: str):
    """Make ``counter``'s rebuilds run ``kernel`` for every whole-graph
    product; returns the counter."""
    counter.product_dispatcher = PinnedDispatcher(kernel=kernel, workers=counter.workers)
    return counter


class PinnedVehicleExecutor(ShardExecutor):
    """A shard executor that starts every product on ``vehicle`` ("serial",
    "thread" or "process") instead of choosing one by cost; retries and the
    degradation ladder work as in the real executor."""

    def __init__(self, vehicle: str, **kwargs) -> None:
        super().__init__(**kwargs)
        self.vehicle = vehicle

    def resolve_policy(self, total_work: int, num_shards: int) -> str:
        return self.vehicle


@pytest.fixture
def square_graph() -> DynamicGraph:
    return DynamicGraph(edges=square_edges())


@pytest.fixture
def k4_graph() -> DynamicGraph:
    return DynamicGraph(edges=k4_edges())


@pytest.fixture(params=sorted(available_counter_names()))
def any_counter(request):
    """Parametrized fixture yielding a fresh instance of every registered counter."""
    return counter_spec(request.param).create()


@pytest.fixture
def small_stream() -> UpdateStream:
    return random_dynamic_stream(num_vertices=12, num_updates=120, seed=7)
