"""Every counter's batch path is chosen by cost and is exact.

``DynamicFourCycleCounter.apply_batch`` replays a window update by update or
rebuilds in bulk, whichever ``_replay_is_cheaper`` prices lower from the
counter's own prices.  Both paths and the choice between them must give
bit-identical counts at every batch boundary for every built-in counter (and
the wedge counter the same wedge matrix as a per-update replay); and on the
shapes the prices were fitted on, the choice must be the faster path: a
window that touches little of a large sparse graph replays (except on
phase-fmm, whose query scans every new ``B`` tuple), the windows that fill a
small dense graph rebuild, brute-force never densifies a large sparse graph,
set-up and ``load_state`` rebuild without the decision pricing the window,
and served-durable's small windows replay without it, on an O(1) bound that
is never below the summed price.  Testing that bound before counting the
window's new vertices changes no window's path: every decision below is
checked against ``reference_replay_is_cheaper``, the decision that counts
them first.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.analysis.throughput import force_batch_path
from repro.api import available_counter_names, counter_spec
from repro.core.assadi_shah import AssadiShahCounter
from repro.core.base import REPLAY_UPDATE_COST
from repro.core.brute_force import BruteForceCounter
from repro.core.phase_fmm import PhaseFMMCounter
from repro.core.wedge_counter import WedgeCounter
from repro.graph.static_counts import count_four_cycles_wedges
from repro.graph.updates import EdgeUpdate, normalize_batch
from repro.workloads.generators import erdos_renyi_stream

from tests.conftest import AdjacencyModel
from tests.core.test_mirrored_oracle import COUNTERS, STREAMS, make_counter

WINDOWS = (1, 7, 32, 64, 256)
PATHS = ("replay", "rebuild", "chosen")
ALL_COUNTERS = sorted(available_counter_names())


def _make(name: str, path: str = "chosen"):
    """The counter ``name`` (the Section 8 ones with short phases and low
    thresholds), forced to ``path`` unless it is "chosen"."""
    counter = make_counter(name) if name in COUNTERS else counter_spec(name).create()
    return counter if path == "chosen" else force_batch_path(counter, path)


def reference_replay_is_cheaper(counter, batch) -> bool:
    """The batch-path decision with the rebuild always priced after the
    window's new vertices."""
    graph = counter.graph
    rebuild = counter._rebuild_cost(
        graph.num_vertices + len(batch.touched_vertices.difference(graph.adjacency)),
        graph.num_edges + batch.net_edge_delta(),
    )
    if len(batch) * REPLAY_UPDATE_COST >= rebuild:
        return False
    if counter._replay_bound(batch) < rebuild:
        return True
    return counter._replay_cost(batch, rebuild) < rebuild


def _decide(counter, batch) -> bool:
    """``counter``'s decision on ``batch``, checked against the reference."""
    replay = counter._replay_is_cheaper(batch)
    assert replay == reference_replay_is_cheaper(counter, batch)
    return replay


def _counts_at_boundaries(counter, updates, window: int) -> list:
    counts = []
    for start in range(0, len(updates), window):
        counter.apply_batch(updates[start:start + window])
        counts.append(counter.count)
    return counts


@pytest.mark.parametrize("stream", list(STREAMS))
@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("name", ALL_COUNTERS)
def test_both_paths_and_the_choice_are_bit_identical(name, window, stream):
    updates = STREAMS[stream]()
    model = AdjacencyModel()
    expected = []
    for start in range(0, len(updates), window):
        for update in updates[start:start + window]:
            model.apply(update)
        expected.append(count_four_cycles_wedges(model))
    reference = WedgeCounter()
    reference.apply_all(updates)
    for path in PATHS:
        counter = _make(name, path)
        assert _counts_at_boundaries(counter, updates, window) == expected, path
        assert counter.is_consistent()
        if name == "wedge":
            assert counter.wedge_matrix == reference.wedge_matrix, path


def _clique_then_deletions() -> list:
    """A 10-clique, then a deletion-only window: negative deltas and entries
    that cancel."""
    edges = [(u, v) for u in range(10) for v in range(u + 1, 10)]
    return [
        [EdgeUpdate.insert(u, v) for u, v in edges],
        [EdgeUpdate.delete(u, v) for u, v in edges[::3]],
    ]


def _windows_adding_vertices() -> list:
    """A path, then a window whose insertions name 40 new vertices."""
    return [
        [EdgeUpdate.insert(i, i + 1) for i in range(40)],
        [EdgeUpdate.insert(100 + i, i) for i in range(40)]
        + [EdgeUpdate.insert(100 + i, i + 1) for i in range(40)],
    ]


@pytest.mark.parametrize("windows", [_clique_then_deletions, _windows_adding_vertices])
@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("name", ALL_COUNTERS)
def test_deletion_only_and_new_vertex_windows(name, path, windows):
    counter = _make(name, path)
    reference = WedgeCounter()
    model = AdjacencyModel()
    for window in windows():
        counter.apply_batch(window)
        for update in window:
            reference.apply(update)
            model.apply(update)
        assert counter.count == reference.count == count_four_cycles_wedges(model)
        if name == "wedge":
            assert counter.wedge_matrix == reference.wedge_matrix
    assert counter.is_consistent()


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("name", ALL_COUNTERS)
def test_the_replay_bound_bounds_the_replay_price(name, window):
    """Wherever a counter's O(1) ``_replay_bound`` is finite it is at least
    the summed ``_replay_cost``, so replaying on the bound picks the path the
    sum would have picked."""
    for stream in STREAMS.values():
        counter = _make(name)
        updates = stream()
        for start in range(0, len(updates), window):
            batch = normalize_batch(updates[start:start + window], counter.graph.has_edge)
            assert counter._replay_cost(batch, math.inf) <= counter._replay_bound(batch)
            counter.apply_batch(batch)


def _random_windows(rng, num_vertices: int, live: list, count: int) -> list:
    """``count`` windows of 1-96 updates: deletions of live edges,
    insertions among the graph's vertices and insertions that bring new
    ones, with repeats that cancel."""
    present = set(live)
    fresh = num_vertices
    windows = []
    for _ in range(count):
        window = []
        for _ in range(rng.randint(1, 96)):
            roll = rng.random()
            if roll < 0.35 and present:
                edge = rng.choice(sorted(present))
                present.discard(edge)
                window.append(EdgeUpdate.delete(*edge))
                continue
            if roll < 0.55:
                u, v = fresh, rng.randrange(fresh + 1)
                fresh += 1
            else:
                u, v = rng.randrange(fresh), rng.randrange(fresh)
            edge = (min(u, v), max(u, v))
            if u != v and edge not in present:
                present.add(edge)
                window.append(EdgeUpdate.insert(*edge))
        windows.append(window)
    return windows


@pytest.mark.parametrize(
    "num_vertices, num_edges", [(12, 30), (60, 90), (400, 500), (3_000, 1_500)]
)
@pytest.mark.parametrize("name", ALL_COUNTERS)
def test_random_windows_take_the_reference_path(name, num_vertices, num_edges):
    """On loaded graphs of several densities, random windows, many of them
    bringing new vertices, are each decided as the reference decides."""
    rng, live = _uniform_graph(num_vertices, num_edges, seed=num_vertices)
    counter = _make(name)
    counter.load_state(range(num_vertices), live)
    chosen = _recording(counter)
    for window in _random_windows(rng, num_vertices, live, 12):
        counter.apply_batch(window)
    assert len(chosen) >= 10
    assert counter.count == count_four_cycles_wedges(counter.graph)


def _uniform_graph(num_vertices: int, num_edges: int, seed: int) -> tuple:
    rng = random.Random(seed)
    live: dict = {}
    while len(live) < num_edges:
        u, v = rng.randrange(num_vertices), rng.randrange(num_vertices)
        if u != v:
            live[(min(u, v), max(u, v))] = None
    return rng, list(live)


def _churn_window(rng, live: list, num_vertices: int, size: int) -> list:
    """``size`` updates, half deleting live edges and half inserting new
    ones, as the batch-windows benchmark's steady churn does."""
    present = set(live)
    window = []
    for index in range(size):
        if index % 2:
            edge = live.pop(rng.randrange(len(live)))
            present.discard(edge)
            window.append(EdgeUpdate.delete(*edge))
            continue
        while True:
            u, v = rng.randrange(num_vertices), rng.randrange(num_vertices)
            edge = (min(u, v), max(u, v))
            if u != v and edge not in present:
                break
        live.append(edge)
        present.add(edge)
        window.append(EdgeUpdate.insert(*edge))
    return window


def _loaded(factory, num_vertices: int = 10_000, num_edges: int = 5_000):
    """A counter holding a uniform graph on ``num_vertices`` registered
    vertices, loaded as a restore loads it."""
    rng, live = _uniform_graph(num_vertices, num_edges, seed=7)
    counter = factory()
    counter.load_state(range(num_vertices), live)
    return counter, rng, live


def _unexported(counter):
    """Make any CSR or dense export of ``counter``'s graph fail the test;
    returns the counter."""

    def refuse(*args, **kwargs):
        raise AssertionError("the graph was exported")

    counter.graph.csr_view = refuse
    counter.graph.csr_matrix = refuse
    counter.graph.interned_adjacency_matrix = refuse
    return counter


def _recording(counter) -> list:
    """Record every decision of ``counter`` as ``(net size, replayed)``,
    each checked against the reference."""
    chosen = []
    decide = counter._replay_is_cheaper

    def recording(batch):
        replay = decide(batch)
        assert replay == reference_replay_is_cheaper(counter, batch)
        chosen.append((len(batch), replay))
        return replay

    counter._replay_is_cheaper = recording
    return chosen


class TestTheChoiceOnFittedShapes:
    def test_assadi_shah_replays_a_window_on_a_large_sparse_graph(self):
        counter, rng, live = _loaded(AssadiShahCounter)
        window = _churn_window(rng, live, 10_000, 256)
        batch = normalize_batch(window, counter.graph.has_edge)
        assert _decide(counter, batch)
        _unexported(counter)
        counter.cost.reset()
        counter.apply_batch(batch)
        assert counter.count == count_four_cycles_wedges(counter.graph)
        assert counter.cost.get("batch_rebuild") == 0

    def test_phase_fmm_rebuilds_the_same_window(self):
        counter, rng, live = _loaded(PhaseFMMCounter)
        window = _churn_window(rng, live, 10_000, 256)
        batch = normalize_batch(window, counter.graph.has_edge)
        assert not _decide(counter, batch)
        counter.cost.reset()
        counter.apply_batch(batch)
        assert counter.cost.get("batch_rebuild") > 0
        assert counter.count == count_four_cycles_wedges(counter.graph)

    @pytest.mark.parametrize(
        "num_vertices, num_edges, size",
        [(20_000, 10_000, 8), (20_000, 10_000, 64), (10_000, 5_000, 256)],
        ids=["served-durable-8", "served-durable-64", "batch-windows-256"],
    )
    @pytest.mark.parametrize("name", ["wedge", "hhh22"])
    def test_wedge_and_hhh22_replay_a_window_on_a_large_sparse_graph(
        self, name, num_vertices, num_edges, size
    ):
        counter, rng, live = _loaded(counter_spec(name).create, num_vertices, num_edges)
        window = _churn_window(rng, live, num_vertices, size)
        batch = normalize_batch(window, counter.graph.has_edge)
        assert _decide(counter, batch)
        _unexported(counter)
        counter.apply_batch(batch)
        assert counter.count == count_four_cycles_wedges(counter.graph)

    def test_brute_force_replays_instead_of_densifying(self):
        """A dense ``n x n`` over 20,000 vertices would take 3.2 GB: the load
        and the 64-update window replay.  Every export is refused from the
        start, so a wrong choice fails instead of allocating."""
        counter, rng, live = _loaded(lambda: _unexported(BruteForceCounter()), 20_000, 10_000)
        window = _churn_window(rng, live, 20_000, 64)
        chosen = _recording(counter)
        counter.apply_batch(window)
        assert chosen == [(64, True)]
        assert counter.count == count_four_cycles_wedges(counter.graph)

    def test_brute_force_prices_the_vertices_a_window_brings(self):
        """10,000 edges on 20,000 new vertices, applied to an empty counter:
        the dense price counts the window's vertices, so it replays."""
        _, live = _uniform_graph(20_000, 10_000, seed=7)
        counter = _unexported(BruteForceCounter())
        chosen = _recording(counter)
        counter.apply_batch([EdgeUpdate.insert(u, v) for u, v in live])
        assert chosen == [(10_000, True)]
        assert counter.count == count_four_cycles_wedges(counter.graph)

    @pytest.mark.parametrize("name", ["wedge", "hhh22"])
    def test_e11s_filling_windows_rebuild(self, name):
        """E11's 32-vertex churn stream: the windows that fill the graph
        rebuild."""
        updates = list(erdos_renyi_stream(32, 2560, seed=0))
        counter = counter_spec(name).create()
        chosen = _recording(counter)
        for start in range(0, len(updates), 256):
            counter.apply_batch(updates[start:start + 256])
        assert [replay for _, replay in chosen[:3]] == [False, False, False]
        assert counter.is_consistent()

    @pytest.mark.parametrize(
        "name, num_vertices, num_edges",
        [(name, 10_000, 5_000) for name in ALL_COUNTERS if name != "brute-force"]
        + [("brute-force", 200, 1_000)],
    )
    def test_a_window_large_against_the_graph_rebuilds_without_reading_it(
        self, name, num_vertices, num_edges
    ):
        """An empty-graph load and ``load_state`` are decided from sizes
        alone: the counter is never asked to price the replay.  The shape is
        batch-windows' set-up and restore, except for brute-force, whose
        dense ``n^3`` price replays a load onto 10^4 vertices (see
        ``test_brute_force_prices_the_vertices_a_window_brings``)."""

        def unpriced(batch, limit):
            raise AssertionError("the replay was priced")

        _, edges = _uniform_graph(num_vertices, num_edges, seed=3)
        fresh = _make(name)
        fresh._replay_cost = unpriced
        batch = normalize_batch([EdgeUpdate.insert(u, v) for u, v in edges])
        touched = len(batch.touched_vertices)
        assert len(batch) * REPLAY_UPDATE_COST >= fresh._rebuild_cost(touched, num_edges)
        assert not _decide(fresh, batch)

        restored = _make(name)
        restored._replay_cost = unpriced
        restored.load_state(range(num_vertices), edges)
        assert restored.count == count_four_cycles_wedges(restored.graph)

    @pytest.mark.parametrize("size", [8, 64])
    @pytest.mark.parametrize("name", ["wedge", "hhh22"])
    def test_served_durable_windows_replay_without_being_priced(self, name, size):
        """The served-durable shape's small windows are decided by the O(1)
        replay bound, against the rebuild priced at the vertices the graph
        already holds (its new vertices are not counted); hhh22's bound, at
        its low-degree threshold, settles only the 8-update window."""
        counter, rng, live = _loaded(counter_spec(name).create, 20_000, 10_000)
        window = _churn_window(rng, live, 20_000, size)
        batch = normalize_batch(window, counter.graph.has_edge)
        priced, rebuilds = [], []
        price, rebuild_price = counter._replay_cost, counter._rebuild_cost

        def recording(batch, limit):
            priced.append(len(batch))
            return price(batch, limit)

        def recording_rebuild(vertices, edges):
            rebuilds.append(vertices)
            return rebuild_price(vertices, edges)

        counter._replay_cost = recording
        counter._rebuild_cost = recording_rebuild
        assert counter._replay_is_cheaper(batch)
        settled = name == "wedge" or size == 8
        assert priced == ([] if settled else [size])
        if settled:
            assert rebuilds == [counter.graph.num_vertices]
        del counter._replay_cost, counter._rebuild_cost
        assert reference_replay_is_cheaper(counter, batch)

    @pytest.mark.parametrize("counter_class", [AssadiShahCounter, PhaseFMMCounter])
    def test_e10s_dense_graph_rebuilds(self, counter_class):
        """E10's 24-vertex churn stream: the windows that fill the graph
        rebuild.  Once it is complete, a 256-update window nets two to six
        updates, and those replay."""
        updates = list(erdos_renyi_stream(24, 1280, seed=0))
        counter = counter_class()
        chosen = _recording(counter)
        for start in range(0, len(updates), 256):
            counter.apply_batch(updates[start:start + 256])
        assert [replay for _, replay in chosen] == [False, False, False, True, True]
        assert all(size > 70 for size, _ in chosen[:3])
        assert counter.is_consistent()
