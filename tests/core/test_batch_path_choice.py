"""The oracle-backed counters' batch path is chosen by cost and is exact.

``OracleBackedCounter._batch_hook`` replays a window update by update or
rebuilds the oracle in bulk, whichever its oracle prices lower.  Both paths
and the choice between them must give bit-identical counts at every batch
boundary; and on the shapes the prices were fitted on, the choice must be
the faster path: assadi-shah replays a window that touches little of a large
sparse graph, phase-fmm (whose query scans every new ``B`` tuple) rebuilds
it, and set-up, ``load_state`` and small dense graphs rebuild without the
decision reading the window.
"""

from __future__ import annotations

import random

import pytest

from repro.core.assadi_shah import AssadiShahCounter
from repro.core.oracles import REPLAY_UPDATE_COST
from repro.core.phase_fmm import PhaseFMMCounter
from repro.graph.static_counts import count_four_cycles_wedges
from repro.graph.updates import EdgeUpdate, normalize_batch
from repro.workloads.generators import erdos_renyi_stream

from tests.conftest import AdjacencyModel, force_batch_path
from tests.core.test_mirrored_oracle import COUNTERS, STREAMS, make_counter

WINDOWS = (1, 7, 32, 64, 256)
PATHS = ("replay", "rebuild", "chosen")


def _counts_at_boundaries(counter, updates, window: int) -> list:
    counts = []
    for start in range(0, len(updates), window):
        counter.apply_batch(updates[start:start + window])
        counts.append(counter.count)
    return counts


@pytest.mark.parametrize("stream", list(STREAMS))
@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("name", list(COUNTERS))
def test_both_paths_and_the_choice_are_bit_identical(name, window, stream):
    updates = STREAMS[stream]()
    model = AdjacencyModel()
    expected = []
    for start in range(0, len(updates), window):
        for update in updates[start:start + window]:
            model.apply(update)
        expected.append(count_four_cycles_wedges(model))
    for path in PATHS:
        counter = make_counter(name)
        if path != "chosen":
            force_batch_path(counter, path)
        assert _counts_at_boundaries(counter, updates, window) == expected, path
        assert counter.is_consistent()


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


def _loaded(counter_class, num_vertices: int = 10_000, num_edges: int = 5_000):
    rng, live = _uniform_graph(num_vertices, num_edges, seed=7)
    counter = counter_class()
    counter.apply_batch([EdgeUpdate.insert(u, v) for u, v in live])
    return counter, rng, live


def _unexported(counter) -> None:
    """Make any CSR export of ``counter``'s graph fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("the CSR view was exported")

    counter.graph.csr_view = refuse
    counter.graph.csr_matrix = refuse


class TestTheChoiceOnFittedShapes:
    def test_assadi_shah_replays_a_window_on_a_large_sparse_graph(self):
        counter, rng, live = _loaded(AssadiShahCounter)
        window = _churn_window(rng, live, 10_000, 256)
        batch = normalize_batch(window, counter.graph.has_edge)
        assert counter._replay_is_cheaper(batch)
        _unexported(counter)
        counter.cost.reset()
        counter.apply_batch(batch)
        assert counter.count == count_four_cycles_wedges(counter.graph)
        assert counter.cost.get("batch_rebuild") == 0

    def test_phase_fmm_rebuilds_the_same_window(self):
        counter, rng, live = _loaded(PhaseFMMCounter)
        window = _churn_window(rng, live, 10_000, 256)
        batch = normalize_batch(window, counter.graph.has_edge)
        assert not counter._replay_is_cheaper(batch)
        counter.cost.reset()
        counter.apply_batch(batch)
        assert counter.cost.get("batch_rebuild") > 0
        assert counter.count == count_four_cycles_wedges(counter.graph)

    @pytest.mark.parametrize("counter_class", [AssadiShahCounter, PhaseFMMCounter])
    def test_a_window_large_against_the_graph_rebuilds_without_reading_it(self, counter_class):
        """An empty-graph load and ``load_state`` are decided from sizes
        alone: the oracle is never asked to price the replay."""

        def unpriced(updates, limit):
            raise AssertionError("the replay was priced")

        _, edges = _uniform_graph(10_000, 5_000, seed=3)
        fresh = counter_class()
        fresh.oracle.replay_cost = unpriced
        batch = normalize_batch([EdgeUpdate.insert(u, v) for u, v in edges])
        assert len(batch) * REPLAY_UPDATE_COST >= fresh.oracle.rebuild_cost(0, len(edges))
        assert not fresh._replay_is_cheaper(batch)

        restored = counter_class()
        restored.oracle.replay_cost = unpriced
        restored.load_state(range(10_000), edges)
        assert restored.count == count_four_cycles_wedges(restored.graph)

    @pytest.mark.parametrize("counter_class", [AssadiShahCounter, PhaseFMMCounter])
    def test_e10s_dense_graph_rebuilds(self, counter_class):
        """E10's 24-vertex churn stream: the windows that fill the graph
        rebuild.  Once it is complete, a 256-update window nets two to six
        updates, and those replay."""
        updates = list(erdos_renyi_stream(24, 1280, seed=0))
        counter = counter_class()
        chosen = []
        decide = counter._replay_is_cheaper

        def recording(batch):
            chosen.append((len(batch), decide(batch)))
            return chosen[-1][1]

        counter._replay_is_cheaper = recording
        for start in range(0, len(updates), 256):
            counter.apply_batch(updates[start:start + 256])
        assert [replay for _, replay in chosen] == [False, False, False, True, True]
        assert all(size > 70 for size, _ in chosen[:3])
        assert counter.is_consistent()
