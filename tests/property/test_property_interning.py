"""Property tests for the batched fast paths against independent references.

The central invariant: **the vectorized paths are pure accelerations**.  For
any consistent stream, every registered counter — at batch sizes covering the
per-update path (1), a small odd window (7) and the fast-path regime (64) —
reports exactly the 4-cycle count of a plain ``dict[label, set]`` model at
every batch boundary.  The model (:class:`tests.conftest.AdjacencyModel`) is
replayed one update at a time and counted by label-keyed wedge enumeration
(:func:`~repro.graph.static_counts.count_four_cycles_wedges`), so the
reference shares no code with the graph's interned mirror or the counters.
"""

from __future__ import annotations

import pytest

from repro.api import available_counter_names, counter_spec
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.static_counts import count_four_cycles_wedges
from repro.graph.updates import EdgeUpdate, UpdateStream

from tests.conftest import AdjacencyModel, random_dynamic_stream

STREAM_LENGTH = 160
BATCH_SIZES = (1, 7, 64)


def _windows(stream, batch_size: int) -> list:
    return [list(window) for window in stream.batched(batch_size)]


def _trajectory(name: str, windows: list, batch_size: int) -> list[int]:
    counter = counter_spec(name).create()
    if batch_size <= 1:
        return [counter.apply(update) for (update,) in windows]
    return [counter.apply_batch(window) for window in windows]


def _reference(windows: list) -> list[int]:
    model = AdjacencyModel()
    counts = []
    for window in windows:
        for update in window:
            model.apply(update)
        counts.append(count_four_cycles_wedges(model))
    return counts


def _random_stream():
    return random_dynamic_stream(num_vertices=14, num_updates=STREAM_LENGTH, seed=23)


def _relabelled_stream():
    """Tuple and string labels: the interner's label round-trip inside every
    counter (batched rebuilds export and re-import every label)."""
    base = random_dynamic_stream(num_vertices=10, num_updates=96, seed=11)
    relabel = lambda v: ("shard", v) if v % 2 == 0 else f"v{v}"  # noqa: E731
    return UpdateStream(
        [EdgeUpdate(relabel(update.u), relabel(update.v), update.kind) for update in base]
    )


STREAMS = {"random": _random_stream, "tuple-and-string-labels": _relabelled_stream}


@pytest.mark.parametrize("stream_name", sorted(STREAMS))
@pytest.mark.parametrize("name", sorted(available_counter_names()))
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_counter_matches_wedge_enumeration_at_every_boundary(stream_name, name, batch_size):
    windows = _windows(STREAMS[stream_name](), batch_size)
    assert _trajectory(name, windows, batch_size) == _reference(windows)


@pytest.mark.parametrize("name", sorted(available_counter_names()))
def test_interned_counter_is_consistent_after_mixed_batches(name):
    """Ragged batch sizes through the interned fast paths stay exact."""
    stream = random_dynamic_stream(num_vertices=12, num_updates=120, seed=5)
    counter = counter_spec(name).create()
    position = 0
    for size in (1, 7, 64, 3, 45):
        window = stream[position:position + size]
        position += size
        counter.apply_batch(window)
    assert counter.is_consistent()


def test_graph_batch_equals_model_replay():
    """DynamicGraph.apply_batch ends every window where a per-update replay
    of the model does, vertices included (a cancelled pair still registers
    its endpoints)."""
    stream = random_dynamic_stream(num_vertices=12, num_updates=100, seed=3)
    graph = DynamicGraph()
    model = AdjacencyModel()
    for window in stream.batched(16):
        graph.apply_batch(window)
        for update in window:
            model.apply(update)
        assert {frozenset(edge) for edge in graph.edges()} == model.edge_set()
        assert set(graph.vertices()) == set(model.adjacency)
        for vertex in model.adjacency:
            assert graph.neighbors(vertex) == model.neighbors(vertex)
