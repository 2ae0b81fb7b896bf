"""The graph's edge index: every edge once, canonical, equal to the adjacency.

``DynamicGraph`` keeps an insertion-ordered dict of canonical label pairs
beside its two adjacencies, updated by every single and bulk mutation, and
``edges()`` copies it.  After any mix of single and bulk updates — labels
that do not compare with each other included, and bulk calls that raise
part-way through — ``edges()`` must list each edge of an independent model
once, in canonical order, and agree with the adjacency.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ReproError
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.updates import _canonical_order

FAST_SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: Ints, strings and tuples: pairs across kinds do not compare, so their
#: canonical order falls back to ``repr``.
labels = st.one_of(
    st.integers(min_value=0, max_value=5),
    st.sampled_from(["a", "b", "c"]),
    st.tuples(st.integers(min_value=0, max_value=2)),
)
pairs = st.tuples(labels, labels)
operations = st.one_of(
    st.tuples(st.just("toggle"), pairs),
    st.tuples(st.just("insert_edges"), st.lists(pairs, max_size=6)),
    st.tuples(st.just("delete_edges"), st.lists(pairs, max_size=6)),
)


def _assert_index_matches(graph: DynamicGraph, model: set) -> None:
    listed = graph.edges()
    assert len(listed) == len(set(listed)) == graph.num_edges
    assert {frozenset(edge) for edge in listed} == model
    assert all(_canonical_order(u, v) == (u, v) for u, v in listed)
    adjacency = {
        _canonical_order(u, v) for u, neighbors in graph.adjacency.items() for v in neighbors
    }
    assert set(listed) == adjacency == graph.to_edge_set()


def _bulk_prefix(model: set, edges: list, inserting: bool) -> bool:
    """Apply ``edges`` to ``model`` up to the first one the bulk call
    rejects; returns whether it rejects one."""
    for u, v in edges:
        key = frozenset((u, v))
        if inserting and (u == v or key in model):
            return True
        if not inserting and key not in model:
            return True
        if inserting:
            model.add(key)
        else:
            model.discard(key)
    return False


@given(steps=st.lists(operations, max_size=30))
@FAST_SETTINGS
def test_edges_list_every_model_edge_once_in_canonical_order(steps):
    graph = DynamicGraph()
    model: set = set()
    for kind, argument in steps:
        if kind == "toggle":
            u, v = argument
            if u == v:
                continue
            if frozenset((u, v)) in model:
                graph.delete_edge(v, u)
                model.discard(frozenset((u, v)))
            else:
                graph.insert_edge(u, v)
                model.add(frozenset((u, v)))
        else:
            inserting = kind == "insert_edges"
            rejects = _bulk_prefix(model, argument, inserting)
            bulk = graph.insert_edges if inserting else graph.delete_edges
            if rejects:
                with pytest.raises(ReproError):
                    bulk(argument)
            else:
                bulk(argument)
        _assert_index_matches(graph, model)


def test_a_bulk_call_that_raises_leaves_the_index_equal_to_the_adjacency():
    graph = DynamicGraph(edges=[(1, 2), ("a", 1)])
    with pytest.raises(ReproError):
        graph.insert_edges([(3, "b"), (2, 1), (4, 5)])  # (3, "b") lands, then the error
    _assert_index_matches(graph, {frozenset(e) for e in [(1, 2), ("a", 1), (3, "b")]})
    with pytest.raises(ReproError):
        graph.delete_edges([(1, "a"), (7, 8), (1, 2)])  # (1, "a") goes, then the error
    _assert_index_matches(graph, {frozenset(e) for e in [(1, 2), (3, "b")]})


def test_edges_keep_insertion_order_and_return_a_copy():
    graph = DynamicGraph(edges=[(5, 1), (2, 3), (0, 9)])
    graph.delete_edge(3, 2)
    graph.insert_edge(3, 2)
    listed = graph.edges()
    assert listed == [(1, 5), (0, 9), (2, 3)]
    listed.clear()
    assert graph.num_edges == 3 and len(graph.edges()) == 3


def test_the_vertex_tuple_is_shared_until_a_vertex_is_added():
    graph = DynamicGraph(vertices=["x"], edges=[(1, 2)])
    first = graph.vertices()
    assert first == ("x", 1, 2)
    graph.insert_edge(2, "x")
    graph.delete_edge(1, 2)
    assert graph.vertices() is first
    graph.insert_edge(2, 3)
    assert graph.vertices() == ("x", 1, 2, 3)
