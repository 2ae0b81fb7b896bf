"""Tests for the vertex interner and the interned DynamicGraph fast paths."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.interning import VertexInterner
from repro.graph.updates import EdgeUpdate

from tests.conftest import AdjacencyModel

FAST_SETTINGS = settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: Arbitrary hashable labels: ints, strings, and (nested) tuples of both.
label_strategy = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.text(max_size=6),
    st.tuples(st.integers(min_value=0, max_value=9), st.text(max_size=3)),
)


class TestVertexInterner:
    def test_ids_are_contiguous_and_stable(self):
        interner = VertexInterner()
        assert interner.intern("a") == 0
        assert interner.intern("b") == 1
        assert interner.intern("a") == 0  # re-interning is idempotent
        assert interner.intern("c") == 2
        assert len(interner) == 3

    def test_label_round_trip(self):
        interner = VertexInterner(["x", (1, 2), 7])
        for label in ("x", (1, 2), 7):
            assert interner.label_of(interner.id_of(label)) == label

    def test_get_id_for_unknown_label(self):
        interner = VertexInterner()
        assert interner.get_id("missing") is None
        with pytest.raises(KeyError):
            interner.id_of("missing")

    def test_labels_in_id_order(self):
        interner = VertexInterner()
        interner.intern_many(["c", "a", "b"])
        assert interner.labels == ["c", "a", "b"]
        assert list(interner) == ["c", "a", "b"]

    def test_copy_is_independent(self):
        interner = VertexInterner(["a"])
        clone = interner.copy()
        clone.intern("b")
        assert "b" in clone and "b" not in interner
        assert interner.get_id("b") is None

    @given(labels=st.lists(label_strategy, max_size=40))
    @FAST_SETTINGS
    def test_round_trips_arbitrary_hashable_labels(self, labels):
        """Interning round-trips every distinct label through its id."""
        interner = VertexInterner()
        ids = interner.intern_many(labels)
        distinct = []
        seen = set()
        for label in labels:
            if label not in seen:
                seen.add(label)
                distinct.append(label)
        assert len(interner) == len(distinct)
        assert interner.labels == distinct
        for label, vid in zip(labels, ids):
            assert interner.label_of(vid) == label
            assert interner.id_of(label) == vid


def _assert_matrix_matches_model(graph, model):
    matrix, labels = graph.interned_adjacency_matrix()
    assert sorted(labels, key=repr) == sorted(model.adjacency, key=repr)
    index = {label: i for i, label in enumerate(labels)}
    expected = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for u, neighbors in model.adjacency.items():
        for v in neighbors:
            expected[index[u], index[v]] = 1
    assert np.array_equal(matrix, expected)


class TestInternedGraphFastPaths:
    def test_edges_match_model(self):
        edges = [(3, 1), (1, 2), (2, 5), (5, 3), (0, 4)]
        graph = DynamicGraph(edges=edges)
        listed = list(graph.edges())
        assert len(listed) == graph.num_edges == len(edges)
        assert all(u < v for u, v in listed)
        assert {frozenset(edge) for edge in listed} == AdjacencyModel(edges).edge_set()

    def test_edges_canonical_orientation_with_string_labels(self):
        graph = DynamicGraph(edges=[("z", "a"), ("m", "b")])
        assert set(graph.edges()) == {("a", "z"), ("b", "m")}

    def test_edges_fall_back_for_non_comparable_labels(self):
        edges = [(1, "a"), ("a", (2, 3))]
        listed = list(DynamicGraph(edges=edges).edges())
        assert len(listed) == 2
        assert {frozenset(edge) for edge in listed} == AdjacencyModel(edges).edge_set()
        # The fallback orients each pair by repr.
        assert all(repr(u) <= repr(v) for u, v in listed)

    def test_common_neighbors_matches_model(self):
        edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)]
        graph = DynamicGraph(edges=edges)
        model = AdjacencyModel(edges)
        for u in range(5):
            for v in range(5):
                assert graph.common_neighbors(u, v) == model.neighbors(u) & model.neighbors(v)
        assert graph.common_neighbors(0, "ghost") == set()

    def test_interned_adjacency_matrix_matches_model(self):
        edges = [(2, 0), (0, 1), (1, 2), (2, 3), ("x", (4, "y"))]
        graph = DynamicGraph(vertices=["isolated"], edges=edges)
        model = AdjacencyModel(edges)
        model.adjacency["isolated"] = set()
        _assert_matrix_matches_model(graph, model)

    def test_interned_adjacency_matrix_is_symmetric_and_labelled(self):
        graph = DynamicGraph(edges=[("b", "a"), ("a", "c")])
        matrix, labels = graph.interned_adjacency_matrix()
        assert matrix.shape == (len(labels), len(labels))
        assert np.array_equal(matrix, matrix.T)
        index = {label: i for i, label in enumerate(labels)}
        assert matrix[index["a"], index["b"]] == 1
        assert matrix[index["a"], index["c"]] == 1
        assert matrix[index["b"], index["c"]] == 0

    def test_csr_view_caching_and_invalidation(self):
        graph = DynamicGraph(edges=[(0, 1), (1, 2)])
        indptr_a, indices_a = graph.csr_view()
        indptr_b, indices_b = graph.csr_view()
        assert indptr_a is indptr_b and indices_a is indices_b  # cached
        graph.insert_edge(0, 2)
        indptr_c, indices_c = graph.csr_view()
        assert indptr_c is not indptr_a  # mutation invalidated the cache
        assert int(indptr_c[-1]) == 2 * graph.num_edges
        neighbors = {
            int(v) for v in indices_c[indptr_c[0]:indptr_c[1]]
        }
        assert neighbors == {graph.interner.id_of(1), graph.interner.id_of(2)}

    def test_neighbor_ids(self):
        graph = DynamicGraph(edges=[("a", "b"), ("a", "c")])
        ids = graph.neighbor_ids("a")
        labels = {graph.interner.label_of(i) for i in ids}
        assert labels == {"b", "c"}
        assert graph.neighbor_ids("ghost") == frozenset()

    def test_partial_bulk_update_invalidates_caches(self):
        from repro.exceptions import DuplicateEdgeError, MissingEdgeError

        graph = DynamicGraph(edges=[(1, 2)])
        graph.csr_view()
        with pytest.raises(DuplicateEdgeError):
            graph.insert_edges([(3, 4), (1, 2)])  # (3, 4) lands, then the error
        assert np.diff(graph.csr_view()[0]).tolist() == [1, 1, 1, 1]
        matrix, _ = graph.interned_adjacency_matrix()
        assert matrix.shape == (4, 4)
        graph.csr_view()
        with pytest.raises(MissingEdgeError):
            graph.delete_edges([(3, 4), (9, 9)])
        assert np.diff(graph.csr_view()[0]).tolist() == [1, 1, 0, 0]

    def test_copy_is_independent(self):
        graph = DynamicGraph(edges=[(0, 1)])
        clone = graph.copy()
        clone.insert_edge(1, 2)
        assert not graph.has_edge(1, 2)
        assert graph.interner.get_id(2) is None
        assert clone.to_edge_set() == {(0, 1), (1, 2)}
        _assert_matrix_matches_model(clone, AdjacencyModel([(0, 1), (1, 2)]))

    @given(
        operations=st.lists(
            st.tuples(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=9)),
            max_size=40,
        )
    )
    @FAST_SETTINGS
    def test_interned_views_always_match_model(self, operations):
        """Toggle each drawn pair (insert if absent, delete if present) and
        compare every interned view against the dict model."""
        graph = DynamicGraph()
        model = AdjacencyModel()
        for u, v in operations:
            if u == v:
                continue
            update = EdgeUpdate.delete(u, v) if graph.has_edge(u, v) else EdgeUpdate.insert(u, v)
            graph.apply(update)
            model.apply(update)
        assert {frozenset(edge) for edge in graph.edges()} == model.edge_set()
        _assert_matrix_matches_model(graph, model)
        indptr, _ = graph.csr_view()
        for u in model.adjacency:
            uid = graph.interner.id_of(u)
            assert graph.degree(u) == len(model.neighbors(u)) == indptr[uid + 1] - indptr[uid]
        for u in model.adjacency:
            for v in model.adjacency:
                assert graph.common_neighbors(u, v) == model.neighbors(u) & model.neighbors(v)
