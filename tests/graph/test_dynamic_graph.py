"""Unit tests for the dynamic simple graph."""

from __future__ import annotations

import pytest

from repro.exceptions import DuplicateEdgeError, MissingEdgeError, SelfLoopError, UnknownVertexError
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.updates import EdgeUpdate, UpdateStream, _canonical_order, normalize_batch

from tests.conftest import k4_edges, square_edges


class TestStructure:
    def test_empty_graph(self):
        graph = DynamicGraph()
        assert graph.num_vertices == 0
        assert graph.num_edges == 0
        assert list(graph.edges()) == []

    def test_insert_creates_vertices(self):
        graph = DynamicGraph()
        graph.insert_edge(1, 2)
        assert graph.num_vertices == 2
        assert graph.num_edges == 1
        assert graph.has_edge(1, 2) and graph.has_edge(2, 1)

    def test_add_vertex_idempotent(self):
        graph = DynamicGraph()
        graph.add_vertex("x")
        graph.add_vertex("x")
        assert graph.num_vertices == 1
        assert graph.degree("x") == 0

    def test_degree_and_neighbors(self):
        graph = DynamicGraph(edges=square_edges())
        assert graph.degree("a") == 2
        assert graph.neighbors("a") == {"b", "d"}

    def test_strict_degree_unknown_vertex(self):
        graph = DynamicGraph()
        assert graph.degree("nope") == 0
        with pytest.raises(UnknownVertexError):
            graph.degree("nope", strict=True)

    def test_common_neighbors(self):
        graph = DynamicGraph(edges=k4_edges())
        assert graph.common_neighbors(0, 1) == {2, 3}

    def test_edges_reported_once(self):
        graph = DynamicGraph(edges=k4_edges())
        assert len(list(graph.edges())) == 6

    def test_edges_canonical_with_mixed_labels(self):
        graph = DynamicGraph(edges=[("a", 1), (1, 2)])
        assert set(graph.edges()) == {_canonical_order("a", 1), (1, 2)}


class TestUpdates:
    def test_self_loop_rejected(self):
        graph = DynamicGraph()
        with pytest.raises(SelfLoopError):
            graph.insert_edge(1, 1)

    def test_duplicate_insert_rejected(self):
        graph = DynamicGraph(edges=[(1, 2)])
        with pytest.raises(DuplicateEdgeError):
            graph.insert_edge(2, 1)

    def test_missing_delete_rejected(self):
        graph = DynamicGraph()
        with pytest.raises(MissingEdgeError):
            graph.delete_edge(1, 2)

    def test_delete_keeps_vertices(self):
        graph = DynamicGraph(edges=[(1, 2)])
        graph.delete_edge(1, 2)
        assert graph.num_edges == 0
        assert graph.has_vertex(1) and graph.has_vertex(2)

    def test_apply_and_apply_all(self):
        graph = DynamicGraph()
        graph.apply_all(UpdateStream.from_edges(square_edges()))
        assert graph.num_edges == 4
        graph.apply(EdgeUpdate.delete("a", "b"))
        assert graph.num_edges == 3


class TestDerivedViews:
    def test_copy_is_independent(self):
        graph = DynamicGraph(edges=[(1, 2)])
        clone = graph.copy()
        clone.insert_edge(2, 3)
        assert graph.num_edges == 1
        assert clone.num_edges == 2

    def test_to_edge_set(self):
        graph = DynamicGraph(edges=[(2, 1)])
        assert graph.to_edge_set() == {(1, 2)}

    def test_contains_and_len(self):
        graph = DynamicGraph(edges=[(1, 2)])
        assert 1 in graph and 3 not in graph
        assert len(graph) == 2


class TestBulkUpdates:
    def test_insert_edges_bulk(self):
        graph = DynamicGraph()
        assert graph.insert_edges(k4_edges()) == 6
        assert graph.num_edges == 6
        assert graph.num_vertices == 4

    def test_insert_edges_duplicate_rejected_midway(self):
        graph = DynamicGraph()
        with pytest.raises(DuplicateEdgeError):
            graph.insert_edges([(1, 2), (2, 3), (2, 1)])
        # Edge count stays consistent with what was actually applied.
        assert graph.num_edges == 2

    def test_insert_edges_self_loop_rejected(self):
        graph = DynamicGraph()
        with pytest.raises(SelfLoopError):
            graph.insert_edges([(1, 1)])

    def test_delete_edges_bulk(self):
        graph = DynamicGraph(edges=k4_edges())
        assert graph.delete_edges([(0, 1), (2, 3)]) == 2
        assert graph.num_edges == 4
        assert not graph.has_edge(0, 1)

    def test_delete_edges_missing_rejected(self):
        graph = DynamicGraph(edges=[(1, 2)])
        with pytest.raises(MissingEdgeError):
            graph.delete_edges([(1, 2), (3, 4)])

    def test_apply_batch_normalizes_and_applies(self):
        graph = DynamicGraph(edges=[(1, 2), (2, 3)])
        batch = graph.apply_batch(
            [
                EdgeUpdate.delete(1, 2),
                EdgeUpdate.insert(3, 4),
                EdgeUpdate.insert(1, 2),
                EdgeUpdate.delete(1, 2),  # net: (1,2) deleted, (3,4) inserted
            ]
        )
        assert graph.to_edge_set() == {(2, 3), (3, 4)}
        assert batch.raw_size == 4
        assert batch.cancelled == 2

    def test_apply_batch_matches_apply_all(self):
        updates = [
            EdgeUpdate.insert(1, 2),
            EdgeUpdate.insert(2, 3),
            EdgeUpdate.insert(1, 3),
            EdgeUpdate.delete(2, 3),
        ]
        sequential = DynamicGraph()
        sequential.apply_all(updates)
        batched = DynamicGraph()
        batched.apply_batch(updates)
        assert batched.to_edge_set() == sequential.to_edge_set()

    def test_apply_batch_accepts_prenormalized_batch(self):
        graph = DynamicGraph()
        batch = normalize_batch([EdgeUpdate.insert(1, 2)])
        graph.apply_batch(batch)
        assert graph.has_edge(1, 2)


class TestBatchVertexRegistration:
    def test_cancelled_pair_still_registers_vertices(self):
        graph = DynamicGraph()
        graph.apply_batch([EdgeUpdate.insert(5, 6), EdgeUpdate.delete(5, 6)])
        assert graph.num_edges == 0
        assert graph.has_vertex(5) and graph.has_vertex(6)

    def test_batch_vertex_set_matches_sequential_replay(self):
        updates = [
            EdgeUpdate.insert(1, 2),
            EdgeUpdate.insert(3, 4),
            EdgeUpdate.delete(3, 4),
        ]
        sequential = DynamicGraph()
        sequential.apply_all(updates)
        batched = DynamicGraph()
        batched.apply_batch(updates)
        assert set(batched.vertices()) == set(sequential.vertices())
