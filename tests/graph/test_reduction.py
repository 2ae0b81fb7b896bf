"""Tests for the Section 8 general-to-layered reduction."""

from __future__ import annotations

import random

from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.layered_graph import LayeredGraph
from repro.graph.reduction import expand_general_stream, expand_general_update
from repro.graph.static_counts import count_closed_four_walks, count_four_cycles_trace
from repro.graph.updates import EdgeUpdate, UpdateKind, UpdateStream

from tests.conftest import k4_edges, random_dynamic_stream


class TestExpansion:
    def test_insertion_order_queries_first(self):
        expanded = expand_general_update(EdgeUpdate.insert(1, 2))
        assert len(expanded) == 8
        assert expanded[0].relation == "D"
        assert expanded[-1].relation == "A"
        assert all(update.kind is UpdateKind.INSERT for update in expanded)

    def test_deletion_order_reversed(self):
        expanded = expand_general_update(EdgeUpdate.delete(1, 2))
        assert expanded[0].relation == "A"
        assert expanded[-1].relation == "D"
        assert all(update.kind is UpdateKind.DELETE for update in expanded)

    def test_both_orientations_present(self):
        expanded = expand_general_update(EdgeUpdate.insert(1, 2))
        a_pairs = {(u.left, u.right) for u in expanded if u.relation == "A"}
        assert a_pairs == {(1, 2), (2, 1)}

    def test_expand_stream_preserves_length(self):
        stream = UpdateStream.from_edges([(1, 2), (2, 3)])
        assert len(list(expand_general_stream(stream))) == 16


class TestCycleCorrespondence:
    def test_layered_count_equals_closed_walks(self):
        """The reduced layered graph's 4-cycle count equals the general
        graph's closed-4-walk count (every relation is the adjacency matrix)."""
        rng = random.Random(5)
        for _ in range(5):
            n = rng.randint(4, 9)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
            general = DynamicGraph(vertices=range(n), edges=edges)
            layered = LayeredGraph()
            for update in expand_general_stream(UpdateStream.from_edges(edges)):
                layered.apply(update)
            assert layered.count_layered_four_cycles() == count_closed_four_walks(general)

    def test_reduction_consistent_under_deletions(self):
        stream = random_dynamic_stream(num_vertices=8, num_updates=60, seed=9)
        general = DynamicGraph()
        layered = LayeredGraph()
        for update in stream:
            general.apply(update)
            for layered_update in expand_general_update(update):
                layered.apply(layered_update)
        assert layered.count_layered_four_cycles() == count_closed_four_walks(general)

    def test_k4_correspondence(self):
        """K4 has tr(A^4) = 84 closed 4-walks, which is what the reduced
        layered graph must report; the general count stays 3."""
        layered = LayeredGraph()
        general = DynamicGraph(edges=k4_edges())
        for update in expand_general_stream(UpdateStream.from_edges(k4_edges())):
            layered.apply(update)
        assert count_four_cycles_trace(general) == 3
        assert layered.count_layered_four_cycles() == 84
        assert count_closed_four_walks(general) == 84
