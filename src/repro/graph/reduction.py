"""The general-graph to 4-layered-graph reduction of Section 8.

The paper solves the layered problem (Theorem 2) and then observes that
counting 4-cycles in a general simple graph reduces to it: build a layered
graph ``G'`` whose four layers are each a copy of ``V``, and for every edge
``{u, v}`` of ``G`` put the (symmetric) pair into each of the relations
``A, B, C, D``.  One general update therefore expands into eight layered
updates (two orientations times four relations).

Update ordering matters for exactness (Claim 8.1): on an *insertion* the query
is asked against ``A, B, C`` *before* the new edge reaches them (the paper says
"insert in D then C then B then A" — the query happens at the ``D`` step); on a
*deletion* the edge is removed from ``A, B, C`` first and the query is asked
afterwards.  The query is the ``D``-edge ``(v ∈ L4, u ∈ L1)``, whose layered
3-paths from ``u`` to ``v`` through ``A, B, C`` are the general graph's
3-walks from ``u`` to ``v``; with the edge absent each is a genuine 3-path, a
4-cycle through ``{u, v}``, so the general count is the signed sum of these
answers (Algorithm 1).  The *totals* differ: a layered 4-cycle of ``G'`` is a
closed 4-walk of ``G`` (its layer-vertices are distinct even when their labels
repeat), so the layered count is ``tr(A^4)``, not ``8 x`` the general count.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.graph.updates import EdgeUpdate, LayeredEdgeUpdate, UpdateKind

#: Relation order used when expanding an insertion.  The query relation ``D``
#: comes first so the query sees ``A, B, C`` without the new edge.
_INSERTION_ORDER = ("D", "C", "B", "A")
#: Deletions are expanded in the reverse order: the edge leaves ``A, B, C``
#: before the query at ``D``.
_DELETION_ORDER = ("A", "B", "C", "D")


def expand_general_update(update: EdgeUpdate) -> list[LayeredEdgeUpdate]:
    """Expand one general-graph update into its eight layered updates.

    Both orientations of the undirected edge are materialized in every
    relation, because in the reduction each relation's matrix *is* the
    (symmetric) adjacency matrix of the general graph.
    """
    order = _INSERTION_ORDER if update.kind is UpdateKind.INSERT else _DELETION_ORDER
    expanded: list[LayeredEdgeUpdate] = []
    for relation in order:
        expanded.append(LayeredEdgeUpdate(relation, update.u, update.v, update.kind))
        expanded.append(LayeredEdgeUpdate(relation, update.v, update.u, update.kind))
    return expanded


def expand_general_stream(updates: Iterable[EdgeUpdate]) -> Iterator[LayeredEdgeUpdate]:
    """Expand a whole general-graph update stream, preserving order."""
    for update in updates:
        yield from expand_general_update(update)
