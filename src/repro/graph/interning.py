"""Vertex interning: stable label <-> contiguous integer-id mapping.

Every hot path in the reproduction ultimately iterates adjacency structures
keyed by *vertex labels* — arbitrary hashable Python objects.  That keeps the
public API ergonomic (callers use whatever ids their data has), but it means
the inner loops pay label hashing and dict probing instead of arithmetic.

:class:`VertexInterner` is the bridge between the two worlds.  It assigns each
distinct label a small contiguous integer id (0, 1, 2, ...) the first time the
label is seen and never reuses or reorders ids afterwards.  Structures indexed
by interned ids can therefore be plain Python lists or numpy arrays, and a
whole neighborhood (or a whole matrix) can cross the label/id boundary once
per *bulk operation* instead of once per element.

One interner instance is shared by a :class:`~repro.graph.dynamic_graph.DynamicGraph`
and every derived view attached to it (CSR caches, adjacency-matrix exports,
counter fast paths), so integer ids are directly comparable across all of
them.  Ids are stable across deletions: deleting a vertex's last edge does not
free its id — the id space only grows, matching the graph's own "vertices stay
registered" semantics.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence

Vertex = Hashable


class VertexInterner:
    """Bidirectional label <-> contiguous int-id mapping with stable ids."""

    __slots__ = ("_ids", "_labels")

    def __init__(self, labels: Iterable[Vertex] = ()) -> None:
        self._ids: Dict[Vertex, int] = {}
        self._labels: List[Vertex] = []
        for label in labels:
            self.intern(label)

    def intern(self, label: Vertex) -> int:
        """The id of ``label``, assigning the next free id on first sight."""
        vid = self._ids.get(label)
        if vid is None:
            vid = len(self._labels)
            self._ids[label] = vid
            self._labels.append(label)
        return vid

    def intern_many(self, labels: Iterable[Vertex]) -> List[int]:
        """Intern several labels at once, returning their ids in order."""
        return [self.intern(label) for label in labels]

    def intern_new(self, labels: Sequence[Vertex]) -> None:
        """Intern ``labels`` in one bulk step: the ids one :meth:`intern` per
        label would assign.  The labels must be distinct and not interned yet
        (a graph registering only the vertices it does not hold)."""
        start = len(self._labels)
        self._labels.extend(labels)
        self._ids.update(zip(labels, range(start, len(self._labels))))

    def id_of(self, label: Vertex) -> int:
        """The id of an already-interned label (raises ``KeyError`` if new)."""
        return self._ids[label]

    def get_id(self, label: Vertex) -> Optional[int]:
        """The id of ``label``, or ``None`` if it has never been interned."""
        return self._ids.get(label)

    def label_of(self, vid: int) -> Vertex:
        """The label owning id ``vid`` (raises ``IndexError`` for unknown ids)."""
        return self._labels[vid]

    @property
    def labels(self) -> List[Vertex]:
        """All interned labels in id order (live list; do not mutate)."""
        return self._labels

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: Vertex) -> bool:
        return label in self._ids

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._labels)

    def __repr__(self) -> str:
        return f"VertexInterner(size={len(self._labels)})"
