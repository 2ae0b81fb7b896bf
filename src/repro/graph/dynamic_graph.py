"""A simple undirected graph under fully dynamic edge updates.

:class:`DynamicGraph` is the substrate every general-graph counter in
:mod:`repro.core` builds on.  It stores adjacency sets, keeps the edge count in
sync, enforces the simple-graph invariants the paper assumes (Section 2.1:
no self-loops, no multi-edges), and exposes exactly the primitives the
algorithms need: neighborhood iteration, degree queries, membership tests, and
the adjacency exports the from-scratch recounts and the batch kernels read.

Vertex indexing.  The paper's algorithms index vertices as the rows and
columns of an ``n x n`` adjacency matrix; here that indexing is a
:class:`~repro.graph.interning.VertexInterner`, which maps every label to a
contiguous integer id in first-seen order.  The edge set is kept three ways,
each updated by every mutation:

* label adjacency sets, which the per-update counter paths read;
* int-id adjacency sets indexed by interned id, from which a CSR view
  (``indptr``/``indices`` numpy arrays) is cached and rebuilt lazily the first
  time it is asked for after a mutation; ``common_neighbors``,
  :meth:`DynamicGraph.interned_adjacency_matrix` and the counters' batched
  numpy kernels read that side;
* an edge index, an insertion-ordered dict of canonical label pairs, which
  :meth:`DynamicGraph.edges` copies, so checkpoints and read views list the
  edges without touching either adjacency.
"""

from __future__ import annotations

import itertools
from typing import Dict, Hashable, Iterable, List, Optional, Set, Union

import numpy as np

from repro.exceptions import (
    DuplicateEdgeError,
    MissingEdgeError,
    SelfLoopError,
    UnknownVertexError,
)
from repro.graph.interning import VertexInterner
from repro.graph.updates import (
    EdgeUpdate,
    UpdateBatch,
    UpdateKind,
    _canonical_order,
    normalize_batch,
)
from repro.kernels import CsrMatrix, expand_csr_rows

Vertex = Hashable


class DynamicGraph:
    """A simple undirected graph supporting edge insertions and deletions.

    Vertices are created lazily: inserting an edge implicitly adds its
    endpoints, and :meth:`add_vertex` can pre-register isolated vertices (the
    paper's graphs have a fixed vertex set ``V`` with edges arriving over
    time).  Deleting the last edge of a vertex keeps the vertex registered so
    degree-0 vertices remain queryable.  Adjacency is mirrored into
    integer-id sets behind a :class:`~repro.graph.interning.VertexInterner`,
    and the edges are indexed as canonical pairs (see the module docstring).
    """

    def __init__(
        self,
        vertices: Iterable[Vertex] = (),
        edges: Iterable[tuple[Vertex, Vertex]] = (),
    ) -> None:
        self._adjacency: Dict[Vertex, Set[Vertex]] = {}
        self._num_edges = 0
        self._interner = VertexInterner()
        #: Int-id adjacency, indexed by interned id.
        self._int_adjacency: List[Set[int]] = []
        #: The edge index: every edge once, as its canonical pair, in
        #: insertion order (the values are unused).
        self._edges: Dict[tuple[Vertex, Vertex], None] = {}
        #: Every vertex, shared by :meth:`vertices` callers until one is added.
        self._vertex_tuple: tuple[Vertex, ...] = ()
        #: Bumped on every structural mutation; derived-view caches key on it.
        self._version = 0
        self._csr_cache: Optional[tuple[int, np.ndarray, np.ndarray]] = None
        self.add_vertices(vertices)
        for u, v in edges:
            self.insert_edge(u, v)

    # -- basic structure ---------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of registered vertices (including isolated ones)."""
        return len(self._adjacency)

    @property
    def num_edges(self) -> int:
        """Current number of edges, the paper's ``m``."""
        return self._num_edges

    @property
    def interner(self) -> VertexInterner:
        """The vertex interner: label <-> row/column id of the adjacency."""
        return self._interner

    @property
    def version(self) -> int:
        """Mutation counter; changes whenever the graph structure changes."""
        return self._version

    @property
    def adjacency(self) -> Dict[Vertex, Set[Vertex]]:
        """The live label adjacency, vertex -> neighbor set; read-only use
        only (a mirrored 3-path oracle's chain relations read it)."""
        return self._adjacency

    def vertices(self) -> tuple[Vertex, ...]:
        """All registered vertices, in registration order.

        Every caller gets the same tuple until a vertex is added: vertices are
        never removed, so their count names the set.  Checkpoints keep the
        tuple as it is, so many checkpoints of one run store one vertex set.
        """
        if len(self._vertex_tuple) != len(self._adjacency):
            self._vertex_tuple = tuple(self._adjacency)
        return self._vertex_tuple

    def edges(self) -> List[tuple[Vertex, Vertex]]:
        """Every edge once, as its canonical pair (see
        :func:`~repro.graph.updates._canonical_order`), in insertion order: a
        copy of the edge index."""
        return list(self._edges)

    def add_vertex(self, vertex: Vertex) -> None:
        """Register ``vertex`` (a no-op if it already exists)."""
        if vertex not in self._adjacency:
            self._adjacency[vertex] = set()
            self._interner.intern(vertex)
            self._int_adjacency.append(set())
            self._version += 1

    def add_vertices(self, vertices: Iterable[Vertex]) -> None:
        """Register every vertex of ``vertices`` not registered yet, in order,
        in one bulk step: the graph and the interner ids one
        :meth:`add_vertex` per vertex would give."""
        adjacency = self._adjacency
        fresh = [vertex for vertex in dict.fromkeys(vertices) if vertex not in adjacency]
        if fresh:
            self._interner.intern_new(fresh)
            adjacency.update({vertex: set() for vertex in fresh})
            self._int_adjacency.extend([set() for _ in fresh])
            self._version += 1

    def has_vertex(self, vertex: Vertex) -> bool:
        return vertex in self._adjacency

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Whether the undirected edge ``{u, v}`` is currently present."""
        neighbors = self._adjacency.get(u)
        return neighbors is not None and v in neighbors

    def degree(self, vertex: Vertex, strict: bool = False) -> int:
        """The degree of ``vertex``; 0 for unknown vertices unless ``strict``."""
        neighbors = self._adjacency.get(vertex)
        if neighbors is None:
            if strict:
                raise UnknownVertexError(f"vertex {vertex!r} is not in the graph")
            return 0
        return len(neighbors)

    def neighbors(self, vertex: Vertex) -> Set[Vertex]:
        """The neighbor set of ``vertex`` (empty set for unknown vertices).

        The returned set is the live internal set; callers must not mutate it.
        """
        return self._adjacency.get(vertex, _EMPTY_SET)

    def common_neighbors(self, u: Vertex, v: Vertex) -> Set[Vertex]:
        """Vertices adjacent to both ``u`` and ``v`` (the wedges between them).

        The intersection runs over integer-id sets (cheap hashing) and only
        the result crosses back to labels.
        """
        uid = self._interner.get_id(u)
        vid = self._interner.get_id(v)
        if uid is None or vid is None:
            return set()
        labels = self._interner.labels
        return {labels[w] for w in self._int_adjacency[uid] & self._int_adjacency[vid]}

    # -- updates -----------------------------------------------------------
    def insert_edge(self, u: Vertex, v: Vertex) -> None:
        """Insert the undirected edge ``{u, v}``.

        Raises :class:`SelfLoopError` for ``u == v`` and
        :class:`DuplicateEdgeError` if the edge is already present.
        """
        if u == v:
            raise SelfLoopError(f"cannot insert self-loop at vertex {u!r}")
        self.add_vertex(u)
        self.add_vertex(v)
        if v in self._adjacency[u]:
            raise DuplicateEdgeError(f"edge ({u!r}, {v!r}) is already present")
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)
        uid = self._interner.id_of(u)
        vid = self._interner.id_of(v)
        self._int_adjacency[uid].add(vid)
        self._int_adjacency[vid].add(uid)
        try:
            self._edges[(u, v) if u <= v else (v, u)] = None  # type: ignore[operator]
        except TypeError:
            self._edges[_canonical_order(u, v)] = None
        self._num_edges += 1
        self._version += 1

    def delete_edge(self, u: Vertex, v: Vertex) -> None:
        """Delete the undirected edge ``{u, v}``.

        Raises :class:`MissingEdgeError` if the edge is not present.
        """
        neighbors = self._adjacency.get(u)
        if neighbors is None or v not in neighbors:
            raise MissingEdgeError(f"edge ({u!r}, {v!r}) is not present")
        neighbors.remove(v)
        self._adjacency[v].remove(u)
        uid = self._interner.id_of(u)
        vid = self._interner.id_of(v)
        self._int_adjacency[uid].discard(vid)
        self._int_adjacency[vid].discard(uid)
        try:
            del self._edges[(u, v) if u <= v else (v, u)]  # type: ignore[operator]
        except TypeError:
            del self._edges[_canonical_order(u, v)]
        self._num_edges -= 1
        self._version += 1

    def apply(self, update: EdgeUpdate) -> None:
        """Apply a single :class:`EdgeUpdate` (insert or delete)."""
        if update.kind is UpdateKind.INSERT:
            self.insert_edge(update.u, update.v)
        else:
            self.delete_edge(update.u, update.v)

    def apply_all(self, updates: Iterable[EdgeUpdate]) -> None:
        """Apply every update in ``updates`` in order."""
        for update in updates:
            self.apply(update)

    # -- bulk updates --------------------------------------------------------
    def insert_edges(self, edges: Iterable[tuple[Vertex, Vertex]]) -> int:
        """Insert several edges at once, returning how many were inserted.

        Equivalent to calling :meth:`insert_edge` per edge but with vertex
        registration inlined, so repeated endpoints are not re-looked-up
        through :meth:`add_vertex` on every call.
        """
        adjacency = self._adjacency
        interner = self._interner
        int_adjacency = self._int_adjacency
        index = self._edges
        inserted = 0
        try:
            for u, v in edges:
                if u == v:
                    raise SelfLoopError(f"cannot insert self-loop at vertex {u!r}")
                neighbors_u = adjacency.get(u)
                if neighbors_u is None:
                    neighbors_u = set()
                    adjacency[u] = neighbors_u
                    interner.intern(u)
                    int_adjacency.append(set())
                neighbors_v = adjacency.get(v)
                if neighbors_v is None:
                    neighbors_v = set()
                    adjacency[v] = neighbors_v
                    interner.intern(v)
                    int_adjacency.append(set())
                if v in neighbors_u:
                    raise DuplicateEdgeError(f"edge ({u!r}, {v!r}) is already present")
                neighbors_u.add(v)
                neighbors_v.add(u)
                uid = interner.id_of(u)
                vid = interner.id_of(v)
                int_adjacency[uid].add(vid)
                int_adjacency[vid].add(uid)
                try:
                    index[(u, v) if u <= v else (v, u)] = None  # type: ignore[operator]
                except TypeError:
                    index[_canonical_order(u, v)] = None
                self._num_edges += 1
                inserted += 1
        finally:
            # In the finally so a mid-loop validation error (with some edges
            # already applied) still invalidates the derived-view caches.
            self._version += 1
        return inserted

    def delete_edges(self, edges: Iterable[tuple[Vertex, Vertex]]) -> int:
        """Delete several edges at once, returning how many were deleted."""
        adjacency = self._adjacency
        interner = self._interner
        int_adjacency = self._int_adjacency
        index = self._edges
        deleted = 0
        try:
            for u, v in edges:
                neighbors = adjacency.get(u)
                if neighbors is None or v not in neighbors:
                    raise MissingEdgeError(f"edge ({u!r}, {v!r}) is not present")
                neighbors.remove(v)
                adjacency[v].remove(u)
                uid = interner.id_of(u)
                vid = interner.id_of(v)
                int_adjacency[uid].discard(vid)
                int_adjacency[vid].discard(uid)
                try:
                    del index[(u, v) if u <= v else (v, u)]  # type: ignore[operator]
                except TypeError:
                    del index[_canonical_order(u, v)]
                self._num_edges -= 1
                deleted += 1
        finally:
            # See insert_edges: caches must not survive a partial bulk delete.
            self._version += 1
        return deleted

    def apply_batch(self, updates: Union[UpdateBatch, Iterable[EdgeUpdate]]) -> UpdateBatch:
        """Apply a window of updates as one normalized batch.

        Raw updates are normalized against the current edge set (cancelling
        insert/delete pairs and validating consistency once per distinct edge);
        an already-normalized :class:`UpdateBatch` is applied as-is.  Net
        deletions are applied before net insertions.  Every vertex the raw
        window touches is registered — even when its updates cancelled — so
        the resulting graph (vertices included) matches a per-update replay.
        Returns the batch that was applied.
        """
        if isinstance(updates, UpdateBatch):
            batch = updates
        else:
            batch = normalize_batch(updates, self.has_edge)
        self.add_vertices(batch.touched_vertices)
        self.delete_edges(update.endpoints for update in batch.deletions)
        self.insert_edges(update.endpoints for update in batch.insertions)
        return batch

    # -- derived views -----------------------------------------------------
    def csr_view(self) -> tuple[np.ndarray, np.ndarray]:
        """A CSR view ``(indptr, indices)`` of the interned adjacency.

        ``indices[indptr[i]:indptr[i + 1]]`` holds the neighbor ids of the
        vertex with interned id ``i``.  The view is cached and rebuilt lazily
        the first time it is requested after a mutation (so a whole batched
        kernel pays one O(n + m) rebuild, not one per export).  The returned
        arrays are shared with the cache; callers must not mutate them.
        """
        cache = self._csr_cache
        if cache is not None and cache[0] == self._version:
            return cache[1], cache[2]
        int_adjacency = self._int_adjacency
        n = len(int_adjacency)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, int_adjacency), np.int64, n), out=indptr[1:])
        indices = np.fromiter(
            itertools.chain.from_iterable(int_adjacency), np.int64, int(indptr[-1])
        )
        self._csr_cache = (self._version, indptr, indices)
        return indptr, indices

    def csr_matrix(self) -> CsrMatrix:
        """The adjacency as a positional :class:`~repro.matmul.engine.CsrMatrix`.

        Row/column position ``i`` belongs to the vertex with interned id ``i``
        (``interner.labels`` order), entries are all ones.  Shares the cached
        arrays of :meth:`csr_view`; callers must not mutate the result.  This
        is the operand the batched SpGEMM rebuild kernels consume.
        """
        indptr, indices = self.csr_view()
        return CsrMatrix.from_parts(
            indptr, indices, np.ones(len(indices), dtype=np.int64), len(indptr) - 1
        )

    def interned_adjacency_matrix(self, dtype=np.int64) -> tuple[np.ndarray, List[Vertex]]:
        """The dense adjacency matrix in interned-id order.

        Returns ``(matrix, labels)`` where row/column ``i`` belongs to
        ``labels[i]`` (the interner's id order, which is first-seen order, not
        a sorted one).  Built by one vectorized scatter over the CSR view.
        """
        indptr, indices = self.csr_view()
        n = len(indptr) - 1
        matrix = np.zeros((n, n), dtype=dtype)
        if len(indices):
            matrix[expand_csr_rows(indptr), indices] = 1
        return matrix, self._interner.labels

    def to_edge_set(self) -> set[tuple[Vertex, Vertex]]:
        """The current edge set as canonical pairs."""
        return set(self._edges)

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._adjacency

    def __len__(self) -> int:
        return self.num_vertices

    def __repr__(self) -> str:
        return f"DynamicGraph(n={self.num_vertices}, m={self.num_edges})"


#: Shared immutable empty set returned for unknown vertices.
_EMPTY_SET: frozenset = frozenset()
