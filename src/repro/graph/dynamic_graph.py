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
contiguous integer id in first-seen order.  Adjacency is kept twice: as label
sets, which the per-update counter paths read, and mirrored as int-id sets
indexed by id.  A CSR view (``indptr``/``indices`` numpy arrays) of the int-id
sets is cached and rebuilt lazily whenever the graph has mutated since the
last export.  The derived views — ``common_neighbors``, ``edges``,
:meth:`DynamicGraph.interned_adjacency_matrix` — and the counters' batched
numpy kernels all read the int-id side, which turns label-keyed Python
loops into integer set operations and vectorized numpy scatters.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Set, Union

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
    _canonical_first,
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
    integer-id sets behind a :class:`~repro.graph.interning.VertexInterner`
    (see the module docstring).
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
        #: Bumped on every structural mutation; derived-view caches key on it.
        self._version = 0
        self._csr_cache: Optional[tuple[int, np.ndarray, np.ndarray]] = None
        for vertex in vertices:
            self.add_vertex(vertex)
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

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all registered vertices."""
        return iter(self._adjacency)

    def edges(self) -> Iterator[tuple[Vertex, Vertex]]:
        """Iterate over all edges, each reported once in canonical order.

        Each edge is enumerated once by comparing integer ids
        (``u_id < v_id``) instead of calling the label comparison helper per
        *oriented* pair, and the emitted pair is canonicalized with one inline
        label comparison; non-comparable label mixes fall back to the
        repr-keyed scalar path wholesale.
        """
        labels = self._interner.labels
        pairs: list[tuple[Vertex, Vertex]] = []
        try:
            for uid, neighbor_ids in enumerate(self._int_adjacency):
                u = labels[uid]
                for vid in neighbor_ids:
                    if uid < vid:
                        v = labels[vid]
                        pairs.append((u, v) if u <= v else (v, u))  # type: ignore[operator]
        except TypeError:
            return iter(self._edges_scalar())
        return iter(pairs)

    def _edges_scalar(self) -> Iterator[tuple[Vertex, Vertex]]:
        """Label-keyed edge enumeration (repr fallback for exotic labels)."""
        for u, neighbors in self._adjacency.items():
            for v in neighbors:
                if _canonical_first(u, v):
                    yield (u, v)

    def add_vertex(self, vertex: Vertex) -> None:
        """Register ``vertex`` (a no-op if it already exists)."""
        if vertex not in self._adjacency:
            self._adjacency[vertex] = set()
            self._interner.intern(vertex)
            self._int_adjacency.append(set())
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

    def neighbor_ids(self, vertex: Vertex) -> Set[int]:
        """The interned neighbor-id set of ``vertex``.

        Empty set for unknown vertices.  Live internal set; do not mutate.
        """
        vid = self._interner.get_id(vertex)
        if vid is None:
            return _EMPTY_INT_SET
        return self._int_adjacency[vid]

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
        for vertex in batch.touched_vertices:
            self.add_vertex(vertex)
        self.delete_edges(update.endpoints for update in batch.deletions)
        self.insert_edges(update.endpoints for update in batch.insertions)
        return batch

    # -- derived views -----------------------------------------------------
    def copy(self) -> "DynamicGraph":
        """An independent deep copy of the graph."""
        clone = DynamicGraph()
        clone._adjacency = {vertex: set(neighbors) for vertex, neighbors in self._adjacency.items()}
        clone._num_edges = self._num_edges
        clone._interner = self._interner.copy()
        clone._int_adjacency = [set(neighbor_ids) for neighbor_ids in self._int_adjacency]
        return clone

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
        for vid, neighbor_ids in enumerate(int_adjacency):
            indptr[vid + 1] = len(neighbor_ids)
        np.cumsum(indptr, out=indptr)
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        for vid, neighbor_ids in enumerate(int_adjacency):
            if neighbor_ids:
                indices[indptr[vid]:indptr[vid + 1]] = list(neighbor_ids)
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

    def interned_update_delta(self, batch: UpdateBatch) -> CsrMatrix:
        """The signed adjacency delta of a normalized batch, in interned ids.

        Entry ``(u, v)`` is ``+1`` for a net insertion and ``-1`` for a net
        deletion, stored in both orientations (the adjacency is symmetric), so
        for the pre-batch adjacency ``A_old`` and the post-batch ``A_new``
        this is exactly ``ΔA = A_new - A_old``.  Must be called *after* the
        batch has been applied (so every endpoint is interned); the matrix is
        shaped to the current id universe.
        """
        id_of = self._interner.id_of
        size = len(batch)
        rows = np.empty(2 * size, dtype=np.int64)
        cols = np.empty(2 * size, dtype=np.int64)
        data = np.empty(2 * size, dtype=np.int64)
        cursor = 0
        for updates, sign in ((batch.deletions, -1), (batch.insertions, +1)):
            for update in updates:
                uid = id_of(update.u)
                vid = id_of(update.v)
                rows[cursor], cols[cursor], data[cursor] = uid, vid, sign
                rows[cursor + 1], cols[cursor + 1], data[cursor + 1] = vid, uid, sign
                cursor += 2
        n = len(self._interner)
        return CsrMatrix.from_coo(rows, cols, data, n, n)

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
        return set(self.edges())

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._adjacency

    def __len__(self) -> int:
        return self.num_vertices

    def __repr__(self) -> str:
        return f"DynamicGraph(n={self.num_vertices}, m={self.num_edges})"


#: Shared immutable empty sets returned for unknown vertices.
_EMPTY_SET: frozenset = frozenset()
_EMPTY_INT_SET: frozenset = frozenset()
