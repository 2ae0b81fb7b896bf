"""Edge-update primitives for fully dynamic graphs.

The fully dynamic model of the paper (Section 1) feeds the algorithm a stream
of edge insertions and deletions over a simple graph that starts empty.  This
module defines the small value types that represent those updates:

* :class:`UpdateKind` — insertion or deletion.
* :class:`EdgeUpdate` — an undirected edge update on a general graph.
* :class:`LayeredEdgeUpdate` — an update to one of the relations ``A``, ``B``,
  ``C``, ``D`` of a 4-layered graph (Section 2.1).
* :class:`UpdateStream` — an ordered, validated sequence of updates with a few
  convenience constructors used by the workload generators and the harness.
* :class:`UpdateBatch` / :func:`normalize_batch` — a canonicalized window of
  updates for the batched fast paths: insert/delete pairs on the same edge are
  cancelled, consistency is validated once against a live-edge snapshot, and
  the surviving net updates are ordered deletions-first so they can be applied
  in bulk.  The window is read in one pass, shared with the tuple windows of
  :mod:`repro.db.ivm` (:func:`simulate_window_presence`).  Replaying a
  normalized batch produces the same graph — and hence the same 4-cycle
  count — as replaying the raw window, so counts are exact at batch
  boundaries.

All value types are immutable so they can be hashed, put in sets, and replayed
any number of times.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence

from repro.exceptions import ConfigurationError, InvalidUpdateError, SelfLoopError

Vertex = Hashable

#: The four relations of a 4-layered graph, in the order used by the paper:
#: ``A(L1, L2)``, ``B(L2, L3)``, ``C(L3, L4)``, ``D(L4, L1)``.
RELATION_NAMES = ("A", "B", "C", "D")


class UpdateKind(enum.Enum):
    """Whether an update inserts or deletes an edge/tuple."""

    INSERT = "insert"
    DELETE = "delete"

    @property
    def sign(self) -> int:
        """``+1`` for insertions and ``-1`` for deletions.

        The paper maintains counts by adding the number of 4-cycles through a
        newly inserted edge and subtracting the number through a deleted edge;
        the sign is that multiplier.
        """
        return 1 if self is UpdateKind.INSERT else -1

    def inverse(self) -> "UpdateKind":
        """Return the opposite kind (insert <-> delete)."""
        return UpdateKind.DELETE if self is UpdateKind.INSERT else UpdateKind.INSERT


_INSERT = UpdateKind.INSERT


@dataclass(frozen=True)
class EdgeUpdate:
    """A single undirected edge update ``(u, v)`` on a general graph.

    The endpoints are stored in a canonical order (sorted by ``repr`` for
    heterogeneous vertex labels, by value when comparable) so that
    ``EdgeUpdate(1, 2, INSERT) == EdgeUpdate(2, 1, INSERT)``.
    """

    u: Vertex
    v: Vertex
    kind: UpdateKind = UpdateKind.INSERT

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise SelfLoopError(
                f"self-loop update on vertex {self.u!r} is not allowed in a simple graph"
            )
        first, second = _canonical_order(self.u, self.v)
        object.__setattr__(self, "u", first)
        object.__setattr__(self, "v", second)

    @property
    def endpoints(self) -> tuple[Vertex, Vertex]:
        """The canonically ordered endpoint pair."""
        return (self.u, self.v)

    @property
    def is_insert(self) -> bool:
        return self.kind is UpdateKind.INSERT

    @property
    def is_delete(self) -> bool:
        return self.kind is UpdateKind.DELETE

    @property
    def sign(self) -> int:
        """``+1`` for an insertion, ``-1`` for a deletion."""
        return self.kind.sign

    def inverse(self) -> "EdgeUpdate":
        """Return the update that undoes this one."""
        return EdgeUpdate(self.u, self.v, self.kind.inverse())

    def touches(self, vertex: Vertex) -> bool:
        """Whether ``vertex`` is one of the endpoints."""
        return vertex == self.u or vertex == self.v

    def other_endpoint(self, vertex: Vertex) -> Vertex:
        """Given one endpoint, return the other one."""
        if vertex == self.u:
            return self.v
        if vertex == self.v:
            return self.u
        raise InvalidUpdateError(f"{vertex!r} is not an endpoint of {self!r}")

    @classmethod
    def insert(cls, u: Vertex, v: Vertex) -> "EdgeUpdate":
        """Convenience constructor for an insertion."""
        return cls(u, v, UpdateKind.INSERT)

    @classmethod
    def delete(cls, u: Vertex, v: Vertex) -> "EdgeUpdate":
        """Convenience constructor for a deletion."""
        return cls(u, v, UpdateKind.DELETE)


@dataclass(frozen=True)
class LayeredEdgeUpdate:
    """An update to a single relation of a 4-layered graph.

    ``relation`` is one of ``"A"``, ``"B"``, ``"C"``, ``"D"``; ``left`` lives
    in the relation's left layer and ``right`` in its right layer (``A`` goes
    from ``L1`` to ``L2`` and so on, wrapping around with ``D`` from ``L4`` to
    ``L1``).  Unlike :class:`EdgeUpdate`, the pair is *ordered*: the layered
    graph distinguishes which endpoint lies in which layer.
    """

    relation: str
    left: Vertex
    right: Vertex
    kind: UpdateKind = UpdateKind.INSERT

    def __post_init__(self) -> None:
        if self.relation not in RELATION_NAMES:
            raise InvalidUpdateError(
                f"unknown relation {self.relation!r}; expected one of {RELATION_NAMES}"
            )

    @property
    def sign(self) -> int:
        return self.kind.sign

    @property
    def is_insert(self) -> bool:
        return self.kind is UpdateKind.INSERT

    @property
    def is_delete(self) -> bool:
        return self.kind is UpdateKind.DELETE

    def inverse(self) -> "LayeredEdgeUpdate":
        """Return the update that undoes this one."""
        return LayeredEdgeUpdate(self.relation, self.left, self.right, self.kind.inverse())

    @classmethod
    def insert(cls, relation: str, left: Vertex, right: Vertex) -> "LayeredEdgeUpdate":
        return cls(relation, left, right, UpdateKind.INSERT)

    @classmethod
    def delete(cls, relation: str, left: Vertex, right: Vertex) -> "LayeredEdgeUpdate":
        return cls(relation, left, right, UpdateKind.DELETE)


@dataclass(frozen=True)
class UpdateBatch:
    """A canonicalized window of edge updates.

    Produced by :func:`normalize_batch`.  The batch stores only the *net*
    updates of the window — insert/delete pairs on the same edge cancel — split
    into deletions and insertions; each is the window's own last update of
    its edge.  Against the live-edge snapshot the window was normalized for,
    every deletion targets a live edge and every insertion an absent one, so
    the batch can be applied deletions-first without any per-update
    validation, in any interleaving.

    ``raw_size`` is the length of the original window (the number of logical
    stream positions the batch consumes) and ``cancelled`` how many of those
    raw updates annihilated each other.  ``touched_vertices`` covers **every**
    vertex named by the raw window — including endpoints of cancelled pairs —
    so consumers can reproduce the vertex registration a per-update replay
    would have performed.
    """

    deletions: tuple[EdgeUpdate, ...]
    insertions: tuple[EdgeUpdate, ...]
    raw_size: int
    cancelled: int = 0
    touched_vertices: frozenset = field(default_factory=frozenset)

    def __len__(self) -> int:
        """Number of surviving net updates."""
        return len(self.deletions) + len(self.insertions)

    def __iter__(self) -> Iterator[EdgeUpdate]:
        """Iterate the net updates in canonical order (deletions first)."""
        yield from self.deletions
        yield from self.insertions

    def __bool__(self) -> bool:
        return bool(self.deletions or self.insertions)

    @property
    def is_empty(self) -> bool:
        """Whether every raw update was cancelled (the batch is a no-op)."""
        return not (self.deletions or self.insertions)

    @property
    def num_insertions(self) -> int:
        return len(self.insertions)

    @property
    def num_deletions(self) -> int:
        return len(self.deletions)

    def net_edge_delta(self) -> int:
        """The change in the number of live edges after applying the batch."""
        return len(self.insertions) - len(self.deletions)


def simulate_window_presence(
    entries: Iterable[tuple],
    is_key_live: Optional[Callable[..., bool]],
    what: str,
) -> tuple[dict, list, int]:
    """Shared pass of batch normalization (edges *and* tuples).

    ``entries`` yields one ``(key, inserting, update)`` triple per raw
    update, in window order.  Each distinct key is probed against the live
    snapshot exactly once, as ``is_key_live(*key)`` (``None`` means nothing
    is live), each update is validated against the simulated state, and a
    key's last entry carries its final state, so the pass keeps one dict
    write per update.  Returns
    ``(last, net, raw_size)``: ``last`` maps every distinct key, in
    first-touch order, to its last entry; ``net`` lists, in the same order,
    the last entries of the keys whose presence the window changes (a net
    insertion's last update inserts, a net deletion's deletes, so those
    update objects stand for the net updates); ``raw_size`` is the window's
    length.

    Raises :class:`InvalidUpdateError` on an insertion of a present key or a
    deletion of an absent one, accounting for earlier updates in the window;
    ``what`` names the key kind in the error message.
    """
    if is_key_live is None:
        is_key_live = _never_live
    initially: dict = {}
    last: dict = {}
    position = -1
    for position, entry in enumerate(entries):
        key, inserting, _ = entry
        previous = last.get(key)
        if previous is None:
            live = initially[key] = bool(is_key_live(*key))
        else:
            live = previous[1]
        if inserting:
            if live:
                raise InvalidUpdateError(
                    f"batch update #{position} inserts {what} {key} which is already present"
                )
        elif not live:
            raise InvalidUpdateError(
                f"batch update #{position} deletes {what} {key} which is not present"
            )
        last[key] = entry
    net = [entry for key, entry in last.items() if bool(entry[1]) is not initially[key]]
    return last, net, position + 1


def _never_live(*key) -> bool:
    """The live-key probe of an empty graph or database."""
    return False


def _edge_entries(updates: Iterable[EdgeUpdate]) -> Iterator[tuple]:
    """The ``(key, inserting, update)`` entries of a raw edge window, with
    the canonical endpoint pair as the key."""
    for update in updates:
        if not isinstance(update, EdgeUpdate):
            raise InvalidUpdateError(
                f"batch elements must be EdgeUpdate, got {type(update).__name__}"
            )
        yield (update.u, update.v), update.kind is _INSERT, update


def normalize_batch(
    updates: Iterable[EdgeUpdate],
    is_edge_live: Optional[Callable[[Vertex, Vertex], bool]] = None,
) -> UpdateBatch:
    """Canonicalize a window of updates against a live-edge snapshot.

    ``is_edge_live`` answers membership queries against the graph state the
    window will be applied to (e.g. ``DynamicGraph.has_edge``); ``None`` means
    an empty graph.  Each distinct edge is probed at most once — validation is
    amortized across the window instead of paid per update.  The window is
    read in one pass (:func:`simulate_window_presence`), and a net update is
    the window's own last update of its edge, not a copy.

    Raises :class:`InvalidUpdateError` if the window is inconsistent (an
    insertion of a present edge or a deletion of an absent one, accounting for
    earlier updates in the same window) or names something other than an
    :class:`EdgeUpdate`.
    """
    last, net, raw_size = simulate_window_presence(
        _edge_entries(updates), is_edge_live, "edge"
    )
    return UpdateBatch(
        deletions=tuple([update for _, inserting, update in net if not inserting]),
        insertions=tuple([update for _, inserting, update in net if inserting]),
        raw_size=raw_size,
        cancelled=raw_size - len(net),
        # Filled endpoint by endpoint in first-touch order, then frozen: its
        # iteration order is the order a replay registers new vertices in.
        touched_vertices=frozenset(set(itertools.chain.from_iterable(last))),
    )


class UpdateStream(Sequence[EdgeUpdate]):
    """An ordered sequence of :class:`EdgeUpdate` objects.

    The stream is the unit the workload generators produce and the experiment
    harness replays.  Besides sequence behaviour it offers:

    * :meth:`validate` — check the stream is *consistent*: no duplicate
      insertions and no deletions of absent edges when replayed from an empty
      graph (or from ``initial_edges``).
    * :meth:`final_edges` — the edge set after replaying the whole stream.
    * :meth:`insertions_only` / :meth:`prefix` — simple slicing helpers.
    """

    def __init__(self, updates: Iterable[EdgeUpdate] = ()) -> None:
        self._updates: list[EdgeUpdate] = list(updates)
        for update in self._updates:
            if not isinstance(update, EdgeUpdate):
                raise InvalidUpdateError(
                    f"UpdateStream elements must be EdgeUpdate, got {type(update).__name__}"
                )

    # -- Sequence protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._updates)

    def __iter__(self) -> Iterator[EdgeUpdate]:
        return iter(self._updates)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return UpdateStream(self._updates[index])
        return self._updates[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, UpdateStream):
            return self._updates == other._updates
        return NotImplemented

    def __repr__(self) -> str:
        inserts = sum(1 for update in self._updates if update.is_insert)
        deletes = len(self._updates) - inserts
        return f"UpdateStream(total={len(self._updates)}, inserts={inserts}, deletes={deletes})"

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_edges(cls, edges: Iterable[tuple[Vertex, Vertex]]) -> "UpdateStream":
        """Build an insertion-only stream from an iterable of edges."""
        return cls(EdgeUpdate.insert(u, v) for u, v in edges)

    @classmethod
    def build_then_teardown(cls, edges: Iterable[tuple[Vertex, Vertex]]) -> "UpdateStream":
        """Insert every edge, then delete them all in reverse order.

        A handy stress pattern: the final graph is empty, so any counter must
        report zero 4-cycles at the end.
        """
        edge_list = list(edges)
        inserts = [EdgeUpdate.insert(u, v) for u, v in edge_list]
        deletes = [EdgeUpdate.delete(u, v) for u, v in reversed(edge_list)]
        return cls(inserts + deletes)

    # -- derived views -----------------------------------------------------
    def append(self, update: EdgeUpdate) -> None:
        """Append a single update to the stream."""
        if not isinstance(update, EdgeUpdate):
            raise InvalidUpdateError(
                f"UpdateStream elements must be EdgeUpdate, got {type(update).__name__}"
            )
        self._updates.append(update)

    def extend(self, updates: Iterable[EdgeUpdate]) -> None:
        """Append several updates to the stream."""
        for update in updates:
            self.append(update)

    def prefix(self, length: int) -> "UpdateStream":
        """The first ``length`` updates as a new stream."""
        return UpdateStream(self._updates[:length])

    def batched(self, batch_size: int) -> Iterator["UpdateStream"]:
        """Split the stream into consecutive windows of ``batch_size`` updates.

        The last window may be shorter.  Each window is a plain (raw) stream;
        normalization against the live graph happens at apply time, inside the
        consumer's ``apply_batch``.
        """
        if batch_size <= 0:
            raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
        for start in range(0, len(self._updates), batch_size):
            yield UpdateStream(self._updates[start:start + batch_size])

    def insertions_only(self) -> "UpdateStream":
        """A stream containing only the insertion updates, in order."""
        return UpdateStream(update for update in self._updates if update.is_insert)

    def deletions_only(self) -> "UpdateStream":
        """A stream containing only the deletion updates, in order."""
        return UpdateStream(update for update in self._updates if update.is_delete)

    def num_insertions(self) -> int:
        return sum(1 for update in self._updates if update.is_insert)

    def num_deletions(self) -> int:
        return sum(1 for update in self._updates if update.is_delete)

    def vertices(self) -> set[Vertex]:
        """All vertices touched by any update in the stream."""
        seen: set[Vertex] = set()
        for update in self._updates:
            seen.add(update.u)
            seen.add(update.v)
        return seen

    def max_live_edges(self, initial_edges: Iterable[tuple[Vertex, Vertex]] = ()) -> int:
        """The maximum number of live edges at any point while replaying."""
        live = {_canonical_order(u, v) for u, v in initial_edges}
        peak = len(live)
        for update in self._updates:
            if update.is_insert:
                live.add(update.endpoints)
            else:
                live.discard(update.endpoints)
            peak = max(peak, len(live))
        return peak

    def final_edges(
        self, initial_edges: Iterable[tuple[Vertex, Vertex]] = ()
    ) -> set[tuple[Vertex, Vertex]]:
        """The live edge set after replaying the whole stream.

        Raises :class:`InvalidUpdateError` if the stream is inconsistent.
        """
        live = {_canonical_order(u, v) for u, v in initial_edges}
        for position, update in enumerate(self._updates):
            key = update.endpoints
            if update.is_insert:
                if key in live:
                    raise InvalidUpdateError(
                        f"update #{position} inserts edge {key} which is already present"
                    )
                live.add(key)
            else:
                if key not in live:
                    raise InvalidUpdateError(
                        f"update #{position} deletes edge {key} which is not present"
                    )
                live.remove(key)
        return live

    def validate(self, initial_edges: Iterable[tuple[Vertex, Vertex]] = ()) -> bool:
        """Return ``True`` if the stream replays consistently from
        ``initial_edges`` (every insertion is new, every deletion exists)."""
        try:
            self.final_edges(initial_edges)
        except InvalidUpdateError:
            return False
        return True


def _canonical_first(u: Vertex, v: Vertex) -> bool:
    """Whether ``u`` comes first in the canonical order of the pair.

    Comparable values (the common case: integer or string vertex ids) are
    ordered by value; mixed or non-comparable labels fall back to ``repr``.
    """
    try:
        return u <= v  # type: ignore[operator]
    except TypeError:
        return repr(u) <= repr(v)


def _canonical_order(u: Vertex, v: Vertex) -> tuple[Vertex, Vertex]:
    """Order an endpoint pair deterministically (see :func:`_canonical_first`)."""
    return (u, v) if _canonical_first(u, v) else (v, u)
