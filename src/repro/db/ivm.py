"""Incremental view maintenance (IVM) of the cyclic join count.

This is the database-facing API of the reproduction: a
:class:`CyclicJoinCountView` holds four binary relations forming the cyclic
join ``A ⋈ B ⋈ C ⋈ D`` and keeps the join *count* up to date under tuple
insertions and deletions — without ever materializing the join — by delegating
to a :class:`~repro.core.layered.LayeredFourCycleCounter` (Section 1: the join
size equals the number of layered 4-cycles, and the per-update delta is the
number of cycles through the updated tuple).

Batched updates.  :meth:`CyclicJoinCountView.apply_batch` consumes a window of
:class:`TupleUpdate` objects at once: the window is normalized
(:func:`normalize_tuple_updates` — insert/delete pairs on the same tuple
cancel, consistency is validated once per distinct tuple against the stored
relations) and the surviving net updates are applied grouped per relation,
deletions before insertions within each group.  Batch-boundary semantics match
the graph counters: the maintained count is **exact at every batch boundary**
(the net updates reach the same final database state, and each applied
update's delta is computed exactly at its application time — the Claim A.3
ordering is preserved within the batch), while intermediate counts inside a
window are not reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.layered import LayeredFourCycleCounter
from repro.core.oracles import ThreePathOracle
from repro.db.join import count_cyclic_join
from repro.db.relation import Relation
from repro.db.schema import RelationSchema, four_cycle_schemas, validate_cyclic_chain
from repro.exceptions import SchemaError
from repro.graph.updates import LayeredEdgeUpdate, simulate_window_presence

Value = Hashable


@dataclass(frozen=True)
class TupleUpdate:
    """One tuple insertion or deletion against a named relation."""

    relation: str
    left: Value
    right: Value
    is_insert: bool = True

    @classmethod
    def insert(cls, relation: str, left: Value, right: Value) -> "TupleUpdate":
        return cls(relation, left, right, True)

    @classmethod
    def delete(cls, relation: str, left: Value, right: Value) -> "TupleUpdate":
        return cls(relation, left, right, False)


@dataclass(frozen=True)
class TupleBatch:
    """A canonicalized window of tuple updates, grouped per relation.

    Produced by :func:`normalize_tuple_updates`.  ``relations`` lists the
    relation names in first-touch order; ``deletions`` / ``insertions`` map
    each of those names to its net updates.  Iteration yields one relation
    group at a time, deletions before insertions, which is always a valid
    ordering against the snapshot the window was normalized for.
    """

    relations: Tuple[str, ...]
    deletions: Mapping[str, Tuple[TupleUpdate, ...]]
    insertions: Mapping[str, Tuple[TupleUpdate, ...]]
    raw_size: int
    cancelled: int = 0

    def __len__(self) -> int:
        """Number of surviving net updates."""
        return sum(len(self.deletions[name]) + len(self.insertions[name]) for name in self.relations)

    def __iter__(self) -> Iterator[TupleUpdate]:
        for name, deletions, insertions in self.groups():
            yield from deletions
            yield from insertions

    def groups(self) -> Iterator[Tuple[str, Tuple[TupleUpdate, ...], Tuple[TupleUpdate, ...]]]:
        """Iterate ``(relation, deletions, insertions)`` per touched relation."""
        for name in self.relations:
            yield name, self.deletions[name], self.insertions[name]

    @property
    def is_empty(self) -> bool:
        return all(
            not self.deletions[name] and not self.insertions[name] for name in self.relations
        )


def normalize_tuple_updates(
    updates: Iterable[TupleUpdate],
    is_tuple_live: Optional[Callable[[str, Value, Value], bool]] = None,
) -> TupleBatch:
    """Canonicalize a window of tuple updates against the stored relations.

    ``is_tuple_live(relation, left, right)`` answers membership against the
    state the window will be applied to; each distinct tuple is probed at most
    once.  Insert/delete pairs on the same tuple cancel; the survivors are
    grouped per relation with deletions ordered before insertions.  An
    inconsistent window (insert of a present tuple, delete of an absent one)
    raises :class:`~repro.exceptions.InvalidUpdateError`.

    The simulate/cancel/validate pass is shared with the graph-side
    :func:`repro.graph.updates.normalize_batch` via
    :func:`repro.graph.updates.simulate_window_presence`, so the two batch
    contracts cannot drift apart.
    """
    last, net, raw_size = simulate_window_presence(
        (
            ((update.relation, update.left, update.right), update.is_insert, update)
            for update in updates
        ),
        is_tuple_live,
        "tuple",
    )
    relation_order = tuple(dict.fromkeys(relation for relation, _, _ in last))
    deletions: Dict[str, List[TupleUpdate]] = {name: [] for name in relation_order}
    insertions: Dict[str, List[TupleUpdate]] = {name: [] for name in relation_order}
    for (relation, left, right), inserting, _ in net:
        if inserting:
            insertions[relation].append(TupleUpdate.insert(relation, left, right))
        else:
            deletions[relation].append(TupleUpdate.delete(relation, left, right))
    return TupleBatch(
        relations=relation_order,
        deletions={name: tuple(values) for name, values in deletions.items()},
        insertions={name: tuple(values) for name, values in insertions.items()},
        raw_size=raw_size,
        cancelled=raw_size - len(net),
    )


class CyclicJoinCountView:
    """A continuously maintained ``COUNT(*)`` view over a cyclic 4-join."""

    def __init__(
        self,
        schemas: Optional[Sequence[RelationSchema]] = None,
        oracle_factory: Optional[Callable[[], ThreePathOracle]] = None,
    ) -> None:
        if schemas is None:
            schemas = four_cycle_schemas()
        if len(schemas) != 4:
            raise SchemaError(f"the cyclic 4-join view needs four relations, got {len(schemas)}")
        validate_cyclic_chain(list(schemas))
        self._schemas = list(schemas)
        self._relations: Dict[str, Relation] = {
            schema.name: Relation(schema) for schema in self._schemas
        }
        # The counter works on the canonical relation names A..D in chain order.
        self._canonical_names = ("A", "B", "C", "D")
        self._name_map = {
            schema.name: canonical
            for schema, canonical in zip(self._schemas, self._canonical_names)
        }
        self._counter = LayeredFourCycleCounter(oracle_factory=oracle_factory, mirror_graph=False)
        self._updates_processed = 0

    # -- public API --------------------------------------------------------------------
    @property
    def count(self) -> int:
        """The current size of the cyclic join."""
        return self._counter.count

    @property
    def updates_processed(self) -> int:
        return self._updates_processed

    def relation(self, name: str) -> Relation:
        """The named base relation (read-only use only)."""
        relation = self._relations.get(name)
        if relation is None:
            raise SchemaError(
                f"unknown relation {name!r}; expected one of {sorted(self._relations)}"
            )
        return relation

    def relation_names(self) -> List[str]:
        return [schema.name for schema in self._schemas]

    def insert(self, relation: str, left: Value, right: Value) -> int:
        """Insert a tuple and return the updated join count."""
        return self.apply(TupleUpdate.insert(relation, left, right))

    def delete(self, relation: str, left: Value, right: Value) -> int:
        """Delete a tuple and return the updated join count."""
        return self.apply(TupleUpdate.delete(relation, left, right))

    def apply(self, update: TupleUpdate) -> int:
        """Apply one tuple update and return the updated join count."""
        relation = self.relation(update.relation)
        canonical = self._name_map[update.relation]
        if update.is_insert:
            relation.insert(update.left, update.right)
            self._counter.insert(canonical, update.left, update.right)
        else:
            relation.delete(update.left, update.right)
            self._counter.delete(canonical, update.left, update.right)
        self._updates_processed += 1
        return self._counter.count

    def apply_all(self, updates: Iterable[TupleUpdate]) -> int:
        for update in updates:
            self.apply(update)
        return self._counter.count

    def apply_batch(self, updates: Union[TupleBatch, Iterable[TupleUpdate]]) -> int:
        """Apply a window of tuple updates as one batch; return the new count.

        Raw windows are normalized first (cancellation + one validation probe
        per distinct tuple); an already-normalized :class:`TupleBatch` is
        consumed as-is.  Net updates are applied grouped per relation —
        relation and name-map lookups happen once per group instead of once
        per update — and the layered counter processes the whole window
        through its own batch entry point.  The count is exact at the batch
        boundary.
        """
        if isinstance(updates, TupleBatch):
            batch = updates
        else:
            batch = normalize_tuple_updates(
                updates, lambda name, left, right: self.relation(name).contains(left, right)
            )
        layered: List[LayeredEdgeUpdate] = []
        for name, deletions, insertions in batch.groups():
            relation = self.relation(name)
            canonical = self._name_map[name]
            for update in deletions:
                relation.delete(update.left, update.right)
                layered.append(LayeredEdgeUpdate.delete(canonical, update.left, update.right))
            for update in insertions:
                relation.insert(update.left, update.right)
                layered.append(LayeredEdgeUpdate.insert(canonical, update.left, update.right))
        self._counter.apply_batch(layered)
        self._updates_processed += batch.raw_size
        return self._counter.count

    # -- validation -----------------------------------------------------------------------
    def recompute(self) -> int:
        """Recompute the join size from scratch (for validation / tests)."""
        ordered = [self._relations[schema.name] for schema in self._schemas]
        return count_cyclic_join(ordered)

    def is_consistent(self) -> bool:
        """Whether the maintained count matches a from-scratch recomputation."""
        return self.count == self.recompute()

    def __repr__(self) -> str:
        sizes = ", ".join(f"{name}={len(rel)}" for name, rel in self._relations.items())
        return f"CyclicJoinCountView(count={self.count}, {sizes})"
