"""The one-pass window normalization against the two-pass reference.

``reference_normalize_batch`` and ``reference_normalize_tuple_updates`` are
the earlier algorithm, kept here as the reference: a first pass that
simulates per-key presence through three callbacks per update, then a
second pass that builds a fresh update object for every net update.  The
one-pass :func:`repro.graph.updates.normalize_batch` and
:func:`repro.db.ivm.normalize_tuple_updates` must give equal batches on
every valid window, and the same exception with the same message on every
invalid one.
"""

from __future__ import annotations

from typing import Callable, Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.db.ivm import TupleBatch, TupleUpdate, normalize_tuple_updates
from repro.exceptions import InvalidUpdateError
from repro.graph.updates import EdgeUpdate, UpdateBatch, UpdateKind, normalize_batch

PROPERTY_SETTINGS = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def reference_presence(updates, key_of, is_key_live, is_insert_of, what):
    initially: dict = {}
    present: dict = {}
    order: list = []
    raw_size = 0
    for position, update in enumerate(updates):
        raw_size += 1
        key = key_of(update)
        live = present.get(key)
        if live is None:
            live = bool(is_key_live(key))
            initially[key] = live
            order.append(key)
        if is_insert_of(update):
            if live:
                raise InvalidUpdateError(
                    f"batch update #{position} inserts {what} {key} which is already present"
                )
            present[key] = True
        else:
            if not live:
                raise InvalidUpdateError(
                    f"batch update #{position} deletes {what} {key} which is not present"
                )
            present[key] = False
    return initially, present, order, raw_size


def reference_normalize_batch(updates, is_edge_live: Optional[Callable] = None) -> UpdateBatch:
    def key_of(update):
        if not isinstance(update, EdgeUpdate):
            raise InvalidUpdateError(
                f"batch elements must be EdgeUpdate, got {type(update).__name__}"
            )
        return update.endpoints

    initially, present, order, raw_size = reference_presence(
        updates,
        key_of,
        (
            (lambda key: is_edge_live(key[0], key[1]))
            if is_edge_live is not None
            else lambda key: False
        ),
        lambda update: update.is_insert,
        "edge",
    )
    deletions, insertions, touched = [], [], set()
    for key in order:
        touched.update(key)
        before, after = initially[key], present[key]
        if before == after:
            continue
        if after:
            insertions.append(EdgeUpdate(key[0], key[1], UpdateKind.INSERT))
        else:
            deletions.append(EdgeUpdate(key[0], key[1], UpdateKind.DELETE))
    net = len(deletions) + len(insertions)
    return UpdateBatch(
        deletions=tuple(deletions),
        insertions=tuple(insertions),
        raw_size=raw_size,
        cancelled=raw_size - net,
        touched_vertices=frozenset(touched),
    )


def reference_normalize_tuple_updates(updates, is_tuple_live=None) -> TupleBatch:
    initially, present, order, raw_size = reference_presence(
        updates,
        lambda update: (update.relation, update.left, update.right),
        (lambda key: is_tuple_live(*key)) if is_tuple_live is not None else lambda key: False,
        lambda update: update.is_insert,
        "tuple",
    )
    relation_order: list = []
    for key in order:
        if key[0] not in relation_order:
            relation_order.append(key[0])
    deletions: dict = {name: [] for name in relation_order}
    insertions: dict = {name: [] for name in relation_order}
    net = 0
    for key in order:
        if initially[key] == present[key]:
            continue
        relation, left, right = key
        net += 1
        if present[key]:
            insertions[relation].append(TupleUpdate.insert(relation, left, right))
        else:
            deletions[relation].append(TupleUpdate.delete(relation, left, right))
    return TupleBatch(
        relations=tuple(relation_order),
        deletions={name: tuple(values) for name, values in deletions.items()},
        insertions={name: tuple(values) for name, values in insertions.items()},
        raw_size=raw_size,
        cancelled=raw_size - net,
    )


#: Mixed, partly incomparable labels: canonical order falls back to repr.
VERTICES = st.sampled_from([0, 1, 2, 3, "a", "b", (0, "x")])
#: A live-edge snapshot, as canonical pairs.
LIVE = st.sets(st.tuples(VERTICES, VERTICES).filter(lambda pair: pair[0] != pair[1]), max_size=6)


@st.composite
def windows(draw, valid: bool):
    """``(live, window)``: a snapshot and a window over few edges, so
    updates repeat and cancel.  A valid window only inserts absent edges
    and deletes present ones; an arbitrary one may do either."""
    live = {EdgeUpdate.insert(u, v).endpoints for u, v in draw(LIVE)}
    candidates = sorted(live | {EdgeUpdate.insert(u, v).endpoints for u, v in draw(LIVE)}, key=repr)
    if not candidates:
        candidates = [(0, 1)]
    present = set(live)
    window = []
    for _ in range(draw(st.integers(0, 12))):
        u, v = draw(st.sampled_from(candidates))
        if draw(st.booleans()):
            u, v = v, u  # the constructor canonicalizes
        key = EdgeUpdate.insert(u, v).endpoints
        inserting = key not in present if valid else draw(st.booleans())
        window.append(EdgeUpdate(u, v, UpdateKind.INSERT if inserting else UpdateKind.DELETE))
        if inserting:
            present.add(key)
        else:
            present.discard(key)
    return live, window


def outcome(normalize, window, probe):
    try:
        return normalize(window, probe)
    except InvalidUpdateError as error:
        return (type(error), str(error))


def probe_of(live: set):
    return (lambda u, v: (u, v) in live) if live else None


@given(case=windows(valid=True))
@PROPERTY_SETTINGS
def test_valid_windows_give_equal_batches(case):
    live, window = case
    probe = probe_of(live)
    batch = normalize_batch(window, probe)
    expected = reference_normalize_batch(window, probe)
    assert batch == expected
    assert list(batch) == list(expected)
    # The same vertex registration order, and the window's own net updates.
    assert list(batch.touched_vertices) == list(expected.touched_vertices)
    assert all(any(update is raw for raw in window) for update in batch)


@given(case=windows(valid=False))
@PROPERTY_SETTINGS
def test_any_window_gives_the_same_batch_or_the_same_error(case):
    live, window = case
    probe = probe_of(live)
    assert outcome(normalize_batch, window, probe) == outcome(
        reference_normalize_batch, window, probe
    )


@given(case=windows(valid=False), position=st.integers(0, 12), intruder=st.sampled_from(
    [(0, 1), "edge", None, 3]
))
@PROPERTY_SETTINGS
def test_non_edge_updates_are_refused_at_their_position(case, position, intruder):
    live, window = case
    window = list(window)
    window.insert(min(position, len(window)), intruder)
    probe = probe_of(live)
    result = outcome(normalize_batch, window, probe)
    assert result == outcome(reference_normalize_batch, window, probe)
    assert isinstance(result, tuple)


@given(case=windows(valid=True))
@PROPERTY_SETTINGS
def test_a_one_shot_generator_is_read_once(case):
    live, window = case
    probe = probe_of(live)
    assert normalize_batch((update for update in window), probe) == reference_normalize_batch(
        window, probe
    )


@pytest.mark.parametrize(
    "edges",
    [
        [(9, 42), (12, 60), (45, 55)],
        [(15, 37), (26, 42), (36, 56), (11, 49), (30, 40), (23, 37), (23, 24), (4, 33),
         (8, 60), (11, 16)],
    ],
)
def test_touched_vertices_iterate_in_the_reference_order(edges):
    """A replay registers a window's new vertices in the order its touched
    set iterates, so the interner ids depend on that order.  On these
    windows a set filled endpoint by endpoint iterates differently from a
    frozen copy of it."""
    window = [EdgeUpdate.insert(u, v) for u, v in edges]
    assert list(normalize_batch(window).touched_vertices) == list(
        reference_normalize_batch(window).touched_vertices
    )


def test_the_empty_window():
    assert normalize_batch([]) == reference_normalize_batch([]) == UpdateBatch((), (), 0)
    assert normalize_batch(iter(())).touched_vertices == frozenset()


RELATIONS = st.sampled_from(["A", "B"])
VALUES = st.integers(0, 2)


@given(
    live=st.sets(st.tuples(RELATIONS, VALUES, VALUES), max_size=5),
    window=st.lists(st.tuples(RELATIONS, VALUES, VALUES, st.booleans()), max_size=12),
)
@PROPERTY_SETTINGS
def test_tuple_windows_share_the_pass(live, window):
    updates = [TupleUpdate(*entry) for entry in window]
    probe = (lambda relation, left, right: (relation, left, right) in live) if live else None
    assert outcome(normalize_tuple_updates, updates, probe) == outcome(
        reference_normalize_tuple_updates, updates, probe
    )


@pytest.mark.parametrize("probe", [None, lambda u, v: (u, v) == (1, 2)])
def test_error_messages_name_the_position_and_the_edge(probe):
    window = [EdgeUpdate.insert(3, 4), EdgeUpdate.delete(2, 1), EdgeUpdate.insert(4, 3)]
    expected = outcome(reference_normalize_batch, window, probe)
    assert outcome(normalize_batch, window, probe) == expected
    assert expected[1].startswith("batch update #")
