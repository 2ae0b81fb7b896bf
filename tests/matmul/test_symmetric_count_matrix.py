"""SymmetricCountMatrix against a plain dict-of-dicts model.

The store keeps the symmetric wedge and path tables of the general-graph
counters.  Every write is replayed on a model that stores each entry as its
own dict item and drops zeros; after every write the store must hold the
model's rows exactly, with the same ``nnz``, and stay symmetric under the
writes the counters make (stars, mirrored point pairs, diagonal points and
squares).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.matmul.engine import CountMatrix, CsrMatrix, SymmetricCountMatrix

PROPERTY_SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Mixed label types in one small universe, so stars overlap and rows empty.
LABEL_UNIVERSE = [0, 1, -1, 10, "a", "b", "10", (0, "x"), (1, "x")]
LABELS = st.sampled_from(LABEL_UNIVERSE)
#: Small deltas, negative ones included, so entries keep cancelling to zero.
DELTAS = st.integers(-2, 2)
#: A star's other ends as the callers pass them: a set, or a list of
#: distinct labels (a materialized scan).
ENDS = st.sets(LABELS, max_size=6) | st.lists(LABELS, max_size=6, unique=True)

#: The writes that keep a table symmetric, as the counters make them.
SYMMETRIC_WRITES = st.one_of(
    st.tuples(st.just("star"), LABELS, ENDS, DELTAS),
    st.tuples(st.just("pair"), LABELS, LABELS, DELTAS),
    st.tuples(st.just("diagonal"), LABELS, DELTAS),
    st.tuples(st.just("square"), st.sets(LABELS, max_size=5), DELTAS),
)


def model_add(model: dict, row, column, delta: int) -> None:
    row_map = model.setdefault(row, {})
    value = row_map.get(column, 0) + delta
    if value:
        row_map[column] = value
    else:
        row_map.pop(column, None)
    if not row_map:
        del model[row]


def replay(matrix: SymmetricCountMatrix, model: dict, write: tuple) -> None:
    kind = write[0]
    if kind == "star":
        _, center, ends, delta = write
        matrix.add_star(center, ends, delta)
        for x in ends:
            model_add(model, center, x, delta)
            model_add(model, x, center, delta)
    elif kind == "pair":
        _, row, column, delta = write
        matrix.add(row, column, delta)
        model_add(model, row, column, delta)
        if row != column:
            matrix.add(column, row, delta)
            model_add(model, column, row, delta)
    elif kind == "diagonal":
        _, label, delta = write
        matrix.add(label, label, delta)
        model_add(model, label, label, delta)
    else:
        _, members, delta = write
        matrix.add_square(members, delta)
        for a in members:
            for b in members:
                model_add(model, a, b, delta)


def assert_holds(matrix, model: dict) -> None:
    assert {label: dict(matrix.row(label)) for label in matrix.row_labels()} == model
    assert matrix.nnz == sum(len(row) for row in model.values())
    assert matrix.num_row_labels == len(model)
    assert bool(matrix) == bool(model)
    assert sorted(matrix.items(), key=repr) == sorted(
        (
            (row, column, value)
            for row, entries in model.items()
            for column, value in entries.items()
        ),
        key=repr,
    )
    for row in LABEL_UNIVERSE:
        assert dict(matrix.row(row)) == model.get(row, {})
        for column in LABEL_UNIVERSE:
            assert matrix.get(row, column) == model.get(row, {}).get(column, 0)


@given(writes=st.lists(SYMMETRIC_WRITES, max_size=40))
@PROPERTY_SETTINGS
def test_symmetric_writes_match_the_model(writes):
    matrix = SymmetricCountMatrix()
    model: dict = {}
    for write in writes:
        replay(matrix, model, write)
        assert_holds(matrix, model)
        for row, entries in model.items():
            for column, value in entries.items():
                assert model[column][row] == value


@given(
    writes=st.lists(st.tuples(LABELS, LABELS, DELTAS), max_size=40),
)
@PROPERTY_SETTINGS
def test_a_point_write_changes_one_entry(writes):
    """``add`` keeps its single-entry meaning: an asymmetric sequence of
    point writes lands entry by entry, as on the model."""
    matrix = SymmetricCountMatrix()
    model: dict = {}
    for row, column, delta in writes:
        matrix.add(row, column, delta)
        model_add(model, row, column, delta)
        assert_holds(matrix, model)


@given(
    center=LABELS,
    ends=st.lists(LABELS, max_size=6, unique=True),
    before=st.lists(SYMMETRIC_WRITES, max_size=10),
    delta=DELTAS,
)
@PROPERTY_SETTINGS
def test_a_star_through_its_center_adds_twice_on_the_diagonal(center, ends, before, delta):
    """The center among the other ends is both orientations of one entry,
    whatever the center's row held before (it may empty mid-pass)."""
    matrix = SymmetricCountMatrix()
    model: dict = {}
    for write in before:
        replay(matrix, model, write)
    matrix.add_star(center, ends + [center], delta)
    for x in ends:
        model_add(model, center, x, delta)
        model_add(model, x, center, delta)
    model_add(model, center, center, 2 * delta)
    assert_holds(matrix, model)


def test_a_star_cancelling_to_zero_removes_the_rows():
    matrix = SymmetricCountMatrix()
    matrix.add_star("c", {"a", "b"}, 1)
    matrix.add_star("a", ["b"], -2)
    assert matrix.nnz == 6
    matrix.add_star("c", ["a", "b"], -1)
    matrix.add_star("a", {"b"}, 2)
    assert matrix.nnz == 0
    assert matrix.row_labels() == set()
    assert not matrix


def test_empty_and_zero_writes_are_no_ops():
    matrix = SymmetricCountMatrix()
    matrix.add_star("c", (), 1)
    matrix.add_star("c", ["a"], 0)
    matrix.add("a", "b", 0)
    matrix.add_square([], 3)
    assert matrix.nnz == 0
    assert matrix.row_labels() == set()


def _symmetric_dense(seed: int, size: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.integers(-2, 3, size=(size, size)) * (rng.random((size, size)) < 0.4))
    return upper + np.triu(upper, 1).T


@pytest.mark.parametrize("seed", range(4))
def test_from_csr_and_from_dense_hold_the_entries(seed):
    dense = _symmetric_dense(seed, 7)
    labels = ["a", 1, (0, "x"), "b", 2, -1, "c"]
    model: dict = {}
    for i, j in zip(*np.nonzero(dense)):
        model_add(model, labels[i], labels[j], int(dense[i, j]))
    from_csr = SymmetricCountMatrix.from_csr(CsrMatrix.from_dense(dense), labels)
    from_dense = SymmetricCountMatrix.from_dense(dense, labels)
    assert_holds(from_csr, model)
    assert_holds(from_dense, model)
    assert from_csr == from_dense
    # The same entries as the general store, which keeps column counts.
    general = CountMatrix.from_dense(dense, labels)
    assert dict(general._rows) == dict(from_dense._rows)
    assert general.nnz == from_dense.nnz


def test_repeated_labels_sum():
    dense = _symmetric_dense(5, 4)
    labels = ["a", "b", "a", "c"]
    model: dict = {}
    for i, j in zip(*np.nonzero(dense)):
        model_add(model, labels[i], labels[j], int(dense[i, j]))
    assert_holds(SymmetricCountMatrix.from_dense(dense, labels), model)
    assert SymmetricCountMatrix.from_dense(np.zeros((3, 3), dtype=np.int64), [0, 1, 2]).nnz == 0


def test_equality_is_by_entries_within_the_type():
    built = SymmetricCountMatrix()
    built.add_star(0, [1, 2], 1)
    points = SymmetricCountMatrix()
    for x in (2, 1):
        points.add(x, 0, 1)
        points.add(0, x, 1)
    assert built == points
    general = CountMatrix({(0, 1): 1, (0, 2): 1, (1, 0): 1, (2, 0): 1})
    assert built != general
    assert repr(built) == "SymmetricCountMatrix(nnz=4)"
