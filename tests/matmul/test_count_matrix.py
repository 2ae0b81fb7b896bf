"""Unit tests for the sparse CountMatrix representation and its read-only
positional form, CountMatrixCSR."""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.matmul.engine import CountMatrix, CountMatrixCSR, CsrMatrix

PROPERTY_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Mixed label types in one small universe, so rows and columns collide.
LABEL_UNIVERSE = [0, 1, -1, 10, "a", "b", "10", (0, "x"), (1, "x"), ((0, 1), "y")]
LABELS = st.sampled_from(LABEL_UNIVERSE)
#: Small deltas, so bulk adds keep cancelling entries (and emptying rows).
DELTAS = st.integers(-2, 2)
#: A scan as the callers pass it: a list (duplicates allowed) or a set.
SCANS = st.lists(LABELS, max_size=6) | st.sets(LABELS, max_size=6)


def export_contents(matrix) -> tuple:
    """What ``csr()`` holds, independent of label order."""
    export = matrix.csr()
    entries = {}
    for position, row in enumerate(export.row_order):
        for entry in range(export.indptr[position], export.indptr[position + 1]):
            entries[(row, export.col_order[export.col_ids[entry]])] = int(export.data[entry])
    return set(export.row_order), set(export.col_order), entries


def observed(matrix) -> tuple:
    return (
        {label: dict(matrix.row(label)) for label in LABEL_UNIVERSE},
        matrix.nnz,
        matrix.column_labels(),
        matrix.num_row_labels,
        export_contents(matrix),
    )


class TestPointAccess:
    def test_default_zero(self):
        matrix = CountMatrix()
        assert matrix.get("a", "b") == 0
        assert matrix.nnz == 0
        assert not matrix

    def test_add_and_get(self):
        matrix = CountMatrix()
        matrix.add("a", "b", 2)
        matrix.add("a", "b", 3)
        assert matrix.get("a", "b") == 5
        assert matrix.nnz == 1

    def test_cancellation_removes_entry(self):
        matrix = CountMatrix()
        matrix.add(1, 2, 4)
        matrix.add(1, 2, -4)
        assert matrix.nnz == 0
        assert matrix.get(1, 2) == 0
        assert list(matrix.items()) == []

    def test_add_zero_is_noop(self):
        matrix = CountMatrix()
        matrix.add(1, 2, 0)
        assert matrix.nnz == 0

    def test_negative_values_allowed(self):
        matrix = CountMatrix()
        matrix.add("x", "y", -2)
        assert matrix.get("x", "y") == -2
        assert matrix.nnz == 1

    def test_constructor_from_entries(self):
        matrix = CountMatrix({(1, 2): 3, (2, 3): -1})
        assert matrix.get(1, 2) == 3
        assert matrix.get(2, 3) == -1


class TestBulkAccess:
    def test_rows_and_labels(self):
        matrix = CountMatrix({(1, "a"): 1, (1, "b"): 2, (2, "a"): 3})
        assert matrix.row_labels() == {1, 2}
        assert matrix.column_labels() == {"a", "b"}
        assert dict(matrix.row(1)) == {"a": 1, "b": 2}
        assert dict(matrix.row(99)) == {}

    def test_items_iteration(self):
        matrix = CountMatrix({(1, 2): 5})
        assert list(matrix.items()) == [(1, 2, 5)]

    def test_equality(self):
        assert CountMatrix({(1, 2): 3}) == CountMatrix({(1, 2): 3})
        assert CountMatrix({(1, 2): 3}) != CountMatrix({(1, 2): 4})


class TestLinearAlgebra:
    def test_add_matrix_with_scale(self):
        left = CountMatrix({(1, 2): 3})
        right = CountMatrix({(1, 2): 1, (2, 3): 2})
        left.add_matrix(right, scale=-1)
        assert left.get(1, 2) == 2
        assert left.get(2, 3) == -2

    def test_add_matrix_cancels(self):
        """The warm-up algorithm's negative-edge trick: a chunk containing the
        deletion of an edge inserted in an earlier chunk cancels exactly."""
        earlier = CountMatrix({("x", "y"): 1})
        later = CountMatrix({("x", "y"): -1})
        earlier.add_matrix(later)
        assert earlier.nnz == 0

    def test_from_dense(self):
        dense = np.array([[2, 0], [0, -1]])
        matrix = CountMatrix.from_dense(dense, ["r1", "r2"], ["c1", "c2"])
        assert matrix == CountMatrix({("r1", "c1"): 2, ("r2", "c2"): -1})

    def test_from_dense_numpy_ints(self):
        dense = np.array([[0, 1], [2, 0]])
        matrix = CountMatrix.from_dense(dense, ["a", "b"], ["x", "y"])
        assert matrix.get("a", "y") == 1
        assert matrix.get("b", "x") == 2
        assert matrix.nnz == 2


class TestBulkAdds:
    """``add_row`` and ``add_column`` against one ``add`` per entry."""

    @PROPERTY_SETTINGS
    @given(
        initial=st.lists(st.tuples(LABELS, LABELS, DELTAS), max_size=20),
        operations=st.lists(
            st.tuples(st.just("row"), LABELS, SCANS, DELTAS)
            | st.tuples(st.just("row"), LABELS, SCANS.map(list), st.lists(DELTAS, max_size=6))
            | st.tuples(st.just("column"), LABELS, SCANS, DELTAS),
            max_size=12,
        ),
    )
    def test_bulk_adds_match_pointwise_adds(self, initial, operations):
        bulk, pointwise = CountMatrix(), CountMatrix()
        for row, column, delta in initial:
            bulk.add(row, column, delta)
            pointwise.add(row, column, delta)
        for kind, label, scan, deltas in operations:
            if kind == "row":
                bulk.add_row(label, scan, deltas)
                per_column = [deltas] * len(scan) if isinstance(deltas, int) else deltas
                for column, delta in zip(scan, per_column):
                    pointwise.add(label, column, delta)
            else:
                bulk.add_column(scan, label, deltas)
                for row in scan:
                    pointwise.add(row, label, deltas)
            assert observed(bulk) == observed(pointwise)

    def test_add_column_counts_a_column_emptied_and_refilled(self):
        matrix = CountMatrix({("r", "c"): -1, ("r", "d"): 4})
        matrix.add_column(["r", "s", "r"], "c", 1)
        assert dict(matrix.row("r")) == {"d": 4, "c": 1}
        assert matrix.get("s", "c") == 1
        assert matrix.nnz == 3 and matrix.column_labels() == {"c", "d"}
        matrix.add_column({"r", "s"}, "c", -1)
        assert matrix.nnz == 1 and matrix.column_labels() == {"d"}
        version = matrix.version
        matrix.add_column([], "c", 1)
        matrix.add_column(["r"], "c", 0)
        assert matrix.version == version


#: Distinct labels for the rows and columns of a positional matrix.
DISTINCT_LABELS = st.lists(LABELS, unique=True, min_size=1, max_size=6)
#: Labels no drawn matrix uses.
ABSENT = ["absent", (9, "q")]


class TestPositionalMatrix:
    """``CountMatrixCSR.from_csr`` against ``CountMatrix.from_csr``."""

    @PROPERTY_SETTINGS
    @given(
        row_labels=DISTINCT_LABELS,
        column_labels=DISTINCT_LABELS,
        entries=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), DELTAS), max_size=20),
    )
    def test_matches_count_matrix_from_csr(self, row_labels, column_labels, entries):
        entries = [
            (i, j, value)
            for i, j, value in entries
            if i < len(row_labels) and j < len(column_labels)
        ]
        # Coordinates repeat and sum, some to zero; rows and columns stay empty.
        matrix = CsrMatrix.from_coo(
            np.array([i for i, _, _ in entries], dtype=np.int64),
            np.array([j for _, j, _ in entries], dtype=np.int64),
            np.array([value for _, _, value in entries], dtype=np.int64),
            len(row_labels),
            len(column_labels),
        )
        positional = CountMatrixCSR.from_csr(matrix, row_labels, column_labels)
        reference = CountMatrix.from_csr(matrix, row_labels, column_labels)
        for row in row_labels + ABSENT:
            for column in column_labels + ABSENT:
                assert positional.get(row, column) == reference.get(row, column)
            assert positional.row(row) == reference.row(row)
        assert positional.nnz == reference.nnz
        assert positional.num_row_labels == reference.num_row_labels
        assert positional.column_labels() == reference.column_labels()
        assert positional.csr() is positional
        expected = reference.csr()
        assert positional.row_order == expected.row_order
        assert positional.col_order == expected.col_order
        for name in ("indptr", "col_ids", "data"):
            assert getattr(positional, name).tolist() == getattr(expected, name).tolist()
        assert positional == reference

    def test_row_dicts_are_built_only_for_queried_rows(self):
        matrix = CsrMatrix.from_coo(
            np.array([0, 0, 2]), np.array([1, 2, 0]), np.array([5, -1, 3]), 3, 3
        )
        positional = CountMatrixCSR.from_csr(matrix, ["r", ("t", 1), 7], ["x", 8, ("y",)])
        assert positional._row_maps == {}
        assert positional.get("r", 8) == 5
        assert positional.get(7, "x") == 3
        assert positional.get(("t", 1), "x") == 0
        assert set(positional._row_maps) == {"r", 7, ("t", 1)}
        assert positional._row_maps[("t", 1)] == {}
        assert positional.row_order == ["r", 7]
        assert positional.row("r") is positional.row("r")
