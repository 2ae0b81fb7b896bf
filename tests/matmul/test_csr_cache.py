"""Tests for the CountMatrix interned CSR cache, the products that read
through it, and the dense export helpers."""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import dense_product, dict_product
from repro.kernels import exact_integer_matmul
from repro.matmul.engine import CountMatrix, multiply

FAST_SETTINGS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])

entries_strategy = st.dictionaries(
    keys=st.tuples(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6)),
    values=st.integers(min_value=-4, max_value=4).filter(lambda value: value != 0),
    max_size=25,
)


def dense_of(matrix: CountMatrix, rows, columns) -> np.ndarray:
    """``matrix`` as a dense array over the given label orders."""
    dense = np.zeros((len(rows), len(columns)), dtype=np.int64)
    for row, column, value in matrix.items():
        dense[rows.index(row), columns.index(column)] = value
    return dense


class TestMaintainedColumnLabels:
    def test_column_labels_track_adds_and_cancellations(self):
        matrix = CountMatrix()
        matrix.add("r1", "c1", 2)
        matrix.add("r2", "c1", 1)
        matrix.add("r1", "c2", 3)
        assert matrix.column_labels() == {"c1", "c2"}
        matrix.add("r1", "c2", -3)  # cancels the only c2 entry
        assert matrix.column_labels() == {"c1"}
        matrix.add("r2", "c1", -1)
        assert matrix.column_labels() == {"c1"}  # r1 still holds c1
        matrix.add("r1", "c1", -2)
        assert matrix.column_labels() == set()

    @given(entries=entries_strategy)
    @FAST_SETTINGS
    def test_maintained_labels_match_rescan(self, entries):
        matrix = CountMatrix(entries)
        rescanned = set()
        for _, column, _ in matrix.items():
            rescanned.add(column)
        assert matrix.column_labels() == rescanned
        assert matrix.num_row_labels == len(matrix.row_labels())

    def test_from_dense_preserves_column_counts(self):
        matrix = CountMatrix({("a", "x"): 1, ("b", "x"): 2, ("a", "y"): 3})
        dense = dense_of(matrix, ["a", "b"], ["x", "y"])
        rebuilt = CountMatrix.from_dense(dense, ["a", "b"], ["x", "y"])
        assert rebuilt == matrix
        assert rebuilt.column_labels() == {"x", "y"}
        rebuilt.add("a", "y", -3)
        assert rebuilt.column_labels() == {"x"}


class TestCsrCache:
    def test_cache_reused_between_reads(self):
        matrix = CountMatrix({("a", "x"): 1, ("b", "y"): 2})
        assert matrix.csr() is matrix.csr()

    def test_cache_invalidated_on_mutation(self):
        matrix = CountMatrix({("a", "x"): 1})
        before = matrix.csr()
        matrix.add("a", "y", 5)
        after = matrix.csr()
        assert after is not before
        assert after.version == matrix.version
        assert list(after.data) == [1, 5]

    def test_csr_round_trips_contents(self):
        matrix = CountMatrix({("a", "x"): 1, ("a", "y"): -2, ("b", "x"): 7})
        csr = matrix.csr()
        assert csr.row_order == ["a", "b"]
        assert set(csr.col_order) == {"x", "y"}
        for position, row in enumerate(csr.row_order):
            for cursor in range(int(csr.indptr[position]), int(csr.indptr[position + 1])):
                column = csr.col_order[int(csr.col_ids[cursor])]
                assert matrix.get(row, column) == int(csr.data[cursor])

    def test_zero_cancellation_invalidates(self):
        matrix = CountMatrix({("a", "x"): 1})
        matrix.csr()
        matrix.add("a", "x", -1)
        assert matrix.csr().data.size == 0


class TestProductsReadTheCache:
    @given(left=entries_strategy, right=entries_strategy)
    @FAST_SETTINGS
    def test_csr_and_dense_products_match_dict_reference(self, left, right):
        left_matrix = CountMatrix(left)
        right_matrix = CountMatrix(right)
        expected, work = dict_product(left_matrix, right_matrix)
        assert multiply(left_matrix, right_matrix) == (expected, work)
        assert dense_product(left_matrix, right_matrix)[0] == expected

    def test_repeated_products_reuse_operand_caches(self):
        matrices = [
            CountMatrix({(i, j): i + j + 1 for i in range(4) for j in range(4)})
            for _ in range(3)
        ]
        first, _ = multiply(multiply(matrices[0], matrices[1])[0], matrices[2])
        snapshots = [matrix.csr() for matrix in matrices]
        second, _ = multiply(multiply(matrices[0], matrices[1])[0], matrices[2])
        assert first == second
        # Operands were not mutated, so their cached CSR snapshots survived.
        assert [matrix.csr() for matrix in matrices] == snapshots
        assert all(matrix.csr() is snapshot for matrix, snapshot in zip(matrices, snapshots))

    def test_mutation_between_multiplies_is_visible(self):
        left = CountMatrix({("a", "m"): 1})
        right = CountMatrix({("m", "z"): 1})
        product, _ = multiply(left, right)
        assert product.get("a", "z") == 1
        left.add("a", "m", 2)  # invalidates the cached CSR
        product, _ = multiply(left, right)
        assert product.get("a", "z") == 3


class TestDenseProduct:
    def test_empty_operands(self):
        assert dense_product(CountMatrix(), CountMatrix()) == (CountMatrix(), 0)
        product, flops = dense_product(CountMatrix({("a", "m"): 1}), CountMatrix())
        assert product.nnz == 0 and flops == 0

    def test_counts_dense_multiply_adds(self):
        left = CountMatrix({("a", "m0"): 1, ("b", "m1"): 2, ("b", "gone"): 5})
        right = CountMatrix({("m0", "x"): 3, ("m1", "y"): 4, ("m2", "z"): 1})
        product, flops = dense_product(left, right)
        assert product == dict_product(left, right)[0]
        # 2 left rows x 3 right rows x 3 right columns; the left column with
        # no right row is dropped before the dense product.
        assert flops == 2 * 3 * 3


class TestExactIntegerMatmul:
    def test_matches_integer_product(self):
        rng = np.random.default_rng(0)
        left = rng.integers(-9, 9, size=(23, 17)).astype(np.int64)
        right = rng.integers(-9, 9, size=(17, 31)).astype(np.int64)
        assert np.array_equal(exact_integer_matmul(left, right), left @ right)

    def test_falls_back_above_float_exact_bound(self):
        huge = np.full((2, 2), 2**40, dtype=np.int64)
        product = exact_integer_matmul(huge, huge)
        assert np.array_equal(product, huge @ huge)

    def test_empty_operands(self):
        empty = np.zeros((0, 3), dtype=np.int64)
        other = np.zeros((3, 2), dtype=np.int64)
        assert exact_integer_matmul(empty, other).shape == (0, 2)


class TestVectorizedFromDense:
    @given(entries=entries_strategy)
    @FAST_SETTINGS
    def test_from_dense_round_trip(self, entries):
        matrix = CountMatrix(entries)
        rows = sorted(matrix.row_labels())
        columns = sorted(matrix.column_labels())
        dense = dense_of(matrix, rows, columns)
        rebuilt = CountMatrix.from_dense(dense, rows, columns)
        assert rebuilt == matrix
        assert rebuilt.nnz == matrix.nnz

    def test_from_dense_float_values_coerced(self):
        dense = np.array([[0.0, 2.0], [3.0, 0.0]])
        matrix = CountMatrix.from_dense(dense, ["a", "b"], ["x", "y"])
        assert matrix.get("a", "y") == 2
        assert isinstance(matrix.get("a", "y"), int)

    def test_from_dense_duplicate_labels_sum_like_add(self):
        dense = np.ones((2, 2), dtype=np.int64)
        matrix = CountMatrix.from_dense(dense, ["a", "a"], ["x", "y"])
        assert matrix.get("a", "x") == 2 and matrix.get("a", "y") == 2
        assert matrix.nnz == 2
        assert matrix.column_labels() == {"x", "y"}
        assert matrix.csr().data.size == 2  # bookkeeping consistent with rows
        by_columns = CountMatrix.from_dense(dense, ["a", "b"], ["x", "x"])
        assert by_columns.get("a", "x") == 2 and by_columns.nnz == 2
        product, _ = multiply(matrix, CountMatrix({("x", "z"): 1}))
        assert product.get("a", "z") == 2
