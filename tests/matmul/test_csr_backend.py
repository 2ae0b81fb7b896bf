"""Tests for the CSR SpGEMM kernel, the label-keyed product, and the dispatcher.

The load-bearing property: :func:`multiply` (and :func:`csr_spgemm` under
it, at any row-block size) computes the *same product* as the dict-of-dicts
reference :func:`dict_product` on any pair of integer matrices, and reports
the same expansion work — the CSR path is a pure acceleration, never an
approximation.  Hypothesis drives the equivalence over random matrices
including empty operands, single-row shapes, negative/cancelling values, and
high-collision middles (many entries sharing one middle label); unit tests
pin the kernel mechanics (row blocking, merge-strategy selection, COO
coalescing), the middle-axis alignment, and the density-aware dispatcher.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import dict_product
from repro.exceptions import DimensionMismatchError
from repro.kernels import CsrMatrix, csr_linear_combination
from repro.matmul.engine import (
    CountMatrix,
    aligned_left_operand,
    csr_spgemm,
    multiply,
    right_operand,
    spgemm_work,
)
from repro.matmul.scheduler import ProductDispatcher

PROPERTY_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def entries_strategy(row_prefix: str, column_prefix: str, max_dim: int = 7, rows: int = 0):
    """Random (row, column) -> value maps over small label universes;
    ``rows`` caps the row universe (``0``: ``max_dim``)."""
    coordinate = st.tuples(
        st.integers(0, (rows or max_dim) - 1), st.integers(0, max_dim - 1)
    )
    return st.dictionaries(
        coordinate, st.integers(-4, 4).filter(bool), max_size=30
    ).map(
        lambda entries: CountMatrix(
            {
                (f"{row_prefix}{i}", f"{column_prefix}{j}"): value
                for (i, j), value in entries.items()
            }
        )
    )


def blocked_multiply(left: CountMatrix, right: CountMatrix, block_entries: int):
    """:func:`multiply` with an explicit SpGEMM row-block budget."""
    left_csr, right_csr = left.csr(), right.csr()
    product, work = csr_spgemm(
        aligned_left_operand(left_csr, right_csr),
        right_operand(right_csr),
        block_entries=block_entries,
    )
    return CountMatrix.from_csr(product, left_csr.row_order, right_csr.col_order), work


@PROPERTY_SETTINGS
@given(
    left=st.one_of(entries_strategy("r", "m"), entries_strategy("r", "m", rows=1)),
    right=st.one_of(entries_strategy("m", "c"), entries_strategy("m", "c", rows=1)),
)
def test_multiply_matches_dict_reference(left, right):
    expected, expected_work = dict_product(left, right)
    result, work = multiply(left, right)
    assert result == expected
    assert result.nnz == expected.nnz
    # The expansion work is the same count the dict loop pays.
    assert work == expected_work


@PROPERTY_SETTINGS
@given(
    left=entries_strategy("r", "m"),
    right=entries_strategy("m", "c"),
    block_entries=st.sampled_from([1, 3, 17, 1 << 22]),
)
def test_row_blocking_never_changes_the_product(left, right, block_entries):
    expected, expected_work = dict_product(left, right)
    blocked, work = blocked_multiply(left, right, block_entries)
    assert blocked == expected
    assert work == expected_work


@PROPERTY_SETTINGS
@given(
    entries=entries_strategy("m", "c", max_dim=5),
    block_entries=st.sampled_from([1, 3, 17, 1 << 22]),
)
def test_high_collision_middles(entries, block_entries):
    """Every left entry funnels through one middle label: maximal collisions."""
    left = CountMatrix({(f"r{i}", "m0"): i + 1 for i in range(6)})
    right = CountMatrix()
    for _, column, value in entries.items():
        right.add("m0", column, value)
    expected, expected_work = dict_product(left, right)
    assert multiply(left, right) == (expected, expected_work)
    assert blocked_multiply(left, right, block_entries) == (expected, expected_work)


@PROPERTY_SETTINGS
@given(
    left=entries_strategy("r", "m"),
    right=entries_strategy("m", "c"),
    block_entries=st.sampled_from([1, 3, 17, 1 << 22]),
)
def test_cancelling_middles(left, right, block_entries):
    """Every middle gets a twin whose right row is negated, so every product
    entry cancels inside the kernel's merge, at every block size."""
    _, work = dict_product(left, right)
    for row, middle, value in list(left.items()):
        left.add(row, ("twin", middle), value)
    for middle, column, value in list(right.items()):
        right.add(("twin", middle), column, -value)
    product, twin_work = blocked_multiply(left, right, block_entries)
    assert product.nnz == 0 and not product.row_labels()
    assert twin_work == 2 * work


class TestMultiplyEdgeCases:
    def test_empty_operands(self):
        empty = CountMatrix()
        assert multiply(empty, empty) == (CountMatrix(), 0)
        assert multiply(empty, CountMatrix({(1, 2): 1}))[0].nnz == 0
        assert multiply(CountMatrix({(1, 2): 1}), empty)[0].nnz == 0

    def test_single_row_and_column(self):
        left = CountMatrix({("r", "m"): 3})
        right = CountMatrix({("m", "c"): -2})
        result, work = multiply(left, right)
        assert result.get("r", "c") == -6
        assert work == 1

    def test_disjoint_middles_produce_nothing(self):
        left = CountMatrix({("r", "m1"): 1})
        right = CountMatrix({("m2", "c"): 1})
        assert multiply(left, right) == (CountMatrix(), 0)

    def test_cancellation_drops_entries(self):
        left = CountMatrix({("r", "a"): 1, ("r", "b"): 1})
        right = CountMatrix({("a", "c"): 5, ("b", "c"): -5})
        result, work = multiply(left, right)
        assert result.nnz == 0 and not result.row_labels()
        assert work == 2

    def test_large_values_stay_exact(self):
        # Above the float64-exact window (2^53) but inside int64 — the
        # bincount merge must step aside for the exact sort-reduce path.
        big = 1 << 29
        left = CountMatrix({("r", f"m{k}"): big for k in range(8)})
        right = CountMatrix({(f"m{k}", "c"): big for k in range(8)})
        result, _ = multiply(left, right)
        assert result.get("r", "c") == 8 * big * big  # 2^61, not float64-exact

    def test_reads_label_keyed_snapshots(self):
        left = CountMatrix({("a", "m"): 2})
        right = CountMatrix({("m", "b"): 3})
        assert multiply(left.csr(), right.csr()) == multiply(left, right)


class TestMiddleAlignment:
    def test_aligned_middle_orders_skip_remap(self):
        """Chained products share the middle label order; the identity
        alignment must give the reference product."""
        left = CountMatrix()
        right = CountMatrix()
        for k in range(6):
            left.add("r", f"m{k}", k + 1)
            right.add(f"m{k}", "c", 2 * k + 1)
        assert left.csr().col_order == right.csr().row_order
        operand = aligned_left_operand(left.csr(), right.csr())
        assert operand.cols.tolist() == left.csr().col_ids.tolist()
        assert multiply(left, right) == dict_product(left, right)

    def test_misaligned_orders_are_remapped(self):
        left = CountMatrix({("r", "m1"): 2, ("r", "m0"): 3})
        right = CountMatrix({("m0", "c"): 5, ("m1", "c"): 7, ("mX", "c"): 11})
        assert left.csr().col_order != right.csr().row_order
        result, work = multiply(left, right)
        assert (result, work) == dict_product(left, right)
        assert result.get("r", "c") == 2 * 7 + 3 * 5

    def test_left_columns_without_a_right_row_are_dropped(self):
        left = CountMatrix({("r1", "m0"): 2, ("r1", "gone"): 9, ("r2", "gone"): 4})
        right = CountMatrix({("m0", "c"): 5, ("m1", "c"): 1})
        operand = aligned_left_operand(left.csr(), right.csr())
        # r2's only entry has no right row: the row survives, empty.
        assert operand.nnz == 1 and operand.num_rows == 2
        assert operand.row_lengths().tolist() == [1, 0]
        result, work = multiply(left, right)
        assert (result, work) == dict_product(left, right)
        assert result.row_labels() == {"r1"} and work == 1


class TestCsrMatrix:
    def _random_pair(self, seed):
        rng = np.random.default_rng(seed)
        dense = rng.integers(-3, 4, size=(11, 9))
        dense[rng.random((11, 9)) < 0.5] = 0
        rows, cols = np.nonzero(dense)
        return dense, CsrMatrix.from_coo(rows, cols, dense[rows, cols], 11, 9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_coo_round_trip_and_helpers(self, seed):
        dense, matrix = self._random_pair(seed)
        assert (matrix.to_dense() == dense).all()
        assert (matrix.transpose().to_dense() == dense.T).all()
        assert (matrix.row_sums() == dense.sum(axis=1)).all()
        column_mask = np.arange(9) % 2 == 0
        assert (matrix.filter_columns(column_mask).to_dense() == dense * column_mask).all()
        row_mask = np.arange(11) < 5
        assert (matrix.filter_rows(row_mask).to_dense() == dense * row_mask[:, None]).all()
        scale = np.arange(11, dtype=np.int64) % 3
        assert (matrix.scale_rows(scale).to_dense() == dense * scale[:, None]).all()

    def test_from_coo_coalesces_and_cancels(self):
        rows = np.array([0, 0, 1, 1])
        cols = np.array([2, 2, 0, 0])
        data = np.array([3, 4, 5, -5])
        matrix = CsrMatrix.from_coo(rows, cols, data, 2, 3)
        assert matrix.nnz == 1
        assert matrix.to_dense()[0, 2] == 7

    def test_without_diagonal(self):
        dense = np.array([[1, 2], [3, 4]])
        rows, cols = np.nonzero(dense)
        matrix = CsrMatrix.from_coo(rows, cols, dense[rows, cols], 2, 2)
        trimmed = matrix.without_diagonal().to_dense()
        assert trimmed.tolist() == [[0, 2], [3, 0]]

    def test_linear_combination(self):
        dense_a, a = self._random_pair(3)
        dense_b, b = self._random_pair(4)
        combined = csr_linear_combination([(2, a), (-1, b)], 11, 9)
        assert (combined.to_dense() == 2 * dense_a - dense_b).all()
        with pytest.raises(DimensionMismatchError):
            csr_linear_combination([(1, a)], 5, 5)

    def test_spgemm_matches_dense_and_reports_work(self):
        dense_a, a = self._random_pair(5)
        dense_b = np.arange(9 * 6).reshape(9, 6) % 4 - 1
        rows, cols = np.nonzero(dense_b)
        b = CsrMatrix.from_coo(rows, cols, dense_b[rows, cols], 9, 6)
        for block in (1, 4, 1 << 22):
            product, work = csr_spgemm(a, b, block_entries=block)
            assert (product.to_dense() == dense_a @ dense_b).all()
            assert work == spgemm_work(a, b)
        with pytest.raises(DimensionMismatchError):
            csr_spgemm(a, a)


class TestDispatcher:
    def test_auto_prefers_csr_on_sparse_and_dense_on_dense(self):
        dispatcher = ProductDispatcher()
        n = 4096
        sparse_work = 10 * n  # a few entries per row
        assert dispatcher.decide_square(n, sparse_work).backend == "csr"
        dense_work = n * n * 64  # dense-ish operands
        assert dispatcher.decide_square(256, 256 * 256 * 64).backend == "dense"
        assert dispatcher.decide_square(n, dense_work).costs["dense"] > 0

    def test_memory_cap_forces_csr(self):
        dispatcher = ProductDispatcher(dense_cells_limit=1 << 10)
        # Tiny work but a huge dense footprint: the cap must win.
        assert dispatcher.decide_square(10 ** 6, 100).backend == "csr"


class TestAddRow:
    def test_add_row_matches_pointwise_adds(self):
        bulk = CountMatrix({("a", "x"): 1})
        pointwise = CountMatrix({("a", "x"): 1})
        columns = ["x", "y", "z", "y"]
        deltas = [-1, 2, 3, 4]
        bulk.add_row("a", columns, deltas)
        for column, delta in zip(columns, deltas):
            pointwise.add("a", column, delta)
        assert bulk == pointwise
        assert bulk.nnz == pointwise.nnz
        assert bulk.column_labels() == pointwise.column_labels()

    def test_add_row_scalar_delta_and_row_cleanup(self):
        matrix = CountMatrix()
        matrix.add_row("a", ["x", "y"], 2)
        assert matrix.get("a", "x") == 2 and matrix.get("a", "y") == 2
        matrix.add_row("a", ["x", "y"], -2)
        assert matrix.nnz == 0
        assert not matrix.row_labels()

    def test_add_row_noops(self):
        matrix = CountMatrix({("a", "x"): 1})
        version = matrix.version
        matrix.add_row("a", [], [1])
        matrix.add_row("a", ["x"], 0)
        assert matrix.version == version
        assert matrix.get("a", "x") == 1
