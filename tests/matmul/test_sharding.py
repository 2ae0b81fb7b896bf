"""The shard-parallel SpGEMM layer: plans, views, merges, and executors.

The contract under test is bit-identity: for any operands, any shard count,
and any execution vehicle, :meth:`ShardExecutor.spgemm` returns exactly the
CSR arrays (and work count) of the serial :func:`csr_spgemm` kernel.  The
plan/extract/merge pieces are also pinned individually on the edge cases the
row partitioning can hit — empty shards, single-row shards, and a heavy row
whose expansion dwarfs the even share.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.matmul.engine import CsrMatrix, csr_spgemm
from repro.matmul.sharding import (
    ShardExecutor,
    ShardPlan,
    available_cores,
    extract_shard_view,
    merge_shard_results,
    run_shard_task,
)

from tests.conftest import PinnedVehicleExecutor

FAST_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def coo(rows, cols, data, num_rows, num_cols) -> CsrMatrix:
    return CsrMatrix.from_coo(
        np.asarray(rows, dtype=np.int64),
        np.asarray(cols, dtype=np.int64),
        np.asarray(data, dtype=np.int64),
        num_rows,
        num_cols,
    )


def random_csr(seed: int, rows: int = 12, cols: int = 12, density: float = 0.25) -> CsrMatrix:
    rng = np.random.default_rng(seed)
    mask = rng.random((rows, cols)) < density
    r, c = np.nonzero(mask)
    values = rng.integers(-5, 6, size=len(r), dtype=np.int64)
    return CsrMatrix.from_coo(r, c, values, rows, cols)


def assert_identical(actual, expected):
    product, work = actual
    reference, reference_work = expected
    assert work == reference_work
    np.testing.assert_array_equal(product.indptr, reference.indptr)
    np.testing.assert_array_equal(product.cols, reference.cols)
    np.testing.assert_array_equal(product.data, reference.data)


class TestShardPlan:
    def test_empty_matrix_has_no_shards(self):
        empty = CsrMatrix.from_coo([], [], [], 0, 0)
        plan = ShardPlan.balanced(empty, empty, 4)
        assert plan.num_shards == 0
        assert list(plan.ranges()) == []

    def test_all_zero_rows_collapse_to_one_shard(self):
        matrix = CsrMatrix.from_coo([], [], [], 6, 6)
        plan = ShardPlan.balanced(matrix, matrix, 4)
        assert plan.num_shards == 1
        assert list(plan.ranges()) == [(0, 6)]

    def test_single_row_matrix(self):
        matrix = coo([0, 0], [0, 1], [1, 1], 1, 2)
        square = coo([0, 1], [1, 0], [1, 1], 2, 2)
        plan = ShardPlan.balanced(matrix, square, 4)
        assert plan.num_shards == 1
        assert list(plan.ranges()) == [(0, 1)]

    def test_rows_are_never_split(self):
        left = random_csr(1, rows=20, cols=10)
        right = random_csr(2, rows=10, cols=10)
        plan = ShardPlan.balanced(left, right, 6)
        bounds = plan.bounds
        assert bounds[0] == 0 and bounds[-1] == left.num_rows
        assert np.all(np.diff(bounds) >= 1)

    def test_heavy_row_gets_isolated_and_neighbours_rebalance(self):
        # Row 5 references the one dense right row; its expansion is ~25x any
        # other row's, so the work quantiles all land around it.
        rows = list(range(10)) + [5] * 4
        cols = [0] * 10 + [1, 2, 3, 4]
        left = coo(rows, cols, np.ones(14, dtype=np.int64), 10, 10)
        heavy = coo(
            [1] * 50 + [0, 2, 3, 4],
            list(range(10)) * 5 + [0, 0, 0, 0],
            np.ones(54, dtype=np.int64),
            10,
            10,
        )
        plan = ShardPlan.balanced(left, heavy, 4)
        ranges = list(plan.ranges())
        assert any(lo <= 5 < hi for lo, hi in ranges)
        assert_identical(
            ShardExecutor(workers=2, min_shard_work=1).spgemm(left, heavy),
            csr_spgemm(left, heavy),
        )

    def test_invalid_shard_count_rejected(self):
        matrix = random_csr(3)
        with pytest.raises(ConfigurationError):
            ShardPlan.balanced(matrix, matrix, 0)


class TestExtractAndMerge:
    def test_empty_shard_round_trips(self):
        # Rows 2:5 of the left operand hold no entries; the shard must still
        # produce its (all-empty) rows so the merge covers every global row.
        left = coo([0, 1, 5], [0, 1, 2], [1, 2, 3], 6, 6)
        right = random_csr(4, rows=6, cols=6, density=0.5)
        view = extract_shard_view(left, right, 2, 5)
        result = run_shard_task(view)
        assert result.num_rows == 3
        assert result.row_lengths.sum() == 0

    def test_single_row_shard_matches_serial_row(self):
        left = random_csr(5, rows=8, cols=8)
        right = random_csr(6, rows=8, cols=8)
        reference, _ = csr_spgemm(left, right)
        for row in range(8):
            view = extract_shard_view(left, right, row, row + 1)
            result = run_shard_task(view)
            begin, end = reference.indptr[row], reference.indptr[row + 1]
            np.testing.assert_array_equal(result.cols, reference.cols[begin:end])
            np.testing.assert_array_equal(result.data, reference.data[begin:end])

    def test_manual_plan_extract_merge_equals_serial(self):
        left = random_csr(7, rows=16, cols=12, density=0.3)
        right = random_csr(8, rows=12, cols=14, density=0.3)
        plan = ShardPlan.balanced(left, right, 5)
        results = [
            run_shard_task(extract_shard_view(left, right, lo, hi))
            for lo, hi in plan.ranges()
        ]
        assert_identical(
            merge_shard_results(results, left.num_rows, right.num_cols),
            csr_spgemm(left, right),
        )

    def test_column_compression_is_tight(self):
        # The view's right operand holds exactly the referenced rows, and its
        # column footprint only the columns those rows populate.
        left = coo([0, 0], [1, 3], [1, 1], 2, 5)
        right = coo([0, 1, 2, 3, 4], [0, 4, 1, 2, 3], [9, 9, 9, 9, 9], 5, 5)
        view = extract_shard_view(left, right, 0, 1)
        assert len(view.right_indptr) - 1 == 2          # rows 1 and 3 only
        np.testing.assert_array_equal(view.local_cols, [2, 4])


class TestShardExecutor:
    def test_workers_one_is_a_pass_through(self):
        left, right = random_csr(9), random_csr(10)
        with ShardExecutor(workers=1) as executor:
            assert_identical(executor.spgemm(left, right), csr_spgemm(left, right))

    def test_empty_operands_short_circuit(self):
        empty = CsrMatrix.from_coo([], [], [], 4, 4)
        with ShardExecutor(workers=4, min_shard_work=1) as executor:
            product, work = executor.spgemm(empty, random_csr(11, rows=4, cols=4))
            assert work == 0 and product.nnz == 0

    @pytest.mark.parametrize("policy", ["serial", "thread", "process"])
    def test_forced_policies_are_bit_identical(self, policy):
        left = random_csr(12, rows=24, cols=24, density=0.3)
        right = random_csr(13, rows=24, cols=24, density=0.3)
        with PinnedVehicleExecutor(policy, workers=2, min_shard_work=1) as executor:
            assert_identical(executor.spgemm(left, right), csr_spgemm(left, right))

    def test_auto_policy_on_one_worker_is_serial(self):
        executor = ShardExecutor(workers=1)
        assert executor.resolve_policy(total_work=1 << 30, num_shards=8) == "serial"

    def test_auto_policy_splits_on_per_shard_cost(self):
        executor = ShardExecutor(workers=4)
        if executor.effective_parallelism() == 1:
            assert executor.resolve_policy(1 << 30, 8) == "serial"
        else:
            assert executor.resolve_policy(1 << 10, 8) == "thread"
            assert executor.resolve_policy(1 << 40, 8) == "process"

    def test_target_shards_collapses_small_products(self):
        executor = ShardExecutor(workers=4)
        assert executor.target_shards(total_work=100, num_rows=1000) == 1
        assert executor.target_shards(total_work=1 << 30, num_rows=3) == 3
        assert (
            executor.target_shards(total_work=1 << 30, num_rows=1000)
            == 4 * executor.overshard
        )

    def test_configuration_errors(self):
        with pytest.raises(ConfigurationError):
            ShardExecutor(workers=0)
        with pytest.raises(ConfigurationError):
            ShardExecutor(workers=2, overshard=0)

    def test_available_cores_is_positive(self):
        assert available_cores() >= 1


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    workers=st.sampled_from([2, 3, 4]),
    overshard=st.integers(min_value=1, max_value=6),
)
@FAST_SETTINGS
def test_sharded_product_is_bit_identical_on_random_matrices(seed, workers, overshard):
    rng = np.random.default_rng(seed)
    rows, mids, cols = rng.integers(1, 24, size=3)
    left = random_csr(seed, rows=int(rows), cols=int(mids), density=0.3)
    right = random_csr(seed + 1, rows=int(mids), cols=int(cols), density=0.3)
    with PinnedVehicleExecutor(
        "serial", workers=workers, overshard=overshard, min_shard_work=1
    ) as executor:
        assert_identical(executor.spgemm(left, right), csr_spgemm(left, right))

