"""Fault-tolerant shard execution: retries, the degradation ladder, cleanup.

The contract: dispatch failures (killed workers, broken pools, timeouts,
transient task errors) never change the product — the executor retries on a
fresh pool, then degrades process -> thread -> serial, and only an error that
survives inline serial execution propagates.  ``close()`` is idempotent and
leaks no worker processes even after a pool broke mid-task.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import EVENT_EXECUTOR_DEGRADED, EngineConfig, FourCycleEngine
from repro.exceptions import ConfigurationError, InjectedTransientError
from repro.faults import (
    ACTION_KILL_WORKER,
    ACTION_STALL,
    ACTION_TRANSIENT_ERROR,
    SITE_EXECUTOR_TASK,
    Fault,
    FaultInjector,
)
from repro.matmul.engine import CsrMatrix, csr_spgemm
from repro.matmul.sharding import ShardExecutor

from tests.conftest import PinnedVehicleExecutor


def operands(seed: int = 0, size: int = 32):
    rng = np.random.default_rng(seed)
    mask = rng.random((size, size)) < 0.3
    rows, cols = np.nonzero(mask)
    values = rng.integers(1, 5, size=len(rows), dtype=np.int64)
    left = CsrMatrix.from_coo(rows, cols, values, size, size)
    right = CsrMatrix.from_coo(cols, rows, values, size, size)
    return left, right


def assert_exact(actual, expected):
    product, work = actual
    reference, reference_work = expected
    assert work == reference_work
    np.testing.assert_array_equal(product.indptr, reference.indptr)
    np.testing.assert_array_equal(product.cols, reference.cols)
    np.testing.assert_array_equal(product.data, reference.data)


class TestRetries:
    def test_killed_worker_is_retried_without_raising(self):
        left, right = operands()
        injector = FaultInjector([Fault(SITE_EXECUTOR_TASK, ACTION_KILL_WORKER, at=0)])
        with PinnedVehicleExecutor(
            "process", workers=2, min_shard_work=1, injector=injector
        ) as executor:
            assert_exact(executor.spgemm(left, right), csr_spgemm(left, right))
            assert injector.fired
            # One retry on a fresh pool sufficed; no degradation was needed.
            assert executor.degradations == []

    def test_transient_task_error_is_retried(self):
        left, right = operands(1)
        injector = FaultInjector([Fault(SITE_EXECUTOR_TASK, ACTION_TRANSIENT_ERROR, at=0)])
        with PinnedVehicleExecutor(
            "thread", workers=2, min_shard_work=1, injector=injector
        ) as executor:
            assert_exact(executor.spgemm(left, right), csr_spgemm(left, right))
            assert executor.degradations == []

    def test_stalled_task_hits_the_timeout_then_retries(self):
        left, right = operands(2)
        injector = FaultInjector(
            [Fault(SITE_EXECUTOR_TASK, ACTION_STALL, at=0, payload={"seconds": 5.0})]
        )
        with PinnedVehicleExecutor(
            "thread",
            workers=2,
            min_shard_work=1,
            task_timeout=0.05,
            backoff_base=0.001,
            injector=injector,
        ) as executor:
            assert_exact(executor.spgemm(left, right), csr_spgemm(left, right))

    def test_backoff_is_seeded(self):
        first = ShardExecutor(workers=2, retry_seed=7)
        second = ShardExecutor(workers=2, retry_seed=7)
        assert [first._retry_rng.random() for _ in range(4)] == [
            second._retry_rng.random() for _ in range(4)
        ]
        first.close()
        second.close()


class TestDegradationLadder:
    def test_persistent_failure_walks_the_full_ladder(self):
        left, right = operands(3)
        # More charges than any dispatch sequence can consume: every vehicle
        # keeps failing, so the ladder must walk process -> thread -> serial
        # and the error finally propagates from the serial floor.
        injector = FaultInjector(
            [Fault(SITE_EXECUTOR_TASK, ACTION_KILL_WORKER, at=0, times=1000)]
        )
        observed = []
        executor = PinnedVehicleExecutor(
            "process",
            workers=2,
            min_shard_work=1,
            max_retries=0,
            injector=injector,
            on_degrade=lambda src, dst, reason: observed.append((src, dst)),
        )
        try:
            with pytest.raises(InjectedTransientError):
                executor.spgemm(left, right)
        finally:
            executor.close()
        assert observed == [("process", "thread"), ("thread", "serial")]
        assert [
            (entry["from"], entry["to"]) for entry in executor.degradations
        ] == observed

    def test_degraded_run_still_returns_the_exact_product(self):
        left, right = operands(4)
        # Enough charges to break the first process dispatch outright
        # (max_retries=0) but few enough that the thread vehicle drains them
        # and completes: one degradation, exact result.
        injector = FaultInjector(
            [Fault(SITE_EXECUTOR_TASK, ACTION_KILL_WORKER, at=0, times=1)]
        )
        with PinnedVehicleExecutor(
            "process",
            workers=2,
            min_shard_work=1,
            max_retries=0,
            injector=injector,
        ) as executor:
            assert_exact(executor.spgemm(left, right), csr_spgemm(left, right))
            assert [(entry["from"], entry["to"]) for entry in executor.degradations] == [
                ("process", "thread")
            ]

    def test_engine_emits_executor_degraded_events(self):
        engine = FourCycleEngine(EngineConfig(counter="assadi-shah", workers=2))
        executor = engine.counter.shard_executor
        assert executor is not None
        events = []
        engine.subscribe(events.append, kinds=[EVENT_EXECUTOR_DEGRADED])
        executor.on_degrade("process", "thread", "BrokenProcessPool: worker died")
        assert len(events) == 1
        assert events[0].kind == EVENT_EXECUTOR_DEGRADED
        assert events[0].payload["from_policy"] == "process"
        assert events[0].payload["to_policy"] == "thread"
        engine.close()


class TestCleanup:
    def test_close_is_idempotent_and_safe_after_breakage(self):
        left, right = operands(5)
        injector = FaultInjector([Fault(SITE_EXECUTOR_TASK, ACTION_KILL_WORKER, at=0)])
        executor = PinnedVehicleExecutor(
            "process", workers=2, min_shard_work=1, injector=injector
        )
        executor.spgemm(left, right)  # breaks one pool, retries on a fresh one
        executor.close()
        executor.close()
        assert executor._process_pool is None
        assert executor._thread_pool is None

    def test_no_worker_processes_leak(self):
        left, right = operands(6)
        executor = PinnedVehicleExecutor("process", workers=2, min_shard_work=1)
        executor.spgemm(left, right)
        pool = executor._process_pool
        assert pool is not None
        workers = list(pool._processes.values())
        assert workers
        executor.close()
        for process in workers:
            process.join(timeout=10)
            assert not process.is_alive()

    def test_timed_out_pool_is_tracked_and_drained_by_close(self):
        left, right = operands(7)
        injector = FaultInjector(
            [Fault(SITE_EXECUTOR_TASK, ACTION_STALL, at=0, payload={"seconds": 0.3})]
        )
        executor = PinnedVehicleExecutor(
            "thread",
            workers=2,
            min_shard_work=1,
            task_timeout=0.05,
            backoff_base=0.001,
            injector=injector,
        )
        executor.spgemm(left, right)  # first dispatch times out, pool abandoned
        assert executor._abandoned_pools
        abandoned = list(executor._abandoned_pools)
        executor.close()
        assert executor._abandoned_pools == []
        # The timeout could not cancel the stalled in-flight task, but once it
        # drains the abandoned pool's threads exit: nothing leaks past close().
        for pool in abandoned:
            for thread in pool._threads:
                thread.join(timeout=10)
                assert not thread.is_alive()

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="max_retries"):
            ShardExecutor(max_retries=-1)
        with pytest.raises(ConfigurationError, match="task_timeout"):
            ShardExecutor(task_timeout=0)
