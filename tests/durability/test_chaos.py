"""The chaos suite: every counter x every fault class recovers bit-identically.

Each case builds a reference (uninterrupted) count trajectory, runs a durable
engine under a deterministic fault schedule until the injected crash, recovers
from the log, and asserts two things:

* the recovered count equals the reference count at the durable prefix, and
* replaying the rest of the stream through the recovered engine reproduces
  the reference trajectory entry for entry.

The executor half injects worker kills and transient errors into the
shard-parallel SpGEMM path and asserts the product stays exact while the
executor retries or degrades — never raising to the caller.

Seeds come from ``REPRO_CHAOS_SEEDS`` (see ``conftest.py``); each case's fault
schedule, recovery report and recovery wall time (recorded, never gated) go
into the ``REPRO_CHAOS_REPORT`` artifact.
"""

from __future__ import annotations

import time

import pytest

from repro.api import EngineConfig, FourCycleEngine, available_counter_names
from repro.durability import recover
from repro.exceptions import InjectedCrashError
from repro.faults import (
    ACTION_CORRUPT_RECORD,
    ACTION_CRASH,
    ACTION_KILL_WORKER,
    ACTION_TORN_WRITE,
    ACTION_TRANSIENT_ERROR,
    SITE_EXECUTOR_TASK,
    SITE_SNAPSHOT_WRITE,
    SITE_WAL_APPEND,
    Fault,
    FaultInjector,
)
from tests.conftest import PinnedVehicleExecutor, random_dynamic_stream
from tests.durability.conftest import chaos_seeds

STREAM_LENGTH = 70

#: One deterministic schedule per fault class; the unpinned ``at`` indices
#: resolve from the injector's seed, so every seed crashes somewhere else.
FAULT_CLASSES = {
    "wal-crash": [Fault(SITE_WAL_APPEND, ACTION_CRASH, at=None, horizon=60)],
    "wal-crash-after-write": [
        Fault(SITE_WAL_APPEND, ACTION_CRASH, at=None, horizon=60, payload={"when": "after"})
    ],
    "wal-torn-write": [Fault(SITE_WAL_APPEND, ACTION_TORN_WRITE, at=None, horizon=60)],
    "wal-corrupt-record": [Fault(SITE_WAL_APPEND, ACTION_CORRUPT_RECORD, at=None, horizon=60)],
    "snapshot-torn-write": [Fault(SITE_SNAPSHOT_WRITE, ACTION_TORN_WRITE, at=None, horizon=2)],
}


@pytest.mark.parametrize("seed", chaos_seeds())
@pytest.mark.parametrize("fault_class", sorted(FAULT_CLASSES))
@pytest.mark.parametrize("counter", sorted(available_counter_names()))
def test_recovery_is_bit_identical(counter, fault_class, seed, tmp_path, chaos_report):
    updates = list(
        random_dynamic_stream(num_vertices=10, num_updates=STREAM_LENGTH, seed=seed)
    )
    reference = FourCycleEngine(counter)
    trajectory = [reference.apply(update) for update in updates]

    injector = FaultInjector(FAULT_CLASSES[fault_class], seed=seed)
    wal = tmp_path / "chaos.wal"
    config = EngineConfig(counter=counter, wal_path=str(wal), snapshot_every=20)
    engine = FourCycleEngine(config, fault_injector=injector)
    crashed = False
    try:
        for update in updates:
            engine.apply(update)
    except InjectedCrashError:
        crashed = True
    assert crashed, "the scheduled fault must fire within the stream"

    started = time.perf_counter()
    recovered, report = recover(wal)
    recovery_s = time.perf_counter() - started
    durable = report.last_seq + 1
    assert 0 <= durable <= len(updates)
    expected = trajectory[durable - 1] if durable else 0
    assert recovered.count == expected, (
        f"recovered count diverged at the durable prefix "
        f"({fault_class}, seed {seed})"
    )
    for index in range(durable, len(updates)):
        assert recovered.apply(updates[index]) == trajectory[index], (
            f"post-recovery trajectory diverged at update {index} "
            f"({fault_class}, seed {seed})"
        )
    assert recovered.count == trajectory[-1]
    assert recovered.is_consistent()
    recovered.close()

    chaos_report(
        {
            "counter": counter,
            "fault_class": fault_class,
            "seed": seed,
            "schedule": injector.describe(),
            "recovery": report.to_dict(),
            "recovery_s": recovery_s,
            "final_count": recovered.count,
        }
    )


@pytest.mark.parametrize("seed", chaos_seeds())
@pytest.mark.parametrize(
    "action", [ACTION_KILL_WORKER, ACTION_TRANSIENT_ERROR], ids=["kill-worker", "transient"]
)
def test_executor_completes_under_task_faults(action, seed, tmp_path, chaos_report):
    import numpy as np

    from repro.matmul.engine import CsrMatrix, csr_spgemm

    rng = np.random.default_rng(seed)
    mask = rng.random((32, 32)) < 0.3
    rows, cols = np.nonzero(mask)
    values = rng.integers(1, 5, size=len(rows), dtype=np.int64)
    left = CsrMatrix.from_coo(rows, cols, values, 32, 32)
    right = CsrMatrix.from_coo(cols, rows, values, 32, 32)
    serial = csr_spgemm(left, right)

    injector = FaultInjector(
        [Fault(SITE_EXECUTOR_TASK, action, at=None, horizon=4)], seed=seed
    )
    executor = PinnedVehicleExecutor(
        "process", workers=2, min_shard_work=1, injector=injector
    )
    try:
        product, work = executor.spgemm(left, right)
    finally:
        executor.close()
    assert injector.fired, "the scheduled task fault must fire"
    reference, reference_work = serial
    assert work == reference_work
    np.testing.assert_array_equal(product.indptr, reference.indptr)
    np.testing.assert_array_equal(product.cols, reference.cols)
    np.testing.assert_array_equal(product.data, reference.data)

    chaos_report(
        {
            "counter": None,
            "fault_class": f"executor-{action}",
            "seed": seed,
            "schedule": injector.describe(),
            "degradations": list(executor.degradations),
        }
    )
