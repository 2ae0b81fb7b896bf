"""E10 — batched update pipeline: updates/sec versus batch size.

Replays the standard dense churn workload through every registered counter at
batch sizes 1 (the per-update path), 8, 64 and 256, measuring end-to-end
wall-clock throughput of the ``apply_batch`` pipeline.  The acceptance claim:
the amortized fast paths of the brute-force and wedge counters (one recount /
one vectorized wedge rebuild per batch) are at least 3x faster than their
per-update paths at batch size >= 64, while every run stays exact (each final
count is verified against a from-scratch recount, and all batch sizes must
agree — the batch/unbatch equivalence contract).
"""

from __future__ import annotations

from repro.analysis import (
    experiment_e10_batch_throughput,
    text_table,
    write_bench_artifact,
)
from repro.api import available_counter_names

BATCH_SIZES = (1, 8, 64, 256)


def _best_speedups(rows):
    speedups = {(row.kernel, row.variant): row.speedup for row in rows}
    return {
        name: max(speedups[(name, f"batch={size}")] for size in BATCH_SIZES if size >= 64)
        for name in ("brute-force", "wedge")
    }


def test_e10_batch_throughput(benchmark, report_sink):
    rows = benchmark.pedantic(
        experiment_e10_batch_throughput,
        kwargs={"batch_sizes": BATCH_SIZES},
        rounds=1,
        iterations=1,
    )
    report_sink.append(("E10 batch-pipeline throughput", text_table(rows, float_digits=2)))
    write_bench_artifact("E10", {"batch_sizes": list(BATCH_SIZES)}, rows)
    # Every registered counter ran at every batch size, and stayed exact.
    assert {row.kernel for row in rows} == set(available_counter_names())
    assert all(row.consistent for row in rows)
    # The amortized fast paths pay off: >= 3x updates/sec at batch size >= 64.
    # This is the repo's one wall-clock assertion (the acceptance claim is a
    # throughput ratio, so operation counts cannot stand in for it); measured
    # margins are ~10-35x against the 3x floor, and a transient scheduler
    # stall gets one clean re-measurement before failing.
    # (Deliberately no timing floor for the deferred-check counters: their
    # win is modest and wall-clock ratios near 1x would flake on shared CI
    # runners.  Exactness is still asserted for them above.)
    best = _best_speedups(rows)
    if min(best.values()) < 3.0:
        best = _best_speedups(experiment_e10_batch_throughput(batch_sizes=BATCH_SIZES))
    for name, speedup in best.items():
        assert speedup >= 3.0, f"{name}: expected >= 3x at batch >= 64, got {speedup:.2f}x"
