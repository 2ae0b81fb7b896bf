"""E11 — the batch paths versus the per-update paths.

Replays the standard dense churn workload through the wedge/HHH22/assadi-shah
counters two ways (one update at a time, and in batched windows, which
rebuild while they fill the graph and replay once it is complete).  The
acceptance claims:

* the wedge-counter batched path is at least **5x** updates/sec over its
  per-update path;
* both variants of every counter produce **bit-identical 4-cycle counts**,
  each verified against a from-scratch recount — the experiment itself
  raises on any mismatch.

Results are also written to ``BENCH_E11.json`` so the perf trajectory is
machine-readable across PRs.
"""

from __future__ import annotations

from repro.analysis import (
    experiment_e11_kernel_throughput,
    text_table,
    write_bench_artifact,
)

PARAMS = {"num_vertices": 32, "num_updates": 2560, "batch_size": 256}


def _batched_speedups(rows):
    return {
        row.kernel: row.speedup for row in rows if row.variant == "batched"
    }


def test_e11_kernel_throughput(benchmark, report_sink):
    rows = benchmark.pedantic(
        experiment_e11_kernel_throughput,
        kwargs=PARAMS,
        rounds=1,
        iterations=1,
    )
    report_sink.append(("E11 batch-hook throughput", text_table(rows, float_digits=2)))
    write_bench_artifact("E11", PARAMS, rows)
    # Exactness is non-negotiable (the experiment also raises on divergence).
    assert all(row.consistent for row in rows)
    # Wall-clock floor for the acceptance kernel; a transient scheduler stall
    # gets one clean re-measurement before failing, as in E10.
    best = _batched_speedups(rows)
    if best["wedge-updates"] < 5.0:
        best = _batched_speedups(experiment_e11_kernel_throughput(**PARAMS))
    assert best["wedge-updates"] >= 5.0, (
        f"wedge batch path: expected >= 5x over the per-update path, got "
        f"{best['wedge-updates']:.2f}x"
    )
