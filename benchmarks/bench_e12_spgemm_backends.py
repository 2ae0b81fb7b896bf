"""E12 — CSR SpGEMM versus a dict-of-dicts baseline and dense BLAS.

Multiplies three instance families (clique-community adjacency at < 2%
density, uniform 1%-density integer matrices, and 30%-dense small matrices)
with the dict baseline (``dict_product``), the CSR SpGEMM product
(``repro.matmul.engine.multiply``), and one dense BLAS product
(``dense_product``), and replays a standing-graph churn stream through the
wedge counter with every window forced to the full rebuild, forced to the
update-by-update replay, and on the path its prices choose (``auto``).
The acceptance claims:

* on the sparse structured instance CSR SpGEMM is at least **3x** the dict
  baseline and at least **1.5x** dense BLAS (the full-size profile of
  ``repro-4cycles bench --experiments e12``, recorded in ``BENCH_E12.json``
  at n=6144 / 0.77% density, measures ~9-10x over dict and >20x over dense);
* the wedge counter's chosen path (``auto``) is at least **1.3x** the full
  rebuild on the churn stream (its small windows replay; forced replay
  measured about 4.7x the full rebuild on this profile);
* every product variant and every batch path produces **bit-identical
  results** — the experiment raises on any divergence, and ``consistent`` is
  true on every row (this, not timing, is what CI gates on).

This wrapper runs a medium-size profile (so tier-1 stays fast) and records it
as ``BENCH_E12_MEDIUM.json`` — a different artifact name than the CLI's
full-profile ``BENCH_E12.json``, so the two writers never clobber each other.
"""

from __future__ import annotations

from repro.analysis import (
    experiment_e12_spgemm_backends,
    text_table,
    write_bench_artifact,
)

PARAMS = {
    "community_count": 64,
    "community_size": 32,
    "uniform_dimension": 256,
    "dense_dimension": 96,
    "wedge_vertices": 1024,
    "wedge_base_edges": 6144,
    "wedge_churn_updates": 1024,
    "wedge_batch_size": 128,
}


def _speedups(rows):
    communities = {
        row.variant: row
        for row in rows
        if row.kernel.startswith("product:communities")
    }
    wedge = {row.variant: row for row in rows if row.kernel == "wedge-batch-hook"}
    return {
        "csr_vs_dict": communities["csr"].speedup,
        "csr_vs_dense": communities["dense"].seconds / communities["csr"].seconds,
        "auto": wedge["auto"].speedup,
    }


def test_e12_spgemm_backends(benchmark, report_sink):
    rows = benchmark.pedantic(
        experiment_e12_spgemm_backends,
        kwargs=PARAMS,
        rounds=1,
        iterations=1,
    )
    report_sink.append(("E12 sparse-vs-dense products", text_table(rows, float_digits=2)))
    write_bench_artifact("E12_MEDIUM", PARAMS, rows)
    # Exactness is non-negotiable (the experiment also raises on divergence).
    assert all(row.consistent for row in rows)
    # Wall-clock floors for the acceptance kernels; measured margins are well
    # above them (~6.5x, ~5.5x, ~4.7x), and a transient scheduler stall gets
    # one clean re-measurement before failing, as in E10/E11.
    best = _speedups(rows)
    if (
        best["csr_vs_dict"] < 3.0
        or best["csr_vs_dense"] < 1.5
        or best["auto"] < 1.3
    ):
        best = _speedups(experiment_e12_spgemm_backends(**PARAMS))
    assert best["csr_vs_dict"] >= 3.0, (
        f"CSR SpGEMM: expected >= 3x over the dict baseline on the sparse "
        f"structured instance, got {best['csr_vs_dict']:.2f}x"
    )
    assert best["csr_vs_dense"] >= 1.5, (
        f"CSR SpGEMM: expected >= 1.5x over dense BLAS on the sparse "
        f"structured instance, got {best['csr_vs_dense']:.2f}x"
    )
    assert best["auto"] >= 1.3, (
        f"wedge chosen batch path: expected >= 1.3x over the full rebuild, "
        f"got {best['auto']:.2f}x"
    )
