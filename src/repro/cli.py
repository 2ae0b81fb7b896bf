"""Command-line interface for quick experiments.

Installed as ``repro-4cycles``.  Subcommands:

* ``constants`` — print the Theorem 1/2 parameter tables (experiments E1/E2)
  and the Appendix B constraint verification (E3).
* ``counters`` — print the registry's capability table: one row per registered
  :class:`~repro.api.CounterSpec` (update-time class, batch-hook support,
  oracle use, accepted options).
* ``compare`` — replay a synthetic workload through several counters and print
  the comparison table (a small version of experiments E4/E5).  With
  ``--batch-size N`` the replay goes through the batched update pipeline
  (``apply_batch`` windows of ``N`` updates) instead of update-at-a-time.
* ``omega-sweep`` — print the update-time exponent as a function of omega (E8).
* ``lint`` — run repro-lint, the repository's AST-based invariant analyzer
  (exactness, layering, hot-path, shard-safety, exception-hygiene rules; see
  :mod:`repro.lint`).  Exit 0 means no non-baselined findings.
* ``batch-throughput`` — measure updates/sec of the batch pipeline as a
  function of batch size for the selected counters (experiment E10), one
  ``ThroughputRow`` per counter and batch size.
* ``recover`` — rebuild an engine from a write-ahead log and its snapshot
  generations (:func:`repro.durability.recover`), print the recovery report,
  and verify the recovered count against a from-scratch recount.  With
  ``--compact`` the recovered engine snapshots and compacts the log before
  exiting.  Recovery sizes its replay windows from the graph (at least
  ``n + m`` updates each), so there is no window option.
* ``bench`` — run the performance experiments (E10 batch throughput, E11
  batch-hook throughput, E12 sparse-vs-dense products, E14 shard
  scaling, E15 service load) in one invocation, print their tables, and
  write the machine-readable ``BENCH_E*.json`` artifacts.  E10–E14 share one
  row schema (``kernel``, ``variant``, ``parameters``, ``operations``,
  ``seconds``, ``per_second``, ``speedup`` over the kernel's first variant,
  ``consistent``).  ``--quick`` shrinks the workloads for CI smoke runs;
  exactness (identical counts between per-update and batched paths,
  identical products across variants) is always enforced — a mismatch
  exits non-zero — while timing is reported, never gated.

Every subcommand that runs counters goes through the :mod:`repro.api` facade:
workloads are :class:`~repro.api.GeneratorSource` instances and counters are
constructed from :class:`~repro.api.EngineConfig`.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import List, Optional, Sequence

from repro.api import GeneratorSource, available_counter_names, available_specs
from repro.instrumentation.harness import compare_counters, summary_table
from repro.lint.cli import add_lint_arguments, run_lint
from repro.theory.exponents import comparison_table, omega_sweep
from repro.theory.parameters import published_parameters, verify_published_parameters

#: Workloads whose generators share the uniform (num_vertices, num_updates,
#: seed) signature; the catalogue's other entries need workload-specific
#: parameters the CLI does not expose.
_CLI_WORKLOADS = ("erdos-renyi", "hubs", "power-law")


# ---------------------------------------------------------------------------
# Shared argument utilities (used by every subcommand that takes them)
# ---------------------------------------------------------------------------
def _positive_int(value: str) -> int:
    try:
        parsed = int(value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}") from error
    if parsed <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {parsed}")
    return parsed


def _nonnegative_int(value: str) -> int:
    try:
        parsed = int(value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}") from error
    if parsed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {parsed}")
    return parsed


def _batch_size_list(value: str) -> List[int]:
    return [_positive_int(size) for size in value.split(",")]


def _split_counters(value: str) -> Optional[List[str]]:
    """Parse a comma-separated counter list; empty selects every counter."""
    names = [name.strip() for name in value.split(",") if name.strip()]
    return names or None


def _add_workload_arguments(
    parser: argparse.ArgumentParser, default_vertices: int, default_updates: int
) -> None:
    """The stream-shape arguments shared by the replay subcommands."""
    parser.add_argument("--vertices", type=_positive_int, default=default_vertices)
    parser.add_argument("--updates", type=_positive_int, default=default_updates)
    parser.add_argument("--seed", type=_nonnegative_int, default=0)


def _add_counters_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--counters",
        type=_split_counters,
        default=None,
        help="comma-separated counter names (default: all registered counters)",
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------
def _command_constants(_: argparse.Namespace) -> int:
    for which in ("current", "best"):
        published = published_parameters(which)
        print(f"[{which} omega = {published.omega}]")
        print(f"  eps    = {published.main.eps:.7f}")
        print(f"  delta  = {published.main.delta:.7f}")
        print(f"  update-time exponent = {published.main.update_time_exponent:.6f}")
        print(f"  warm-up eps1 = {published.warmup.eps1:.8f}, eps2 = {published.warmup.eps2:.8f}")
        report = verify_published_parameters(which)
        status = "satisfied" if report.all_satisfied else "VIOLATED"
        print(f"  Appendix B constraints: {status}")
        for evaluation in report.main_evaluations + report.warmup_evaluations:
            print(
                f"    {evaluation.name}: lhs={evaluation.lhs:.6f} <= rhs={evaluation.rhs:.6f} "
                f"({'ok' if evaluation.satisfied else 'violated'})"
            )
    print()
    print("Headline exponent comparison:")
    for row in comparison_table():
        print(f"  {row.algorithm:<40} m^{row.exponent:.6f}   {row.note}")
    return 0


def _command_counters(_: argparse.Namespace) -> int:
    from repro.analysis import text_table

    rows = []
    for spec in available_specs():
        rows.append(
            {
                "counter": spec.name,
                "update_time": spec.asymptotic,
                "batch_hook": spec.supports_batch_hook,
                "oracle": spec.needs_oracle,
                "options": ",".join(spec.option_names()) or "(unvalidated)",
                "description": spec.description,
            }
        )
    print(text_table(rows))
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    from repro.analysis import text_table

    source = GeneratorSource(
        args.workload,
        num_vertices=args.vertices,
        num_updates=args.updates,
        seed=args.seed,
    )
    names = args.counters if args.counters else available_counter_names()
    results = compare_counters(names, source.to_stream(), batch_size=args.batch_size)
    print(
        f"workload={args.workload} vertices={args.vertices} updates={args.updates} "
        f"batch-size={args.batch_size}"
    )
    print(text_table(summary_table(results)))
    return 0


def _command_batch_throughput(args: argparse.Namespace) -> int:
    from repro.analysis import experiment_e10_batch_throughput, text_table

    rows = experiment_e10_batch_throughput(
        num_vertices=args.vertices,
        num_updates=args.updates,
        batch_sizes=args.batch_sizes,
        counters=args.counters,
        seed=args.seed,
    )
    print(text_table(rows, float_digits=2))
    return 0


#: ``bench --quick`` overrides of each experiment's defaults: it shrinks
#: every workload for CI.  The full profile is the defaults themselves.
_QUICK_BENCH_PROFILE = {
    "e10": {"num_vertices": 16, "num_updates": 384, "batch_sizes": (1, 64)},
    "e11": {"num_vertices": 20, "num_updates": 768, "batch_size": 64},
    "e12": {
        "community_count": 24,
        "community_size": 16,
        "uniform_dimension": 128,
        "dense_dimension": 64,
        "wedge_vertices": 384,
        "wedge_base_edges": 2048,
        "wedge_churn_updates": 512,
        "wedge_batch_size": 64,
    },
    "e14": {
        "community_count": 48,
        "community_size": 24,
        "workers": (1, 2),
        "churn_edges": 64,
        "repeats": 1,
        "seed": 0,
    },
    "e15": {
        "clients": 128,
        "batches_per_client": 1,
        "batch_size": 4,
        "block": 8,
        "readers": 16,
        "reader_polls": 2,
        "counter": "wedge",
    },
}


def _command_bench(args: argparse.Namespace) -> int:
    from repro.analysis import (
        experiment_e10_batch_throughput,
        experiment_e11_kernel_throughput,
        experiment_e12_spgemm_backends,
        experiment_e14_shard_scaling,
        experiment_e15_service_load,
        text_table,
        write_bench_artifact,
    )

    profile = _QUICK_BENCH_PROFILE if args.quick else {}
    chosen = [name.strip().lower() for name in args.experiments.split(",") if name.strip()]
    runners = {
        "e10": ("E10", "batch-pipeline throughput", experiment_e10_batch_throughput),
        "e11": ("E11", "batch-hook throughput", experiment_e11_kernel_throughput),
        "e12": ("E12", "sparse-vs-dense products", experiment_e12_spgemm_backends),
        "e14": ("E14", "shard-parallel scaling", experiment_e14_shard_scaling),
        "e15": ("E15", "always-on service load", experiment_e15_service_load),
    }
    for name in chosen:
        if name not in runners:
            print(f"unknown experiment {name!r}; expected a subset of: e10,e11,e12,e14,e15")
            return 2
    for name in chosen:
        artifact_name, title, runner = runners[name]
        params = {
            key: parameter.default
            for key, parameter in inspect.signature(runner).parameters.items()
        }
        params.update(profile.get(name, {}))
        if name == "e14":
            # --workers caps the sweep; the serial baseline always runs so
            # every row's speedup and bit-identity check stay anchored.
            params["workers"] = tuple(
                count for count in params["workers"] if count <= args.workers
            ) or (1,)
        # Exactness between per-update and batched paths is asserted inside
        # the experiments; a mismatch raises and exits non-zero.
        rows = runner(**params)
        path = write_bench_artifact(artifact_name, params, rows, directory=args.output_dir)
        print(f"=== {artifact_name} {title} ===")
        print(text_table(rows, float_digits=2))
        print(f"wrote {path}")
        print()
    return 0


def _command_recover(args: argparse.Namespace) -> int:
    from repro.durability import recover
    from repro.exceptions import ReproError

    try:
        engine, report = recover(args.wal, config=args.counter, attach=args.compact)
    except ReproError as error:
        print(f"recovery failed: {error}", file=sys.stderr)
        return 1
    # The recovered engine owns live resources (with --compact, the reopened
    # WAL fd); a raising consistency check or compaction must still release
    # them, so close() sits in a finally covering every exit path.
    try:
        consistent = engine.is_consistent()
        compacted = engine.compact_wal() if args.compact else None
    except ReproError as error:
        print(f"recovery failed: {error}", file=sys.stderr)
        return 1
    finally:
        engine.close()
    print(f"wal             {report.wal_path}")
    print(f"counter         {report.counter}")
    print(f"snapshot        {report.snapshot_path or '(none; full-log replay)'}")
    print(f"snapshot seq    {report.snapshot_seq}")
    print(f"replayed        {report.replayed_records} record(s)")
    print(f"torn tail       {'dropped' if report.torn_tail_dropped else 'no'}")
    print(f"rejected tail   {'dropped' if report.rejected_tail_dropped else 'no'}")
    print(f"last seq        {report.last_seq}")
    print(f"count           {report.count}")
    print(f"consistent      {'yes' if consistent else 'NO'}")
    if compacted is not None:
        print(f"compacted       log now holds {compacted} record(s)")
    return 0 if consistent else 1


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import ReproService

    service = ReproService(host=args.host, port=args.port)

    async def _serve() -> None:
        host, port = await service.start()
        print(f"repro-4cycles service listening on http://{host}:{port}")
        print(
            "routes: /health  /engines  /engines/<name>/"
            "{updates,counts,vertices,consistency,compact,events}"
        )
        await service.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("service stopped")
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    return run_lint(args)


def _command_omega_sweep(args: argparse.Namespace) -> int:
    from repro.analysis import text_table

    omegas = [2.0 + args.step * index for index in range(int((3.0 - 2.0) / args.step) + 1)]
    print(text_table(omega_sweep(omegas), float_digits=6))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-4cycles",
        description="Fully dynamic 4-cycle counting (Assadi & Shah, PODS 2025) — reproduction CLI",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    constants = subparsers.add_parser("constants", help="print the Theorem 1/2 parameter tables")
    constants.set_defaults(handler=_command_constants)

    counters = subparsers.add_parser(
        "counters", help="print the registered counters and their capabilities"
    )
    counters.set_defaults(handler=_command_counters)

    compare = subparsers.add_parser("compare", help="compare counters on a synthetic workload")
    compare.add_argument("--workload", choices=_CLI_WORKLOADS, default="erdos-renyi")
    _add_workload_arguments(compare, default_vertices=40, default_updates=300)
    _add_counters_argument(compare)
    compare.add_argument(
        "--batch-size",
        type=_positive_int,
        default=1,
        help="feed the stream through apply_batch in windows of this size (default: 1)",
    )
    compare.set_defaults(handler=_command_compare)

    lint = subparsers.add_parser(
        "lint", help="run repro-lint, the repository invariant analyzer"
    )
    add_lint_arguments(lint)
    lint.set_defaults(handler=_command_lint)

    recover = subparsers.add_parser(
        "recover",
        help="rebuild an engine from a write-ahead log and print the recovery report",
    )
    recover.add_argument("wal", help="path to the write-ahead log")
    recover.add_argument(
        "--counter",
        default=None,
        help=(
            "override the recorded counter (default: the config stored in the "
            "newest valid snapshot, or the WAL metadata sidecar)"
        ),
    )
    recover.add_argument(
        "--compact",
        action="store_true",
        help="after recovery, snapshot and compact the log in place",
    )
    recover.set_defaults(handler=_command_recover)

    serve = subparsers.add_parser(
        "serve",
        help="start the always-on multi-tenant HTTP service (JSON endpoints + SSE events)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8420,
        help="TCP port; 0 lets the kernel pick a free one (default: 8420)",
    )
    serve.set_defaults(handler=_command_serve)

    sweep = subparsers.add_parser("omega-sweep", help="update-time exponent as a function of omega")
    sweep.add_argument("--step", type=float, default=0.05)
    sweep.set_defaults(handler=_command_omega_sweep)

    throughput = subparsers.add_parser(
        "batch-throughput", help="updates/sec versus batch size (experiment E10)"
    )
    _add_workload_arguments(throughput, default_vertices=24, default_updates=1280)
    throughput.add_argument(
        "--batch-sizes",
        type=_batch_size_list,
        default=[1, 8, 64, 256],
        help="comma-separated batch sizes to sweep (default: 1,8,64,256)",
    )
    _add_counters_argument(throughput)
    throughput.set_defaults(handler=_command_batch_throughput)

    bench = subparsers.add_parser(
        "bench",
        help="run the perf experiments (E10/E11/E12/E14/E15) and write BENCH_E*.json artifacts",
        description=(
            "Run the perf experiments and write one BENCH_E*.json artifact each. "
            "E10-E14 rows share one schema: kernel, variant, parameters, "
            "operations, seconds, per_second, speedup (over the kernel's first "
            "variant) and consistent; E15 rows report latency percentiles per "
            "traffic class.  A failed exactness check exits non-zero; timing "
            "is reported, never gated."
        ),
    )
    bench.add_argument(
        "--experiments",
        default="e10,e11,e12,e14,e15",
        help="comma-separated subset of e10,e11,e12,e14,e15 to run (default: all)",
    )
    bench.add_argument(
        "--workers",
        type=_positive_int,
        default=4,
        help=(
            "cap the E14 shard-worker sweep (the workers=1 serial baseline "
            "always runs; default: 4)"
        ),
    )
    bench.add_argument(
        "--output-dir",
        default=None,
        help="artifact directory (default: REPRO_BENCH_DIR or the current directory)",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="small CI-smoke workloads; exactness still enforced, timing only reported",
    )
    bench.set_defaults(handler=_command_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
