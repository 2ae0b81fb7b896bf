"""Run one benchmark workload and print its result as the last stdout line.

From the root of a checkout:

    python3 perfbench/run.py --workload update-stream --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the traced
variant and prints the per-layer metrics (see README.md here).  The program
is imported from ``src/`` of the same checkout; without it the benchmark
exits with code 2 and prints no result.  Scratch files (the served WAL, the
span dump, the per-slice run record) go to ``.perfbench-work/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("update-stream", "batch-windows", "served-durable")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {source / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(source), str(HERE)]
    import measure

    # Pin before numpy loads, so its threads start on the same CPU.  The
    # served workload's load generator gets another CPU when there is one.
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [0]
    measure.pin_to_cpu(cpus[-1])
    import workloads

    workdir = ROOT / ".perfbench-work"
    result = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), workdir,
        loadgen_cpu=cpus[-2] if len(cpus) > 1 else cpus[-1],
    )
    if result.record:
        record = workdir / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
        record.write_text(json.dumps(result.record))
    print("perfbench: " + json.dumps({"workload": args.workload, "seed": args.seed, **result.notes}))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": result.units[name]}
            for name, value in result.metrics.items()
        },
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
