"""Machine-readable benchmark artifacts (``BENCH_E*.json``).

Every performance experiment can dump its result rows as a small JSON file so
the perf trajectory is tracked across changes: CI archives the artifacts,
and a later run can diff the ``per_second``/``speedup`` columns against the
previous one instead of re-reading prose tables.

The artifact schema is deliberately flat::

    {
      "benchmark": "E11",
      "params": {...},          # the experiment's input parameters
      "rows": [{...}, ...],     # the experiment's dataclass rows, as dicts
      "python": "3.12.3",
      "platform": "Linux-...",
    }

The output directory defaults to the current working directory and can be
redirected with the ``REPRO_BENCH_DIR`` environment variable (used by CI to
collect artifacts from one place).
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path
from typing import Mapping, Optional, Sequence

from repro.analysis.reporting import rows_to_dicts


def artifact_directory(directory: Optional[str] = None) -> Path:
    """Resolve the artifact output directory (created if missing)."""
    chosen = directory or os.environ.get("REPRO_BENCH_DIR") or "."
    path = Path(chosen)
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_bench_artifact(
    name: str,
    params: Mapping[str, object],
    rows: Sequence[object],
    directory: Optional[str] = None,
) -> Path:
    """Write ``BENCH_<name>.json`` and return its path.

    ``rows`` may be dataclass instances or mappings (anything
    :func:`repro.analysis.reporting.rows_to_dicts` accepts).
    """
    payload = {
        "benchmark": name,
        "params": dict(params),
        "rows": rows_to_dicts(rows),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
    }
    path = artifact_directory(directory) / f"BENCH_{name}.json"
    with path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False, default=str)
        handle.write("\n")
    return path
