"""Chaos-suite plumbing: seed matrix and the CI recovery-report artifact.

``REPRO_CHAOS_SEEDS`` (comma-separated integers, default ``"0"``) widens the
deterministic fault schedules the chaos tests run under — CI sweeps a fixed
matrix, a developer reproducing a CI failure exports the one failing seed.
``REPRO_CHAOS_REPORT`` (a path) makes the session write every chaos case's
fault schedule, recovery report and recovery wall time there as JSON, which
CI uploads as an artifact.  :func:`logged` flattens a log into its updates.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

import pytest

from repro.durability.wal import replay_wal


def logged(path) -> list:
    """``(seq, update)`` for every logged update, in log order."""
    return [
        (record.seq + index, update)
        for record in replay_wal(path)
        for index, update in enumerate(record.updates)
    ]


def chaos_seeds() -> List[int]:
    raw = os.environ.get("REPRO_CHAOS_SEEDS", "0")
    seeds = [int(part) for part in raw.split(",") if part.strip()]
    return seeds or [0]


_REPORT_ROWS: List[Dict[str, object]] = []


@pytest.fixture
def chaos_report():
    """Append one JSON-friendly row per chaos case; written at session end."""
    return _REPORT_ROWS.append


def pytest_sessionfinish(session, exitstatus):
    target = os.environ.get("REPRO_CHAOS_REPORT")
    if not target or not _REPORT_ROWS:
        return
    payload = {
        "seeds": chaos_seeds(),
        "exit_status": int(exitstatus),
        "cases": list(_REPORT_ROWS),
    }
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
