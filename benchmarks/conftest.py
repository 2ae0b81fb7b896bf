"""Shared configuration for the benchmark suite.

Every benchmark module regenerates one experiment (E1–E15) and prints its
result table; run with ``-s`` to see the tables inline, e.g.::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def report_sink():
    """Collects (title, table) pairs and prints them at the end of the session."""
    collected: list[tuple[str, str]] = []
    yield collected
    if collected:
        print("\n")
        for title, table in collected:
            print(f"\n=== {title} ===")
            print(table)
