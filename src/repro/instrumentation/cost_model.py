"""Operation-count cost model.

Wall-clock timing of a Python implementation says very little about the
asymptotic claims of the paper; what *can* be measured faithfully is the number
of elementary operations each algorithm performs per update — neighborhood
scans, hash-map probes, wedge lookups, and multiply-adds inside matrix
products.  Every counter charges its work to a :class:`CostModel`, and the
benchmarks report those counts next to wall-clock time.

The categories are free-form strings (``adjacency_probe``,
``neighborhood_scan``, ``structure_update``, ``matmul_ops``, ...); the
operations of an update are the change of :meth:`CostModel.total` across it.
"""

from __future__ import annotations

from typing import Dict, Mapping


class CostModel:
    """A mutable accumulator of per-category operation counts."""

    def __init__(self) -> None:
        self._categories: Dict[str, int] = {}
        self._enabled = True

    def disable(self) -> None:
        """Drop all future charges (``EngineConfig(track_costs=False)``).

        Counters charge on every elementary operation, so skipping the
        dictionary update removes measurable overhead from hot paths when the
        operation counts are not being reported.
        """
        self._enabled = False

    def charge(self, category: str, amount: int = 1) -> None:
        """Add ``amount`` operations to ``category``."""
        if amount == 0 or not self._enabled:
            return
        self._categories[category] = self._categories.get(category, 0) + amount

    def total(self) -> int:
        """Total operations over all categories."""
        return sum(self._categories.values())

    def get(self, category: str) -> int:
        return self._categories.get(category, 0)

    def reset(self) -> None:
        self._categories.clear()

    def as_dict(self) -> Mapping[str, int]:
        return dict(self._categories)

    def __repr__(self) -> str:
        return f"CostModel(total={self.total()}, categories={len(self._categories)})"
