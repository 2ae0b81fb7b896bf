"""Per-update metrics: operation counts and wall-clock time.

The paper's bound is *worst-case per update*, so the interesting statistics are
the maximum and the high percentiles, not just the mean.  :class:`UpdateMetrics`
keeps the operations and seconds of every measured update (or batch window)
and exposes the summary statistics the benchmark harness prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence


def percentile(values: Sequence[float], fraction: float) -> float:
    """The ``fraction`` percentile (0..1) of ``values`` by linear interpolation.

    Returns ``0.0`` for an empty sequence (so summaries of empty runs do not
    blow up); raises for fractions outside ``[0, 1]``.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    position = fraction * (len(ordered) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return float(ordered[lower])
    weight = position - lower
    return float(ordered[lower] * (1.0 - weight) + ordered[upper] * weight)


@dataclass
class MetricsSummary:
    """Summary statistics over a run (operations unless noted otherwise)."""

    mean_operations: float
    p99_operations: float
    max_operations: int
    total_seconds: float
    mean_seconds: float


class UpdateMetrics:
    """The operations and seconds of each measured update (or window)."""

    def __init__(self) -> None:
        self._operations: List[int] = []
        self._seconds: List[float] = []

    def record(self, operations: int, seconds: float) -> None:
        self._operations.append(operations)
        self._seconds.append(seconds)

    def __len__(self) -> int:
        return len(self._operations)

    def summary(self) -> MetricsSummary:
        operations, seconds = self._operations, self._seconds
        return MetricsSummary(
            mean_operations=(sum(operations) / len(operations)) if operations else 0.0,
            p99_operations=percentile(operations, 0.99),
            max_operations=max(operations) if operations else 0,
            total_seconds=sum(seconds),
            mean_seconds=(sum(seconds) / len(seconds)) if seconds else 0.0,
        )


def fit_power_law(edge_counts: Sequence[int], costs: Sequence[float]) -> Optional[float]:
    """Least-squares slope of ``log(cost)`` against ``log(m)``.

    Returns the fitted exponent, or ``None`` when there are fewer than two
    usable points.  Used by the scaling benchmark to estimate the empirical
    update-cost exponent and compare it with the theoretical one.
    """
    points = [
        (math.log(m), math.log(cost))
        for m, cost in zip(edge_counts, costs)
        if m > 0 and cost > 0
    ]
    if len(points) < 2:
        return None
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    numerator = sum((x - mean_x) * (y - mean_y) for x, y in points)
    denominator = sum((x - mean_x) ** 2 for x, _ in points)
    if denominator == 0:
        return None
    return numerator / denominator
