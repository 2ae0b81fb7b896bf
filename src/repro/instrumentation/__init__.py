"""Instrumentation: operation-count cost model, per-update metrics, and the
experiment harness."""

from repro.instrumentation.cost_model import STANDARD_CATEGORIES, CostModel, CostSnapshot
from repro.instrumentation.harness import (
    RunResult,
    compare_counters,
    format_table,
    run_config,
    run_engine,
    run_validated,
    summary_table,
    time_replay,
)
from repro.instrumentation.metrics import (
    MetricsSummary,
    UpdateMetrics,
    UpdateRecord,
    fit_power_law,
    percentile,
)

__all__ = [
    "CostModel",
    "CostSnapshot",
    "STANDARD_CATEGORIES",
    "UpdateMetrics",
    "UpdateRecord",
    "MetricsSummary",
    "percentile",
    "fit_power_law",
    "RunResult",
    "run_config",
    "run_engine",
    "run_validated",
    "time_replay",
    "compare_counters",
    "summary_table",
    "format_table",
]
