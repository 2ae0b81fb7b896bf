"""Instrumentation: the operation-count cost model every counter charges, and
the experiment harness, which measures each update or batch window as the
change of that model's total plus its wall-clock seconds."""

from repro.instrumentation.cost_model import CostModel
from repro.instrumentation.harness import (
    RunResult,
    compare_counters,
    run_config,
    run_engine,
    run_validated,
    summary_table,
    time_replay,
)
from repro.instrumentation.metrics import (
    MetricsSummary,
    UpdateMetrics,
    fit_power_law,
    percentile,
)

__all__ = [
    "CostModel",
    "UpdateMetrics",
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
]
