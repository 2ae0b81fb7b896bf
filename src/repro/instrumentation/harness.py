"""Experiment harness: run counters over update streams and compare them.

The harness is what the benchmarks and examples share: it replays an
:class:`~repro.graph.updates.UpdateStream` through one or several counters,
records per-update metrics, optionally validates every intermediate count
against a reference counter, and produces comparable summaries.

Counters are constructed through the :mod:`repro.api` facade:
:func:`run_config` takes an :class:`~repro.api.EngineConfig`,
:func:`run_engine` a live :class:`~repro.api.FourCycleEngine`, and the
validation/comparison helpers accept either an engine or a bare counter.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from repro.exceptions import CounterStateError
from repro.graph.updates import UpdateStream
from repro.instrumentation.metrics import MetricsSummary, UpdateMetrics, UpdateRecord

if TYPE_CHECKING:  # imported lazily at runtime to avoid a circular import
    from repro.api.config import EngineConfig
    from repro.api.engine import FourCycleEngine
    from repro.core.base import DynamicFourCycleCounter

    #: Anything the harness can drive: an engine facade or a raw counter.
    RunTarget = Union[FourCycleEngine, DynamicFourCycleCounter]


@dataclass
class RunResult:
    """The outcome of replaying one stream through one counter."""

    counter_name: str
    stream_length: int
    final_count: int
    final_edge_count: int
    counts: List[int] = field(default_factory=list)
    metrics: Optional[UpdateMetrics] = None
    validated: bool = False

    def summary(self) -> Optional[MetricsSummary]:
        return self.metrics.summary() if self.metrics is not None else None


def _resolve_batch_size(target: "RunTarget", batch_size: Optional[int]) -> int:
    """An explicit ``batch_size`` wins; an engine falls back to its config."""
    if batch_size is not None:
        return batch_size
    config = getattr(target, "config", None)
    return config.batch_size if config is not None else 1


def run_config(
    config: "EngineConfig",
    stream: UpdateStream,
    record_counts: bool = True,
) -> RunResult:
    """Build an engine from ``config`` and replay ``stream`` through it.

    The preferred entry point: construction, batching, and measurement all
    derive from the one typed config.
    """
    from repro.api.engine import FourCycleEngine

    return run_engine(FourCycleEngine(config), stream, record_counts=record_counts)


def run_engine(
    engine: "FourCycleEngine",
    stream: UpdateStream,
    record_counts: bool = True,
    batch_size: Optional[int] = None,
) -> RunResult:
    """Replay ``stream`` through an engine and collect metrics.

    Per-update metrics are recorded here (rather than relying on the engine's
    own optional metrics) so any engine can be measured.  The batch size comes
    from the engine's config unless overridden; with a batch size above 1 the
    stream goes through ``apply_batch`` windows, one
    :class:`~repro.instrumentation.metrics.UpdateRecord` per window, and
    ``counts`` holds the (exact) batch-boundary counts.
    """
    return _replay(engine, stream, _resolve_batch_size(engine, batch_size), record_counts)


def _replay(
    target: "RunTarget",
    stream: UpdateStream,
    batch_size: int,
    record_counts: bool,
) -> RunResult:
    """Measured replay shared by engines and raw counters."""
    if batch_size > 1:
        return _replay_batched(target, stream, batch_size, record_counts)
    metrics = UpdateMetrics()
    counts: List[int] = []
    for index, update in enumerate(stream):
        before_ops = target.cost.snapshot()
        started = time.perf_counter()
        count = target.apply(update)
        elapsed = time.perf_counter() - started
        spent = target.cost.snapshot().diff(before_ops)
        metrics.record(
            UpdateRecord(
                index=index,
                operations=spent.total,
                seconds=elapsed,
                edge_count=target.num_edges,
                is_insert=update.is_insert,
                categories=dict(spent.categories),
            )
        )
        if record_counts:
            counts.append(count)
    return RunResult(
        counter_name=target.name,
        stream_length=len(stream),
        final_count=target.count,
        final_edge_count=target.num_edges,
        counts=counts,
        metrics=metrics,
    )


def _replay_batched(
    target: "RunTarget",
    stream: UpdateStream,
    batch_size: int,
    record_counts: bool,
) -> RunResult:
    """Batched replay: one metrics record and one count per window."""
    metrics = UpdateMetrics()
    counts: List[int] = []
    for index, window in enumerate(stream.batched(batch_size)):
        before_ops = target.cost.snapshot()
        edges_before = target.num_edges
        started = time.perf_counter()
        count = target.apply_batch(window)
        elapsed = time.perf_counter() - started
        spent = target.cost.snapshot().diff(before_ops)
        metrics.record(
            UpdateRecord(
                index=index,
                operations=spent.total,
                seconds=elapsed,
                edge_count=target.num_edges,
                # Same labeling rule as the counter's own per-batch record:
                # a batch counts as "insert" when its net edge delta is >= 0.
                is_insert=target.num_edges >= edges_before,
                categories=dict(spent.categories),
            )
        )
        if record_counts:
            counts.append(count)
    return RunResult(
        counter_name=target.name,
        stream_length=len(stream),
        final_count=target.count,
        final_edge_count=target.num_edges,
        counts=counts,
        metrics=metrics,
    )


def time_replay(
    target: "RunTarget",
    stream: UpdateStream,
    batch_size: Optional[int] = None,
) -> float:
    """Wall-clock seconds to replay ``stream`` through an engine or counter.

    The minimal timing loop shared by the throughput experiments (E10/E11):
    no metrics recording, no count collection — only the work a production
    caller of the update API would do.  A batch size of 1 (the default for
    raw counters; engines default to their config) drives the per-update
    ``apply`` path, larger sizes the ``apply_batch`` pipeline (normalization
    included in the measured time).
    """
    resolved = _resolve_batch_size(target, batch_size)
    # Time the raw counter: the engine's event dispatch is not part of the
    # counter kernels these experiments measure.
    counter = getattr(target, "counter", target)
    started = time.perf_counter()
    if resolved <= 1:
        for update in stream:
            counter.apply(update)
    else:
        for window in stream.batched(resolved):
            counter.apply_batch(window)
    return time.perf_counter() - started


def run_validated(
    target: "RunTarget",
    stream: UpdateStream,
    reference: Optional["RunTarget"] = None,
    check_every: int = 1,
) -> RunResult:
    """Replay ``stream`` while cross-checking against a reference counter.

    ``check_every`` controls how often the counts are compared (1 = after every
    update).  Raises :class:`CounterStateError` on the first mismatch, naming
    the update index — this is the workhorse of the correctness experiment E4
    and of the integration tests.
    """
    if reference is None:
        from repro.api.engine import FourCycleEngine

        reference = FourCycleEngine("brute-force")
    if check_every <= 0:
        raise ValueError(f"check_every must be positive, got {check_every}")
    metrics = UpdateMetrics()
    counts: List[int] = []
    for index, update in enumerate(stream):
        before_ops = target.cost.snapshot()
        started = time.perf_counter()
        count = target.apply(update)
        elapsed = time.perf_counter() - started
        spent = target.cost.snapshot().diff(before_ops)
        expected = reference.apply(update)
        if index % check_every == 0 and count != expected:
            raise CounterStateError(
                f"counter {target.name!r} diverged at update #{index} "
                f"({update!r}): got {count}, expected {expected}"
            )
        metrics.record(
            UpdateRecord(
                index=index,
                operations=spent.total,
                seconds=elapsed,
                edge_count=target.num_edges,
                is_insert=update.is_insert,
                categories=dict(spent.categories),
            )
        )
        counts.append(count)
    if target.count != reference.count:
        raise CounterStateError(
            f"counter {target.name!r} ended with count {target.count}, "
            f"reference ended with {reference.count}"
        )
    return RunResult(
        counter_name=target.name,
        stream_length=len(stream),
        final_count=target.count,
        final_edge_count=target.num_edges,
        counts=counts,
        metrics=metrics,
        validated=True,
    )


def compare_counters(
    counter_names: Sequence[str],
    stream: UpdateStream,
    counter_kwargs: Optional[Dict[str, dict]] = None,
    batch_size: int = 1,
) -> Dict[str, RunResult]:
    """Replay the same stream through several registry counters.

    Returns a mapping from counter name to its :class:`RunResult`; all final
    counts are additionally cross-checked against each other.  ``batch_size``
    selects the batched pipeline (see :func:`run_engine`).  Each counter is
    built through :class:`~repro.api.EngineConfig` (``counter_kwargs`` entries
    are flat counter keyword dicts, validated against the counter's spec).
    """
    from repro.api.config import EngineConfig

    counter_kwargs = counter_kwargs or {}
    results: Dict[str, RunResult] = {}
    final_counts = set()
    for name in counter_names:
        config = EngineConfig.from_counter_kwargs(
            name, counter_kwargs.get(name, {}), batch_size=batch_size
        )
        result = run_config(config, stream)
        results[name] = result
        final_counts.add(result.final_count)
    if len(final_counts) > 1:
        details = ", ".join(f"{name}={result.final_count}" for name, result in results.items())
        raise CounterStateError(f"counters disagree on the final 4-cycle count: {details}")
    return results


def summary_table(results: Dict[str, RunResult]) -> List[Dict[str, object]]:
    """Flatten comparison results into printable rows (one per counter)."""
    rows: List[Dict[str, object]] = []
    for name in sorted(results):
        result = results[name]
        summary = result.summary()
        row: Dict[str, object] = {
            "counter": name,
            "final_count": result.final_count,
            "final_edges": result.final_edge_count,
        }
        if summary is not None:
            row.update(
                {
                    "mean_ops": round(summary.mean_operations, 1),
                    "p99_ops": round(summary.p99_operations, 1),
                    "max_ops": summary.max_operations,
                    "total_seconds": round(summary.total_seconds, 4),
                }
            )
        rows.append(row)
    return rows


def format_table(rows: List[Dict[str, object]]) -> str:
    """Render rows as a fixed-width text table (used by examples and the CLI)."""
    if not rows:
        return "(no rows)"
    columns = list(rows[0].keys())
    widths = {
        column: max(len(str(column)), max(len(str(row.get(column, ""))) for row in rows))
        for column in columns
    }
    header = "  ".join(str(column).ljust(widths[column]) for column in columns)
    separator = "  ".join("-" * widths[column] for column in columns)
    lines = [header, separator]
    for row in rows:
        lines.append("  ".join(str(row.get(column, "")).ljust(widths[column]) for column in columns))
    return "\n".join(lines)
