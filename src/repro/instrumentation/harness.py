"""Experiment harness: run counters over update streams and compare them.

The harness is what the benchmarks and examples share: it replays an
:class:`~repro.graph.updates.UpdateStream` through one or several counters
in windows (one update each, or ``apply_batch`` windows), records each
window's operations and seconds, optionally validates every window's count
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
from repro.instrumentation.metrics import MetricsSummary, UpdateMetrics

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
    metrics: UpdateMetrics = field(default_factory=UpdateMetrics)
    validated: bool = False

    def summary(self) -> MetricsSummary:
        return self.metrics.summary()


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

    The batch size comes from the engine's config unless overridden; with a
    batch size above 1 the stream goes through ``apply_batch`` windows, the
    metrics hold one entry per window, and ``counts`` holds the (exact)
    batch-boundary counts.
    """
    return _replay(engine, stream, _resolve_batch_size(engine, batch_size), record_counts)


def _replay(
    target: "RunTarget",
    stream: UpdateStream,
    batch_size: int,
    record_counts: bool,
    reference: Optional["RunTarget"] = None,
    check_every: int = 1,
) -> RunResult:
    """The measured replay loop shared by every harness entry point.

    A window size of 1 drives ``apply``, a larger one ``apply_batch``.  Each
    window records its seconds and its operations, the change of
    ``cost.total()`` across the call.  A ``reference`` target replays the
    same windows and its count is compared every ``check_every`` windows.
    """
    step = "apply" if batch_size <= 1 else "apply_batch"
    windows = stream if batch_size <= 1 else stream.batched(batch_size)
    apply = getattr(target, step)
    check = getattr(reference, step) if reference is not None else None
    cost = target.cost
    metrics = UpdateMetrics()
    counts: List[int] = []
    for index, window in enumerate(windows):
        before = cost.total()
        started = time.perf_counter()
        count = apply(window)
        elapsed = time.perf_counter() - started
        metrics.record(cost.total() - before, elapsed)
        if check is not None:
            expected = check(window)
            if index % check_every == 0 and count != expected:
                raise CounterStateError(
                    f"counter {target.name!r} diverged at window #{index} "
                    f"({window!r}): got {count}, expected {expected}"
                )
        if record_counts:
            counts.append(count)
    if reference is not None and target.count != reference.count:
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
        validated=reference is not None,
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
    return _replay(target, stream, 1, True, reference, check_every)


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
        rows.append(
            {
                "counter": name,
                "final_count": result.final_count,
                "final_edges": result.final_edge_count,
                "mean_ops": round(summary.mean_operations, 1),
                "p99_ops": round(summary.p99_operations, 1),
                "max_ops": summary.max_operations,
                "total_seconds": round(summary.total_seconds, 4),
            }
        )
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
