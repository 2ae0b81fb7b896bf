"""Timing helpers shared by the workloads and the load generator (stdlib only).

Host speed on a shared machine drifts by tens of percent within seconds, so
the timed phase of every workload runs in *slices*.  Between two slices,
outside every timed interval, the benchmark runs a fixed reference kernel.
A slice's timings are then scaled by ``(NOMINAL_REF_MS / ref) ** e``, where
``ref`` is the kernel time measured next to that slice and ``e`` how strongly
the measured work follows the kernel: a slice that ran while the host was slow
is scaled down by about the factor the work slowed down by.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

#: Target length of one timed slice.
SLICE_SECONDS = 0.1
#: Reference kernel size: a few ms on a 2020s x86 core.
REF_OPS = 10_000
#: The kernel time the scaled metrics are normalised to.  Any fixed value
#: works; this one is close to the kernel's median on the host the benchmark
#: was tuned on, so scaled and raw figures stay comparable.
NOMINAL_REF_MS = 3.0


def reference_kernel() -> float:
    """Run the fixed reference kernel once and return its wall time in ms.

    Dict and set traffic on small ints, like the interpreter-bound hot paths
    of the program under test.
    """
    table: Dict[int, int] = {}
    members = set()
    started = time.perf_counter()
    for i in range(REF_OPS):
        key = (i * 7919) & 4095
        table[key] = table.get(key, 0) + i
        if key in members:
            members.discard(key)
        else:
            members.add(key)
    return (time.perf_counter() - started) * 1e3


def median_reference(runs: int = 3) -> float:
    """The median of a few back-to-back kernel runs (one sample is noisy)."""
    return statistics.median(reference_kernel() for _ in range(runs))


@dataclass
class SliceLog:
    """Per-slice wall time and item count, with the reference kernel times
    measured between slices (one before each slice and one after the last).

    ``scale(i)`` converts slice ``i``'s wall time to nominal host speed using
    the mean of the kernel times on either side of the slice, raised to the
    workload's ``elasticity``: how strongly its time follows the kernel's, 1
    for interpreter-bound work, less for work that mixes in numpy kernels and
    large allocations.
    """

    elasticity: float = 1.0
    seconds: List[float] = field(default_factory=list)
    items: List[int] = field(default_factory=list)
    refs: List[float] = field(default_factory=list)

    def add(self, seconds: float, items: int, ref_before_ms: float) -> None:
        self.seconds.append(seconds)
        self.items.append(items)
        self.refs.append(ref_before_ms)

    def finish(self, ref_after_ms: float) -> None:
        self.refs.append(ref_after_ms)

    def scale(self, index: int, elasticity: float = None) -> float:
        ratio = 2.0 * NOMINAL_REF_MS / (self.refs[index] + self.refs[index + 1])
        return ratio ** (self.elasticity if elasticity is None else elasticity)

    def rate(self, indices: Sequence[int] = None, scaled: bool = True) -> float:
        """Items per second over the given slices (default: all)."""
        if indices is None:
            indices = range(len(self.seconds))
        items = sum(self.items[i] for i in indices)
        seconds = sum(
            self.seconds[i] * (self.scale(i) if scaled else 1.0) for i in indices
        )
        return items / seconds if seconds > 0 else 0.0

    @property
    def host_ref_ms(self) -> float:
        return statistics.median(self.refs)


#: How strongly bulk operations follow the kernel: set-up, restore, WAL
#: recovery and checkpoint reads mix numpy kernels, JSON codecs and large
#: allocations with interpreter work.  Over paired samples their log time rose
#: 0.3-0.5 per unit of log kernel time; scaling them fully over-corrected.
BULK_ELASTICITY = 0.5


def timed(operation, elasticity: float = BULK_ELASTICITY) -> tuple:
    """Run a bulk ``operation()`` between two reference measurements.

    Returns ``(result, seconds, scaled_seconds)``.  The kernel time is the
    mean of the medians of three runs before and three after; the scale is
    its ratio to ``NOMINAL_REF_MS`` raised to ``elasticity``.  A full
    collection first gives every repetition the same collector state: left
    alone, repeated restores alternated between 0.33 s and 0.42 s.
    """
    gc.collect()
    before = median_reference()
    started = time.perf_counter()
    result = operation()
    elapsed = time.perf_counter() - started
    after = median_reference()
    factor = (2.0 * NOMINAL_REF_MS / (before + after)) ** elasticity
    return result, elapsed, elapsed * factor


def pin_to_cpu(cpu: int) -> None:
    """Keep this process (and threads it starts later) on one CPU.

    On a host whose CPUs share physical cores, a process that migrates sees
    its speed change with its neighbour's load; pinned, the reference kernel
    samples the same CPU the measured work runs on.
    """
    import os

    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {cpu})


def tail(samples: Sequence[float], percentile: float = None) -> Dict[str, float]:
    """The highest percentile with at least ten samples beyond it, or the
    given ``percentile`` (nearest rank) where a workload fixes one.

    The default is the 11th-largest sample; its percentile is the share of
    samples at or below it.  Either way at least ten samples must lie beyond.
    """
    count = len(samples)
    rank = count - 10 if percentile is None else math.ceil(percentile / 100.0 * count)
    if count - rank < 10 or rank < 1:
        raise ValueError(f"{count} samples leave fewer than ten beyond the tail")
    return {
        "value": sorted(samples)[rank - 1],
        "percentile": 100.0 * rank / count,
        "samples": count,
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB (Linux reports KiB)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
