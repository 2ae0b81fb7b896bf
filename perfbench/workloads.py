"""The three benchmark workloads.

Each workload function builds its engine (or service) several times to
measure set-up, runs a timed phase of slices for about ``seconds`` seconds,
checks that the final 4-cycle count is exact, and returns a
:class:`RunResult`.  With a tracer the timed phase alternates traced and
untraced slices, and the result carries per-layer metrics instead of the
end-to-end ones.

* ``update-stream`` -- assadi-shah, one update per ``FourCycleEngine.apply``:
  the per-update path (oracle query, Claim 5.3 maintenance, phase products).
* ``batch-windows`` -- assadi-shah, windows of 256 through ``apply_batch``:
  the batch rebuild.
* ``served-durable`` -- the HTTP service with one durable wedge tenant and a
  closed-loop load generator in its own process.

See README.md in this directory for why each exists and what it bypasses.
"""

from __future__ import annotations

import collections
import gc
import http.client
import json
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import churn
import measure
import tracing
from repro.api import EngineConfig, FourCycleEngine
from repro.exceptions import ReproError
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.static_counts import count_four_cycles_wedges
from repro.graph.updates import EdgeUpdate

_perf = time.perf_counter
HERE = Path(__file__).resolve().parent

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: WAL recoveries per served run; ``recover_s`` is their median.
RECOVERIES = 3
#: In-process runs keep the read checkpoint of every this many slices, and
#: ``recover_s`` is the median time to restore those and the final state.
#: One final graph carries its seed's hub structure (restores of ten seeds'
#: graphs spread 16%); the edge set turns over several times in a run, so
#: restoring states from across the run averages that out.
SNAPSHOT_EVERY = 25

UNITS = {
    "setup_s": "s",
    "updates_per_s": "1/s",
    "apply_p50_ms": "ms",
    "apply_tail_ms": "ms",
    "read_p50_ms": "ms",
    "recover_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    units: Dict[str, str]
    notes: Dict[str, object] = field(default_factory=dict)
    record: Dict[str, object] = field(default_factory=dict)


def _edge_update(update: churn.Update) -> EdgeUpdate:
    kind, u, v = update
    return EdgeUpdate.insert(u, v) if kind == "insert" else EdgeUpdate.delete(u, v)


def _exact_count(edges) -> int:
    """The reference count: wedge enumeration over an independent graph.

    (Not ``is_consistent()``: its trace recount allocates two dense n x n
    matrices, which at 20000 vertices exceeds the host's memory.)
    """
    return count_four_cycles_wedges(DynamicGraph(edges=edges))


def _timed_setups(
    build: Callable[[], Callable[[], object]], elasticity: float = measure.BULK_ELASTICITY
) -> tuple:
    """Run ``SETUPS`` set-ups; ``build()`` prepares inputs untimed and returns
    the timed step, which returns the built object.  Returns the scaled and
    raw set-up times and the last built object (earlier ones are closed)."""
    scaled, raw = [], []
    built = None
    for attempt in range(SETUPS):
        step = build()
        built, elapsed, elapsed_scaled = measure.timed(step, elasticity)
        raw.append(elapsed)
        scaled.append(elapsed_scaled)
        if attempt < SETUPS - 1:
            built.close()
            built = None
            gc.collect()
    return scaled, raw, built


# ---------------------------------------------------------------------------
# In-process timed phase
# ---------------------------------------------------------------------------
@dataclass
class Phase:
    """Raw observations of one timed phase."""

    log: measure.SliceLog = field(default_factory=measure.SliceLog)
    latencies: List[float] = field(default_factory=list)   # seconds per apply
    latency_slice: List[int] = field(default_factory=list)
    reads: List[float] = field(default_factory=list)        # seconds per read
    traced: List[int] = field(default_factory=list)         # traced slice ids
    counted: List[int] = field(default_factory=list)        # count-window slice ids
    traced_latency: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Items generated but never applied (the phase ended before them).
    unapplied: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)  # kept read checkpoints
    peak_rss_mb: float = 0.0


def _in_process_phase(
    engine: FourCycleEngine,
    next_items: Callable[[], list],
    apply: Callable[[object], object],
    seconds: float,
    count_items: int,
    tracer: Optional[tracing.Tracer],
    cycle_mark: Callable[[], object],
    elasticity: float,
) -> Phase:
    """Apply items in slices until ``seconds`` have passed, then to a cycle end.

    A slice ends once it has run for ``measure.SLICE_SECONDS``; the reference
    kernel and one read sample run between slices.  ``cycle_mark()`` changes
    value when the engine completes a cycle of its amortised work (a phase,
    for the phase-based counter); once time is up the phase runs on until the
    next change, so every run measures whole cycles and the cut point does
    not move the rates.  Every run applies at least ``count_items`` items;
    a traced run traces all of them and takes its exact counts there, then
    alternates untraced and traced slices to measure the tracing overhead.
    """
    phase = Phase(log=measure.SliceLog(elasticity=elasticity))
    patches = tracing.timed_phase_patches(tracer) if tracer is not None else None
    cost = engine.cost
    pending = collections.deque()
    began = _perf()
    overtime_mark = None
    index = 0
    while True:
        if not pending:
            pending.extend(next_items())
        ref = measure.reference_kernel()
        counting = tracer is not None and phase.attempted < count_items
        traced = counting or (tracer is not None and index % 2 == 0)
        limit = count_items - phase.attempted if counting else len(pending)
        if traced:
            tracer.counting = counting
            before = (cost.get("matmul_ops"), cost.get("structure_update"), cycle_mark())
            tracer.install(patches)
        done = 0
        stop = False
        started = _perf()
        deadline = started + measure.SLICE_SECONDS
        while done < limit and pending:
            item = pending.popleft()
            if traced:
                tracer.set_window(phase.attempted)
            phase.attempted += 1
            tick = _perf()
            try:
                apply(item)
            except ReproError:
                phase.failed += 1
            tock = _perf()
            phase.latencies.append(tock - tick)
            phase.latency_slice.append(index)
            done += 1
            if overtime_mark is not None and cycle_mark() != overtime_mark:
                stop = True
                break
            if tock >= deadline:
                break
        finished = _perf()
        if traced:
            tracer.uninstall()
            phase.traced.append(index)
            phase.traced_latency += sum(phase.latencies[len(phase.latencies) - done:])
            if counting:
                phase.counted.append(index)
                after = (cost.get("matmul_ops"), cost.get("structure_update"), cycle_mark())
                tracer.count("cost.matmul_ops", after[0] - before[0])
                tracer.count("cost.structure_update", after[1] - before[1])
                if isinstance(after[2], int):
                    tracer.count("phases.completed", after[2] - before[2])
                tracer.counting = False
        phase.log.add(finished - started, done, ref)
        tick = _perf()
        snapshot = engine.checkpoint()
        phase.reads.append(_perf() - tick)
        if index % SNAPSHOT_EVERY == 0:
            phase.snapshots.append(snapshot)
        index += 1
        if stop:
            break
        if overtime_mark is None and _perf() - began >= seconds and phase.attempted >= count_items:
            overtime_mark = cycle_mark()
            if overtime_mark is None:
                break
    phase.log.finish(measure.reference_kernel())
    phase.unapplied = list(pending)
    phase.peak_rss_mb = measure.peak_rss_mb()
    return phase


def _applied_edges(live_edges, unapplied) -> set:
    """The generator's edge set with the unapplied updates taken back."""
    edges = set(live_edges)
    for update in reversed(unapplied):
        edge = (update.u, update.v) if update.u < update.v else (update.v, update.u)
        if update.is_insert:
            edges.discard(edge)
        else:
            edges.add(edge)
    return edges


def _in_process_result(
    engine: FourCycleEngine,
    phase: Phase,
    live_edges,
    updates_expected: int,
    setup: tuple,
    tracer: Optional[tracing.Tracer],
    items_per_apply: int,
    bulk_elasticity: float = measure.BULK_ELASTICITY,
) -> RunResult:
    """Exactness gate, restore timings and metrics for an in-process run."""
    expected_edges = _applied_edges(live_edges, phase.unapplied)
    engine_edges = set(engine.graph.edges())
    exact = _exact_count(expected_edges)
    restores, restores_raw = [], []
    restored_ok = True
    for snapshot in phase.snapshots + [engine.checkpoint()]:
        restored, elapsed, elapsed_scaled = measure.timed(
            lambda: FourCycleEngine.restore(snapshot), bulk_elasticity
        )
        restored_ok &= restored.count == snapshot.count
        restored.close()
        del restored
        restores.append(elapsed_scaled)
        restores_raw.append(elapsed)
    phase.snapshots.clear()
    correct = (
        phase.failed == 0
        and engine_edges == expected_edges
        and engine.count == exact
        and engine.updates_processed == updates_expected
        and restored_ok
    )
    notes = {
        "count": engine.count,
        "exact_count": exact,
        "edges": len(engine_edges),
    }
    log = phase.log
    scale = [log.scale(i) for i in phase.latency_slice]
    apply_ms = [s * 1e3 * f for s, f in zip(phase.latencies, scale)]
    apply_raw_ms = [s * 1e3 for s in phase.latencies]
    read_ms = [s * 1e3 * log.scale(i, measure.BULK_ELASTICITY) for i, s in enumerate(phase.reads)]
    untraced = [i for i in range(len(log.seconds)) if i not in set(phase.traced)]
    record = {"slices": [log.seconds, log.items, log.refs], "latencies": phase.latencies,
              "latency_slice": phase.latency_slice, "reads": phase.reads,
              "setup": setup[1], "recover": restores_raw}
    if tracer is None:
        metrics = _end_to_end(
            setup_s=statistics.median(setup[0]),
            updates_per_s=log.rate(untraced) * items_per_apply,
            apply_ms=apply_ms,
            read_p50_ms=statistics.median(read_ms),
            recover_s=statistics.median(restores),
            peak_rss_mb=phase.peak_rss_mb,
        )
        notes.update(_raw_notes(setup[1], log.rate(untraced, scaled=False) * items_per_apply,
                                apply_raw_ms, [s * 1e3 for s in phase.reads], restores_raw, log))
        return RunResult(correct, phase.attempted, phase.failed, metrics, dict(UNITS), notes, record)
    traced_items = sum(log.items[i] for i in phase.traced)
    metrics, units = _per_layer(tracer, traced_items, phase.traced_latency * 1e3, log)
    alternating = [i for i in phase.traced if i not in set(phase.counted)]
    metrics["trace.overhead"] = _overhead(log, untraced, alternating)
    return RunResult(correct, phase.attempted, phase.failed, metrics, units, notes)


def _end_to_end(
    setup_s, updates_per_s, apply_ms, read_p50_ms, recover_s, peak_rss_mb, tail_percentile=None
) -> Dict[str, float]:
    return {
        "setup_s": setup_s,
        "updates_per_s": updates_per_s,
        "apply_p50_ms": statistics.median(apply_ms),
        "apply_tail_ms": measure.tail(apply_ms, tail_percentile)["value"],
        "read_p50_ms": read_p50_ms,
        "recover_s": recover_s,
        "peak_rss_mb": peak_rss_mb,
    }


def _raw_notes(
    setup_raw, rate_raw, apply_raw_ms, read_raw_ms, recover_raw, log, tail_percentile=None
) -> Dict[str, object]:
    """Unscaled figures and the tail's percentile, printed beside the result."""
    tail_raw = measure.tail(apply_raw_ms, tail_percentile)
    return {
        "host_ref_ms": log.host_ref_ms,
        "raw": {
            "setup_s": statistics.median(setup_raw),
            "updates_per_s": rate_raw,
            "apply_p50_ms": statistics.median(apply_raw_ms),
            "apply_tail_ms": tail_raw["value"],
            "read_p50_ms": statistics.median(read_raw_ms),
            "recover_s": statistics.median(recover_raw),
        },
        "tail_percentile": tail_raw["percentile"],
        "tail_samples": tail_raw["samples"],
        "slices": len(log.seconds),
    }


def _overhead(log, untraced, traced) -> float:
    """Untraced over traced throughput, minus one (0 when a run is too short
    to have traced slices after its count window)."""
    traced_rate = log.rate(traced)
    return log.rate(untraced) / traced_rate - 1.0 if traced_rate else 0.0


#: Per-layer metrics that are exact totals over the count window.
COUNT_METRICS = ("matmul.scheduler.ops", "core.structure_updates", "core.phase_ends", "kernels.spgemm_work")


def _per_layer(tracer, applies: int, apply_latency_ms: float, log) -> tuple:
    """Per-layer metrics of a traced run (mean self time per traced apply).

    The caller fills in ``trace.overhead`` and, on served-durable, the
    recovery metrics; they stay 0 where a workload has no such step.
    """
    self_ms = tracer.self_ms()
    counts = tracer.counts()
    metrics: Dict[str, float] = {
        metric: self_ms.get(span, 0.0) / max(applies, 1)
        for metric, span in tracing.SPAN_METRICS.items()
    }
    metrics.update(tracing.count_metrics(counts))
    metrics["matmul.scheduler.ops"] = counts.get("cost.matmul_ops", 0)
    metrics["core.structure_updates"] = counts.get("cost.structure_update", 0)
    metrics["core.phase_ends"] = counts.get("phases.completed", 0)
    metrics["trace.coverage"] = sum(self_ms.values()) / apply_latency_ms if apply_latency_ms else 0.0
    metrics["trace.overhead"] = 0.0
    metrics["bench.host_ref_ms"] = log.host_ref_ms
    metrics["durability.recovery.replay_ms"] = 0.0
    metrics["durability.recovery.apply_ms"] = 0.0
    units = {
        name: "ms" if name.endswith("_ms") else "count" if name in COUNT_METRICS else "ratio"
        for name in metrics
    }
    return metrics, units


# ---------------------------------------------------------------------------
# update-stream
# ---------------------------------------------------------------------------
STREAM_VERTICES = 3000
STREAM_EDGES = 3000
STREAM_ZIPF = 0.8
#: Updates generated at a time (outside the timed slices).
STREAM_BLOCK = 200
#: Updates at the start of the timed phase whose exact counts are reported.
STREAM_COUNT_ITEMS = 4000


def update_stream(seed: int, seconds: float, tracer: Optional[tracing.Tracer]) -> RunResult:
    vertices = churn.shuffled_vertices(seed, STREAM_VERTICES)
    weights = churn.zipf_weights(STREAM_VERTICES, STREAM_ZIPF)
    state = {}

    def build():
        generator = churn.Churn(seed, vertices, STREAM_EDGES, weights)
        warmup = [_edge_update(u) for u in generator.initial(STREAM_EDGES)]
        state["generator"] = generator

        def step():
            engine = FourCycleEngine(EngineConfig(counter="assadi-shah"))
            engine.apply_batch(warmup)
            return engine

        return step

    setup = _timed_setups(build)
    engine = setup[2]
    generator = state["generator"]
    phase = _in_process_phase(
        engine,
        lambda: [_edge_update(u) for u in generator.take(STREAM_BLOCK)],
        lambda update: engine.apply(update),  # looked up per call, so traced slices see the wrapper
        seconds,
        STREAM_COUNT_ITEMS,
        tracer,
        lambda: engine.counter.phases_completed,
        elasticity=1.0,
    )
    result = _in_process_result(
        engine, phase, generator.live_edges, STREAM_EDGES + phase.attempted, setup, tracer, 1
    )
    engine.close()
    return result


# ---------------------------------------------------------------------------
# batch-windows
# ---------------------------------------------------------------------------
WINDOW_VERTICES = 10000
WINDOW_EDGES = 5000
WINDOW_SIZE = 256
#: Windows at the start of the timed phase whose exact counts are reported.
WINDOW_COUNT_ITEMS = 30
#: A window's rebuild is half numpy and dict building, half interpreter work;
#: over two 10-seed sets 0.75 gave the steadiest throughput and p50.  Set-up
#: and restores apply a whole graph the same way, so they use it too: at the
#: bulk 0.5 their medians moved 16% and 11% across 10-seed sets, at 0.75
#: about 5% each.
WINDOW_ELASTICITY = 0.75


def batch_windows(seed: int, seconds: float, tracer: Optional[tracing.Tracer]) -> RunResult:
    state = {}

    def build():
        generator = churn.Churn(seed, range(WINDOW_VERTICES), WINDOW_EDGES)
        initial = [_edge_update(u) for u in generator.initial(WINDOW_EDGES)]
        state["generator"] = generator

        def step():
            engine = FourCycleEngine(EngineConfig(counter="assadi-shah", batch_size=WINDOW_SIZE))
            engine.apply_batch(initial)
            return engine

        return step

    setup = _timed_setups(build, WINDOW_ELASTICITY)
    engine = setup[2]
    generator = state["generator"]
    phase = _in_process_phase(
        engine,
        lambda: [[_edge_update(u) for u in generator.take(WINDOW_SIZE)]],
        lambda window: engine.apply_batch(window),  # looked up per call, as above
        seconds,
        WINDOW_COUNT_ITEMS,
        tracer,
        lambda: None,
        elasticity=WINDOW_ELASTICITY,
    )
    result = _in_process_result(
        engine,
        phase,
        generator.live_edges,
        WINDOW_EDGES + phase.attempted * WINDOW_SIZE,
        setup,
        tracer,
        WINDOW_SIZE,
        WINDOW_ELASTICITY,
    )
    engine.close()
    return result


# ---------------------------------------------------------------------------
# served-durable
# ---------------------------------------------------------------------------
#: Twice this graph (20000 edges on 40000 vertices) gives a run about 1100
#: posts instead of 2000.  In two 10-seed sets run back to back its served
#: figures spread more: p95 14% against 4%, p50 10% against 6%, throughput 8%
#: against 4%, peak RSS 7% against 2%.
SERVED_VERTICES = 20000
SERVED_EDGES = 10000
SERVED_PRODUCERS = 2
SERVED_WINDOW = 8
#: Windows per producer per slice; producer 0 reads the counts once a slice.
SERVED_SLICE_WINDOWS = 4
#: Slices before the timed ones: applied and checked, never timed or traced.
SERVED_WARMUP_SLICES = 1
#: Traced slices whose exact counts are reported.
SERVED_COUNT_SLICES = 10
#: ``recover_s`` is reported for a log of this many updates.  Recovery replays
#: every logged update, and a run logs as many as its timed phase manages to
#: post, so unscaled a change that posts faster would read as slower recovery.
SERVED_RECOVER_UPDATES = 30000
#: ``apply_tail_ms`` on served-durable is this percentile of the posts, not
#: the 11th-largest: over eight 8-15-run sets the 11th-largest (p99.5) spread
#: 8-18% and p99 12-20%, p95 4-10%.  See README.md, "The served tail".
SERVED_TAIL_PERCENTILE = 95
TENANT = "bench"


class _Served:
    """One running service with the benchmark tenant preloaded."""

    def __init__(self, wal_path: Path, preload_body: str) -> None:
        from repro.service.app import ServiceRunner

        self.wal_path = wal_path
        self.runner = ServiceRunner()
        self.host, self.port = self.runner.start()
        connection = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            config = {"counter": "wedge", "wal_path": str(wal_path)}
            self._call(connection, "POST", "/engines", json.dumps({"name": TENANT, "config": config}), 201)
            self._call(connection, "POST", f"/engines/{TENANT}/updates", preload_body, 200)
        finally:
            connection.close()

    @staticmethod
    def _call(connection, method, path, body, expected) -> dict:
        connection.request(method, path, body=body, headers={"content-type": "application/json"})
        response = connection.getresponse()
        payload = json.loads(response.read() or b"{}")
        if response.status != expected:
            raise RuntimeError(f"{method} {path}: HTTP {response.status}: {payload}")
        return payload

    def counts(self) -> dict:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            return self._call(connection, "GET", f"/engines/{TENANT}/counts", None, 200)
        finally:
            connection.close()

    def served_edges(self) -> set:
        return set(self.runner.service.registry.get(TENANT).view.snapshot.edges)

    def close(self) -> None:
        self.runner.stop()


def _drive_load(
    served: _Served, seed: int, seconds: float, tracer: Optional[tracing.Tracer], loadgen_cpu: int
) -> tuple:
    """Run the load generator; returns its result and the host's per-slice refs."""
    settings = {
        "host": served.host,
        "port": served.port,
        "tenant": TENANT,
        "seed": seed,
        "vertices": SERVED_VERTICES,
        "edges": SERVED_EDGES,
        "producers": SERVED_PRODUCERS,
        "window": SERVED_WINDOW,
        "slice_windows": SERVED_SLICE_WINDOWS,
        "seconds": seconds,
        "min_slices": SERVED_WARMUP_SLICES + SERVED_COUNT_SLICES,
        "cpu": loadgen_cpu,
    }
    import repro.service.app as service_app

    patches = tracing.timed_phase_patches(tracer) if tracer is not None else None
    read_request = service_app.read_request
    if tracer is not None:
        service_app.read_request = tracing.traced_read_request(tracer, read_request)
    refs: List[float] = []
    traced: List[tuple] = []
    result = None
    process = subprocess.Popen(
        [sys.executable, str(HERE / "loadgen.py"), json.dumps(settings)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        for line in process.stdout:
            if line.startswith("ready "):
                if tracer is not None:
                    tracer.uninstall()
                    tracer.counting = False
                index = int(line.split()[1])
                refs.append(measure.reference_kernel())
                counting = SERVED_WARMUP_SLICES <= index < SERVED_WARMUP_SLICES + SERVED_COUNT_SLICES
                if tracer is not None and index >= SERVED_WARMUP_SLICES and (counting or index % 2 == 0):
                    tracer.counting = counting
                    tracer.install(patches)
                    traced.append((index, counting))
                process.stdin.write("go\n")
                process.stdin.flush()
            elif line.startswith("result "):
                if tracer is not None:
                    tracer.uninstall()
                refs.append(measure.reference_kernel())
                result = json.loads(line[len("result "):])
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.counting = False
        service_app.read_request = read_request
        process.stdin.close()
        try:
            process.wait(timeout=120)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    if result is None:
        raise RuntimeError(f"load generator exited with code {process.returncode} and no result")
    return result, refs, traced


def served_durable(
    seed: int, seconds: float, tracer: Optional[tracing.Tracer], workdir: Path, loadgen_cpu: int
) -> RunResult:
    from repro.durability import recover

    preload = []
    for producer in range(SERVED_PRODUCERS):
        generator = churn.served_producer(seed, producer, SERVED_VERTICES, SERVED_PRODUCERS, SERVED_EDGES)
        preload.extend(generator.initial(SERVED_EDGES // SERVED_PRODUCERS))
    preload_body = json.dumps({"updates": [{"u": u, "v": v, "kind": k} for k, u, v in preload]})
    attempt = iter(range(SETUPS))

    def build():
        wal_path = workdir / f"served-{next(attempt)}.wal"
        return lambda: _Served(wal_path, preload_body)

    setup = _timed_setups(build)
    served = setup[2]
    try:
        load, refs, traced = _drive_load(served, seed, seconds, tracer, loadgen_cpu)
        counts = served.counts()
        served_edges = served.served_edges()
        peak_rss_mb = measure.peak_rss_mb()
    finally:
        served.close()

    live_edges = [tuple(edge) for edge in load["live_edges"]]
    exact = _exact_count(live_edges)
    per_log = SERVED_RECOVER_UPDATES / counts["updates_processed"]
    recoveries, recoveries_raw = [], []
    recovered_ok = True
    recovery_tracer = tracing.Tracer() if tracer is not None else None
    for attempt_index in range(RECOVERIES):
        if recovery_tracer is not None and attempt_index == 0:
            recovery_tracer.install(tracing.recovery_patches(recovery_tracer))
        try:
            (engine, _), elapsed, elapsed_scaled = measure.timed(
                lambda: recover(served.wal_path, attach=False)
            )
        finally:
            if recovery_tracer is not None:
                recovery_tracer.uninstall()
        recovered_ok &= engine.count == counts["count"]
        engine.close()
        recoveries.append(elapsed_scaled * per_log)
        recoveries_raw.append(elapsed)
        del engine
        gc.collect()

    correct = (
        load["failed"] == 0
        and counts["count"] == exact
        and served_edges == set(live_edges)
        and counts["updates_processed"] == SERVED_EDGES + load["sent"]
        and recovered_ok
    )
    notes = {"count": counts["count"], "exact_count": exact, "edges": len(served_edges),
             "logged_updates": counts["updates_processed"]}
    log = measure.SliceLog()
    for (seconds_taken, sent), ref in zip(load["slices"], refs):
        log.add(seconds_taken, sent, ref)
    log.finish(refs[-1])
    timed_posts = [p for p in load["posts"] if p[1] >= SERVED_WARMUP_SLICES]
    timed_reads = [p for p in load["reads"] if p[1] >= SERVED_WARMUP_SLICES]
    post_ms = [sample[0] * log.scale(sample[1]) for sample in timed_posts]
    read_ms = [sample[0] * log.scale(sample[1]) for sample in timed_reads]
    traced_set = {index for index, _ in traced}
    untraced = [i for i in range(SERVED_WARMUP_SLICES, len(log.seconds)) if i not in traced_set]
    record = {"slices": [log.seconds, log.items, log.refs], "posts": load["posts"],
              "reads": load["reads"], "setup": setup[1], "recover": recoveries_raw}
    if tracer is None:
        metrics = _end_to_end(
            setup_s=statistics.median(setup[0]),
            updates_per_s=log.rate(untraced),
            apply_ms=post_ms,
            read_p50_ms=statistics.median(read_ms),
            recover_s=statistics.median(recoveries),
            peak_rss_mb=peak_rss_mb,
            tail_percentile=SERVED_TAIL_PERCENTILE,
        )
        notes.update(_raw_notes(
            setup[1], log.rate(untraced, scaled=False), [sample[0] for sample in timed_posts],
            [sample[0] for sample in timed_reads], recoveries_raw, log, SERVED_TAIL_PERCENTILE,
        ))
        return RunResult(correct, load["attempted"], load["failed"], metrics, dict(UNITS), notes, record)

    traced_posts = [sample for sample in timed_posts if sample[1] in traced_set]
    _record_outbound(tracer, load["posts"])
    covered = _window_self_ms(tracer, {sample[2] for sample in traced_posts})
    applied_ms = sum(sample[0] for sample in traced_posts)
    metrics, units = _per_layer(tracer, len(traced_posts), applied_ms, log)
    metrics["trace.coverage"] = covered / applied_ms if applied_ms else 0.0
    alternating = [index for index, counting in traced if not counting]
    metrics["trace.overhead"] = _overhead(log, untraced, alternating)
    recovery_ms = recovery_tracer.self_ms()
    metrics["durability.recovery.replay_ms"] = recovery_ms.get("durability.recovery.replay", 0.0) * per_log
    metrics["durability.recovery.apply_ms"] = recovery_ms.get("durability.recovery.apply", 0.0) * per_log
    return RunResult(correct, load["attempted"], load["failed"], metrics, units, notes)


def _record_outbound(tracer: tracing.Tracer, posts: list) -> None:
    """Add each traced window's way back, from the end of its response render
    to the client's receipt (both on the shared monotonic clock)."""
    rendered = {
        window: end for _, name, _, end, _, window in tracer.spans() if name == "service.http.render"
    }
    for _, _, tag, received in posts:
        if tag in rendered:
            tracer.leaf("service.http.outbound", rendered[tag], received, tag)


def _window_self_ms(tracer: tracing.Tracer, windows: set) -> float:
    """Self time of every span that served one of ``windows``, in ms."""
    spans = tracer.spans()
    children: Dict[int, float] = {}
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + (end - start)
    total = 0.0
    for span_id, _, start, end, _, window in spans:
        if window in windows:
            total += end - start - children.get(span_id, 0.0)
    return total * 1e3


WORKLOADS = {
    "update-stream": lambda seed, seconds, tracer, workdir, cpu: update_stream(seed, seconds, tracer),
    "batch-windows": lambda seed, seconds, tracer, workdir, cpu: batch_windows(seed, seconds, tracer),
    "served-durable": served_durable,
}


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path, loadgen_cpu: int) -> RunResult:
    """Run one workload; ``loadgen_cpu`` is where served-durable's client runs."""
    tracer = tracing.Tracer() if trace else None
    run_dir = workdir / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        result = WORKLOADS[workload](seed, seconds, tracer, run_dir, loadgen_cpu)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if tracer is not None:
        result.notes["spans"] = tracer.write_spans(workdir / f"spans-{workload}-seed{seed}.jsonl")
    return result
