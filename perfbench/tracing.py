"""In-memory span tracer and the layer boundaries the traced run wraps.

The program under test carries no spans of its own, so the traced run
installs wrappers from this file around public functions of each layer,
patched where their callers look them up (``repro.core.base.normalize_batch``
rather than only ``repro.graph.updates.normalize_batch``).  Only coarse
boundaries are wrapped: per-entry calls such as ``CountMatrix.add`` run
millions of times per run, and wrapping them would measure the wrapper.

A span is ``(id, name, start, end, parent, window)``; ``window`` is the apply
(in-process workloads) or request (served) the span serves.  Each thread keeps
its own span stack, so parents are exact on the engine's threads.  The served
event loop interleaves tasks, so its spans are recorded as leaves.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from typing import Callable, Dict, List, Optional

#: Request headers the load generator tags each request with: the window it
#: belongs to, and its ``time.perf_counter()`` at sending.  On Linux that
#: clock is CLOCK_MONOTONIC, shared by all processes, so the server side can
#: time the request's way in.
WINDOW_HEADER = "x-perfbench-window"
SENT_HEADER = "x-perfbench-sent"

#: The window a served connection task is handling (set from the header).
_request_window: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_request_window", default=None
)

_perf = time.perf_counter


class _ThreadState:
    __slots__ = ("stack", "window", "spans", "self_s", "counts")

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.window = None
        self.spans: List[tuple] = []
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}


class Tracer:
    """Records spans and counts from wrapped layer boundaries."""

    def __init__(self) -> None:
        self._ids = itertools.count()
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._installed: List[tuple] = []
        #: Whether count hooks record (the benchmark limits counts to a fixed
        #: window of the run so they repeat exactly for a seed).
        self.counting = False
        #: Served windows in flight: ``id(updates) -> (updates, window, entered)``.
        self.pending: Dict[int, tuple] = {}
        #: Served window -> when the writer finished it (read-view published).
        self.finished: Dict[object, float] = {}
        #: Whether the timed-phase wrappers are installed.
        self.active = False

    # -- recording ----------------------------------------------------------
    def state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def set_window(self, window) -> None:
        self.state().window = window

    def count(self, name: str, amount: int = 1) -> None:
        if self.counting:
            counts = self.state().counts
            counts[name] = counts.get(name, 0) + amount

    def leaf(self, name: str, start: float, end: float, window) -> None:
        """Record a span with no parent and no children."""
        state = self.state()
        state.self_s[name] = state.self_s.get(name, 0.0) + (end - start)
        state.spans.append((next(self._ids), name, start, end, None, window))

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span; ``after(result, args)`` feeds count hooks."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer.state()
            stack = state.stack
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                state.self_s[name] = state.self_s.get(name, 0.0) + duration - frame[1]
                window = state.window if state.window is not None else _request_window.get()
                state.spans.append((span_id, name, start, end, parent, window))
            if after is not None and tracer.counting:
                after(result, args)
            return result

        return traced

    # -- installation -------------------------------------------------------
    def install(self, patches: List[tuple]) -> None:
        """Apply ``(owner, attribute, make_wrapper)`` patches; ``make_wrapper``
        gets the original attribute exactly as stored on ``owner``."""
        for owner, attribute, make_wrapper in patches:
            original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            setattr(owner, attribute, make_wrapper(original))
            self._installed.append((owner, attribute, original))
        self.active = True

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)
        self.active = False

    # -- results ------------------------------------------------------------
    def self_ms(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for state in self._states:
            for name, seconds in state.self_s.items():
                totals[name] = totals.get(name, 0.0) + seconds * 1e3
        return totals

    def counts(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for state in self._states:
            for name, amount in state.counts.items():
                totals[name] = totals.get(name, 0) + amount
        return totals

    def spans(self) -> List[tuple]:
        merged = [span for state in self._states for span in state.spans]
        merged.sort()
        return merged

    def write_spans(self, path) -> int:
        """Write every span as one JSON array per line; returns the count."""
        spans = self.spans()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('["id","name","start","end","parent","window"]\n')
            for span in spans:
                handle.write(json.dumps(span) + "\n")
        return len(spans)


# ---------------------------------------------------------------------------
# Layer boundaries
# ---------------------------------------------------------------------------
def _method(tracer: Tracer, name: str, after: Optional[Callable] = None) -> Callable:
    def make(original):
        if isinstance(original, classmethod):
            return classmethod(tracer.wrap(name, original.__func__, after))
        return tracer.wrap(name, original, after)

    return make


def _engine_apply(tracer: Tracer, name: str) -> Callable:
    """``FourCycleEngine.apply``/``apply_batch``: on the served writer thread
    this is where a window starts, which ends its queue wait."""

    def make(original):
        inner = tracer.wrap(name, original)

        @functools.wraps(original)
        def traced(engine, updates, *args, **kwargs):
            entry = tracer.pending.get(id(updates))
            if entry is not None:
                tracer.set_window(entry[1])
                tracer.leaf("service.queue_wait", entry[2], _perf(), entry[1])
            return inner(engine, updates, *args, **kwargs)

        return traced

    return make


def _checkpoint(tracer: Tracer) -> Callable:
    """``FourCycleEngine.checkpoint``: on the served writer the read-view
    publish is the last step of a window."""

    def make(original):
        inner = tracer.wrap(
            "api.checkpoint", original, _counting(tracer, (("api.checkpoints", lambda r, a: 1),))
        )

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = inner(*args, **kwargs)
            window = tracer.state().window
            if window is not None:
                tracer.finished[window] = _perf()
            return result

        return traced

    return make


def _apply_updates(tracer: Tracer) -> Callable:
    """``ManagedEngine.apply_updates``: a served window enters the writer's
    queue here, and its result comes back here once the event loop runs the
    waiting request again (the reply wait)."""

    def make(original):
        @functools.wraps(original)
        async def traced(managed, updates):
            window = _request_window.get()
            tracer.pending[id(updates)] = (updates, window, _perf())
            try:
                result = await original(managed, updates)
            finally:
                tracer.pending.pop(id(updates), None)
            finished = tracer.finished.pop(window, None)
            if finished is not None:
                tracer.leaf("service.reply_wait", finished, _perf(), window)
            tracer.count("service.windows")
            return result

        return traced

    return make


class _FirstLineClock:
    """Reader proxy noting when a request's start line arrived, so parse time
    excludes the idle wait for the next request on a keep-alive socket."""

    __slots__ = ("_reader", "arrived")

    def __init__(self, reader) -> None:
        self._reader = reader
        self.arrived: Optional[float] = None

    async def readline(self):
        line = await self._reader.readline()
        if self.arrived is None:
            self.arrived = _perf()
        return line

    async def readexactly(self, size: int):
        return await self._reader.readexactly(size)


def traced_read_request(tracer: Tracer, original: Callable) -> Callable:
    """``repro.service.app.read_request`` for a whole traced served run.

    A keep-alive connection is already waiting inside ``read_request`` when
    tracing switches on at a slice boundary, so this wrapper stays installed
    throughout: it tags every request's window and records the parse and
    inbound spans only while the timed-phase wrappers are active.
    """

    @functools.wraps(original)
    async def traced(reader):
        clock = _FirstLineClock(reader)
        request = await original(clock)
        if request is not None:
            window = request.headers.get(WINDOW_HEADER)
            _request_window.set(window)
            if tracer.active:
                tracer.leaf("service.http.parse", clock.arrived, _perf(), window)
                sent = request.headers.get(SENT_HEADER)
                if sent is not None:
                    tracer.leaf("service.http.inbound", float(sent), clock.arrived, window)
        return request

    return traced


def _replay_wal(tracer: Tracer) -> Callable:
    """``replay_wal`` is a generator: time each step, not the call."""

    def make(original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            step = tracer.wrap("durability.recovery.replay", original(*args, **kwargs).__next__)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item

        return traced

    return make


def _counting(tracer: Tracer, pairs) -> Callable:
    def after(result, args):
        for name, value_of in pairs:
            tracer.count(name, value_of(result, args))

    return after


def timed_phase_patches(tracer: Tracer) -> List[tuple]:
    """Every layer boundary wrapped during a traced timed phase.

    The same set is installed on every workload, so a layer a workload
    bypasses reports zero.
    """
    import repro.core.base as core_base
    import repro.graph.dynamic_graph as dynamic_graph
    import repro.service.app as service_app
    from repro.api.engine import FourCycleEngine
    from repro.core.assadi_shah import AssadiShahThreePathOracle
    from repro.core.oracles import ThreePathOracle
    from repro.durability.wal import WriteAheadLog
    from repro.graph.dynamic_graph import DynamicGraph
    from repro.matmul.engine import CountMatrix
    from repro.matmul.scheduler import PhaseScheduler, ProductDispatcher
    from repro.matmul.sharding import ShardExecutor
    from repro.service.registry import ManagedEngine

    normalize = _method(
        tracer,
        "graph.normalize",
        _counting(
            tracer,
            (("normalize.cancelled", lambda batch, _: batch.cancelled),
             ("normalize.raw", lambda batch, _: batch.raw_size)),
        ),
    )
    csr_export = _method(tracer, "graph.csr_export")
    rebuild = _method(tracer, "core.rebuild")
    core_apply = _method(tracer, "core.apply")
    wal_append = _method(tracer, "durability.wal.append")
    return [
        (FourCycleEngine, "apply", _engine_apply(tracer, "api.apply")),
        (FourCycleEngine, "apply_batch", _engine_apply(tracer, "api.apply")),
        (FourCycleEngine, "checkpoint", _checkpoint(tracer)),
        (core_base.DynamicFourCycleCounter, "apply", core_apply),
        (core_base.DynamicFourCycleCounter, "apply_batch", core_apply),
        (AssadiShahThreePathOracle, "count_three_paths", _method(tracer, "core.oracle.query")),
        (ThreePathOracle, "update", _method(tracer, "core.oracle.maintain")),
        (AssadiShahThreePathOracle, "rebuild_from_mirrored_csr", rebuild),
        (AssadiShahThreePathOracle, "rebuild_from_mirrored_graph", rebuild),
        (PhaseScheduler, "work", _method(tracer, "matmul.scheduler.work")),
        (PhaseScheduler, "finish_all", _method(tracer, "matmul.scheduler.flush")),
        (ProductDispatcher, "decide", _method(
            tracer, "matmul.dispatch",
            _counting(tracer, (("dispatch.total", lambda r, a: 1),
                               ("dispatch.csr", lambda r, a: int(r.backend == "csr")))))),
        (ShardExecutor, "spgemm", _method(
            tracer, "kernels.spgemm",
            _counting(tracer, (("kernels.spgemm_work", lambda r, a: int(r[1])),)))),
        (CountMatrix, "from_csr", _method(tracer, "matmul.from_csr")),
        (DynamicGraph, "insert_edge", _method(tracer, "graph.mutate")),
        (DynamicGraph, "delete_edge", _method(tracer, "graph.mutate")),
        (DynamicGraph, "apply_batch", csr_export),
        (DynamicGraph, "csr_matrix", csr_export),
        (DynamicGraph, "csr_view", csr_export),
        (core_base, "normalize_batch", normalize),
        (dynamic_graph, "normalize_batch", normalize),
        (WriteAheadLog, "append", _method(
            tracer, "durability.wal.append",
            _counting(tracer, (("wal.records", lambda r, a: 1),)))),
        (WriteAheadLog, "append_batch", wal_append),
        (WriteAheadLog, "commit", _method(
            tracer, "durability.wal.commit",
            _counting(tracer, (("wal.commits", lambda r, a: 1),)))),
        (ManagedEngine, "apply_updates", _apply_updates(tracer)),
        (service_app, "render_response", _method(tracer, "service.http.render")),
    ]


def recovery_patches(tracer: Tracer) -> List[tuple]:
    """The boundaries wrapped while a traced run recovers from the WAL."""
    import repro.durability.recovery as recovery
    import repro.durability.wal as wal
    from repro.api.engine import FourCycleEngine

    replay_apply = _method(tracer, "durability.recovery.apply")
    return [
        (recovery, "replay_wal", _replay_wal(tracer)),
        (wal, "decode_wal_record", _method(tracer, "durability.recovery.replay")),
        (FourCycleEngine, "apply", replay_apply),
        (FourCycleEngine, "apply_batch", replay_apply),
    ]


#: Per-layer time metrics: reported name -> span name.  Values are the mean
#: self time per apply (per update, window or request) of the traced slices.
SPAN_METRICS = {
    "core.oracle.query_ms": "core.oracle.query",
    "core.oracle.maintain_ms": "core.oracle.maintain",
    "graph.mutate_ms": "graph.mutate",
    "matmul.scheduler.work_ms": "matmul.scheduler.work",
    "matmul.scheduler.flush_ms": "matmul.scheduler.flush",
    "graph.normalize_ms": "graph.normalize",
    "graph.csr_export_ms": "graph.csr_export",
    "core.rebuild_ms": "core.rebuild",
    "matmul.from_csr_ms": "matmul.from_csr",
    "kernels.spgemm_ms": "kernels.spgemm",
    "service.http.inbound_ms": "service.http.inbound",
    "service.http.parse_ms": "service.http.parse",
    "service.http.render_ms": "service.http.render",
    "service.http.outbound_ms": "service.http.outbound",
    "service.queue_wait_ms": "service.queue_wait",
    "service.reply_wait_ms": "service.reply_wait",
    "api.checkpoint_ms": "api.checkpoint",
    "api.apply_ms": "api.apply",
    "core.apply_ms": "core.apply",
    "durability.wal.append_ms": "durability.wal.append",
    "durability.wal.commit_ms": "durability.wal.commit",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def count_metrics(counts: Dict[str, int]) -> Dict[str, float]:
    """Per-layer count metrics from the wrapped boundaries' count hooks."""
    return {
        "graph.cancelled_ratio": _ratio(counts.get("normalize.cancelled", 0), counts.get("normalize.raw", 0)),
        "kernels.spgemm_work": counts.get("kernels.spgemm_work", 0),
        "matmul.dispatch.csr_share": _ratio(counts.get("dispatch.csr", 0), counts.get("dispatch.total", 0)),
        "service.publishes_per_window": _ratio(counts.get("api.checkpoints", 0), counts.get("service.windows", 0)),
        "durability.wal.records_per_commit": _ratio(counts.get("wal.records", 0), counts.get("wal.commits", 0)),
    }
