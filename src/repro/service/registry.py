"""Multi-tenant registry of managed engines and the writer/reader model.

The service's concurrency contract lives here, not in the HTTP layer:

* **one writer per engine** — every mutation (update batches, consistency
  recounts, WAL compaction) is a command on that tenant's
  :class:`asyncio.Queue`, drained by a single writer task that executes each
  command on the tenant's *own single-thread executor*.  The engine is only
  ever mutated from that thread, so the counters need no locks of their own,
  and a long ``apply_batch`` never stalls the event loop — other tenants and
  every scalar read keep being served;
* **views are O(1) to publish** — after each successful command the writer
  publishes an :class:`EngineView` of scalars read off the engine (count,
  updates processed, edge and vertex counts, durable seq).  Swapping one
  attribute reference is atomic, so ``/counts`` and tenant summaries are exact
  at some batch boundary and never wait on the writer.  Nothing is copied per
  command, so ``checkpoint`` events mark only real checkpoints (WAL snapshots,
  compaction, explicit ``checkpoint()`` calls);
* **full-state reads are built at a batch boundary** — a view's
  :attr:`EngineView.snapshot`, the degree table and one vertex's degree are
  read off the live engine on demand through :meth:`ManagedEngine.read_at`,
  under a per-tenant lock the writer holds for each command and its publish.
  Such a read may wait for the one command in flight (so it runs on a worker
  thread, never on the event loop), and it refuses with
  :class:`EngineFailedError` once the graph has moved past its view, so it is
  exact at a batch boundary and never serves a graph a failed command tore;
* **fail-stop tenants stay recoverable** — a durability-class failure (a
  mid-batch counter error, an injected crash, WAL corruption) marks the tenant
  failed and closes its engine, releasing the WAL fd; the log on disk is the
  durable truth and re-creating the tenant (or restarting the service) runs
  :func:`repro.durability.recover` against it.  A plain *rejected* batch (a
  duplicate insert, a missing-edge delete) on a non-durable tenant is just a
  failed request: validation happens before mutation, so the engine is intact
  and stays healthy.
"""

from __future__ import annotations

import asyncio
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.api.config import EngineConfig
from repro.api.engine import EngineEvent, EngineSnapshot, FourCycleEngine
from repro.durability.recovery import recover as durability_recover
from repro.exceptions import (
    ConfigurationError,
    CounterStateError,
    DurabilityError,
    FaultInjectionError,
    RecoverableEngineError,
    ReproError,
    ServiceError,
)
from repro.faults.injector import FaultInjector
from repro.graph.updates import EdgeUpdate

#: Tenant names are path segments; keep them URL- and filename-safe.
_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: Failure classes that fail-stop a tenant (state possibly diverged from the
#: log, or the log itself is suspect) as opposed to failing one request.
_FATAL_ERRORS = (
    RecoverableEngineError,
    FaultInjectionError,
    DurabilityError,
    CounterStateError,
)

#: ``recover`` modes accepted at tenant creation.
RECOVER_MODES = ("auto", "always", "never")

#: Synthetic event kind pushed to subscribers when a tenant shuts down.
EVENT_ENGINE_CLOSED = "engine-closed"


class UnknownEngineError(ServiceError):
    """No tenant registered under the requested name (HTTP 404)."""


class DuplicateEngineError(ServiceError):
    """A tenant with the requested name already exists (HTTP 409)."""


class EngineFailedError(ServiceError):
    """The tenant fail-stopped and awaits recovery, or a full-state read's
    view is no longer the engine's state (HTTP 503)."""


class EngineView:
    """The scalars of one batch boundary, published by the writer in O(1).

    Full state is not copied at publish time: :attr:`snapshot` and the
    per-vertex reads are built from the live engine on demand, through
    :meth:`ManagedEngine.read_at`, which holds the engine at this view's
    boundary or refuses.  The snapshot is built at most once per view and is
    freed with it.
    """

    __slots__ = (
        "count", "updates_processed", "num_edges", "num_vertices", "last_durable_seq",
        "batches_applied", "version", "_managed", "_snapshot", "_degrees",
    )

    def __init__(self, managed: "ManagedEngine", batches_applied: int) -> None:
        engine = managed.engine
        self.count = engine.count
        self.updates_processed = engine.updates_processed
        self.num_edges = engine.num_edges
        self.num_vertices = engine.num_vertices
        self.last_durable_seq = engine.last_durable_seq
        self.batches_applied = batches_applied
        #: The graph's mutation counter at this boundary (see ``read_at``).
        self.version = engine.graph.version
        self._managed = managed
        self._snapshot: Optional[EngineSnapshot] = None
        self._degrees: Optional[Dict[object, int]] = None

    @property
    def snapshot(self) -> EngineSnapshot:
        """The engine state at this boundary, copied on first use.

        Raises :class:`EngineFailedError` when the engine has moved past this
        view; see :meth:`ManagedEngine.read_at` for where it may be called.
        """
        if self._snapshot is None:
            self._managed.read_at(self, EngineView.load)
        return self._snapshot

    def load(self, engine: FourCycleEngine) -> "EngineView":
        """Copy ``engine``'s graph into this view's snapshot (once); a
        :meth:`ManagedEngine.read_at` callback.  Returns the view."""
        if self._snapshot is None:
            graph = engine.graph
            self._snapshot = EngineSnapshot(
                config=engine.config.to_dict(),
                count=self.count,
                updates_processed=self.updates_processed,
                vertices=graph.vertices(),
                edges=tuple(graph.edges()),
                wal_seq=self.last_durable_seq if engine.wal is not None else None,
            )
        return self

    def degrees(self) -> Dict[object, int]:
        """Vertex -> degree over the view's edge set (isolated vertices 0)."""
        if self._degrees is None:
            degrees: Dict[object, int] = {vertex: 0 for vertex in self.snapshot.vertices}
            for u, v in self.snapshot.edges:
                degrees[u] = degrees.get(u, 0) + 1
                degrees[v] = degrees.get(v, 0) + 1
            self._degrees = degrees
        return self._degrees

    def vertex_stats(
        self, engine: FourCycleEngine, label: str
    ) -> Optional[Dict[str, object]]:
        """One vertex's degree at this boundary, ``None`` when ``label`` names
        no vertex; a :meth:`ManagedEngine.read_at` callback (no snapshot).

        Tries the raw string, then the integer reading (vertex labels from the
        synthetic workloads are ints).  Tuple-labelled vertices (the layered
        encoding) are reachable through :meth:`top_degrees`, not by path segment.
        """
        graph = engine.graph
        vertex = label
        if not graph.has_vertex(vertex):
            try:
                vertex = int(label)
            except ValueError:
                return None
            if not graph.has_vertex(vertex):
                return None
        return {
            "vertex": vertex,
            "degree": graph.degree(vertex),
            "as_of_updates": self.updates_processed,
        }

    def top_degrees(self, limit: int) -> List[Dict[str, object]]:
        """The ``limit`` highest-degree vertices (stable order: degree desc,
        then label repr, so repeated reads of one view agree)."""
        ranked = sorted(self.degrees().items(), key=lambda item: (-item[1], repr(item[0])))
        return [{"vertex": vertex, "degree": degree} for vertex, degree in ranked[:limit]]

    def counts_payload(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "updates_processed": self.updates_processed,
            "num_edges": self.num_edges,
            "num_vertices": self.num_vertices,
            "last_durable_seq": self.last_durable_seq,
            "batches_applied": self.batches_applied,
        }


def _jsonable(value):
    """Flatten one event-payload value into something JSON-serializable."""
    if isinstance(value, EdgeUpdate):
        from repro.io.serialization import edge_update_to_dict

        return edge_update_to_dict(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return str(value)


def build_engine(
    config: EngineConfig,
    recover: str = "auto",
    fault_injector: Optional[FaultInjector] = None,
) -> Tuple[FourCycleEngine, Optional[dict]]:
    """Construct (or recover) the engine behind one tenant.

    ``recover`` decides what an existing non-empty WAL at ``config.wal_path``
    means: ``"auto"`` (the always-on default) resumes it through
    :func:`repro.durability.recover` — a restarted service picks up every
    durable tenant exactly where it crashed; ``"always"`` demands history and
    errors when there is none; ``"never"`` demands a fresh log (the engine
    itself refuses to append to another run's history).  Returns the engine
    plus the recovery report dict (``None`` for a fresh engine).
    """
    if recover not in RECOVER_MODES:
        raise ConfigurationError(
            f"recover must be one of {', '.join(RECOVER_MODES)}, got {recover!r}"
        )
    wal = Path(config.wal_path) if config.wal_path is not None else None
    has_history = wal is not None and wal.exists() and wal.stat().st_size > 0
    if recover == "always" and not has_history:
        raise ConfigurationError(
            f"recover='always' but {wal if wal is not None else 'no wal_path'} "
            f"holds no records to recover"
        )
    if has_history and recover != "never":
        engine, report = durability_recover(
            config.wal_path, config=config, fault_injector=fault_injector
        )
        return engine, report.to_dict()
    return FourCycleEngine(config, fault_injector=fault_injector), None


class ManagedEngine:
    """One tenant: an engine, its writer task, and its published read view.

    ``view`` is the latest :class:`EngineView`; the writer replaces it (one
    attribute store) after every successful command.
    """

    def __init__(
        self,
        name: str,
        engine: FourCycleEngine,
        loop: asyncio.AbstractEventLoop,
        recovery: Optional[dict] = None,
    ) -> None:
        self.name = name
        self.engine = engine
        self.recovery = recovery
        self._loop = loop
        self._queue: asyncio.Queue = asyncio.Queue()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"engine-writer-{name}"
        )
        self._failure: Optional[BaseException] = None
        self._closed = False
        self._subscribers: List[asyncio.Queue] = []
        #: Held by the writer for each command and its publish, and by
        #: :meth:`read_at` for each full-state read.
        self._lock = threading.Lock()
        self.view = EngineView(self, 0)
        self._unsubscribe = engine.subscribe(self._bridge_event)
        self._writer = loop.create_task(self._writer_loop(), name=f"writer-{name}")

    # -- introspection -------------------------------------------------------
    @property
    def failed(self) -> Optional[str]:
        return None if self._failure is None else str(self._failure)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    def summary(self) -> Dict[str, object]:
        view = self.view
        return {
            "engine": self.name,
            "counter": self.engine.config.counter,
            "config": self.engine.config.to_dict(),
            "durable": self.engine.config.wal_path is not None,
            "failed": self.failed,
            "queue_depth": self.queue_depth,
            "subscribers": len(self._subscribers),
            "recovered": self.recovery is not None,
            **view.counts_payload(),
        }

    # -- the writer ----------------------------------------------------------
    async def _writer_loop(self) -> None:
        while True:
            command = await self._queue.get()
            if command is None:
                return
            operation, future = command
            if future.done():
                continue
            if self._failure is not None:
                future.set_exception(self._failure_error())
                continue
            try:
                result = await self._loop.run_in_executor(
                    self._executor, self._execute, operation
                )
            except ReproError as error:
                if isinstance(error, _FATAL_ERRORS):
                    self._fail(error)
                future.set_exception(error)
            # repro-lint: broad-except-ok a buggy command must fail its own
            # request (and fail-stop the tenant, since the engine state is
            # unknown), never kill the writer task and hang every later caller
            except Exception as error:
                self._fail(error)
                future.set_exception(error)
            else:
                future.set_result(result)

    def _execute(
        self, operation: Callable[[FourCycleEngine], object]
    ) -> Tuple[object, EngineView]:
        """Run one command on the engine and publish its view; returns both.

        Runs on the tenant's writer thread — the only place the live engine
        is ever mutated after construction — and holds the tenant lock
        throughout, so :meth:`read_at` sees the engine only at a published
        boundary.
        """
        with self._lock:
            result = operation(self.engine)
            view = self.view = EngineView(self, self.view.batches_applied + 1)
        return result, view

    def read_at(
        self,
        view: Optional[EngineView],
        read: Callable[[EngineView, FourCycleEngine], object],
    ):
        """Return ``read(view, engine)`` with the engine at ``view``'s boundary.

        ``view=None`` reads at the latest published view.  The tenant lock is
        held for the read, and the writer holds it for each command, so this
        may wait for the one command in flight: call it from a worker thread,
        never from the event loop, and never from the writer thread (it would
        deadlock).  Raises :class:`EngineFailedError` when the graph has moved
        past the view — newer commands ran since, or a failed command tore
        it — so every full-state read is exact at a batch boundary.
        """
        with self._lock:
            current = self.view if view is None else view
            if self.engine.graph.version != current.version:
                raise EngineFailedError(
                    f"engine {self.name!r} has moved past its view at "
                    f"{current.updates_processed} updates (newer commands ran, or "
                    f"a failed command left the graph mid-batch)"
                )
            return read(current, self.engine)

    def _fail(self, error: BaseException) -> None:
        """Fail-stop: remember the cause and release the WAL fd so recovery
        (in this process or the next) can reopen the log."""
        self._failure = error
        self.engine.close()

    def _failure_error(self) -> EngineFailedError:
        return EngineFailedError(
            f"engine {self.name!r} fail-stopped "
            f"({type(self._failure).__name__}: {self._failure}); its write-ahead "
            f"log is the durable truth — re-create the tenant (or restart the "
            f"service) to recover"
        )

    async def _submit(self, operation: Callable[[FourCycleEngine], object]):
        if self._closed:
            raise UnknownEngineError(f"engine {self.name!r} is shut down")
        if self._failure is not None:
            raise self._failure_error()
        future = self._loop.create_future()
        await self._queue.put((operation, future))
        return await future

    # -- commands ------------------------------------------------------------
    # Each command answers from the view it published itself: by the time the
    # caller resumes, the writer may already have published the next one.
    async def apply_updates(self, updates: List[EdgeUpdate]) -> Dict[str, object]:
        """Apply one window through the writer; resolves at the batch boundary."""
        if not updates:
            raise ConfigurationError("update batch must not be empty")
        if len(updates) == 1:
            _, view = await self._submit(lambda engine: engine.apply(updates[0]))
        else:
            _, view = await self._submit(lambda engine: engine.apply_batch(updates))
        return {
            "engine": self.name,
            "applied": len(updates),
            "count": view.count,
            "updates_processed": view.updates_processed,
            "last_durable_seq": view.last_durable_seq,
        }

    async def check_consistency(self) -> Dict[str, object]:
        """A from-scratch recount on the live counter, serialized with writes."""
        consistent, view = await self._submit(lambda engine: engine.is_consistent())
        return {
            "engine": self.name,
            "consistent": bool(consistent),
            "count": view.count,
            "updates_processed": view.updates_processed,
        }

    async def compact(self) -> Dict[str, object]:
        remaining, view = await self._submit(lambda engine: engine.compact_wal())
        return {
            "engine": self.name,
            "remaining_records": remaining,
            "last_durable_seq": view.last_durable_seq,
        }

    # -- events --------------------------------------------------------------
    def _bridge_event(self, event: EngineEvent) -> None:
        """Engine subscriber callback; runs on whichever thread applied the
        update (the writer thread in steady state), so it only marshals the
        event onto the loop — it never touches subscriber queues directly."""
        payload = {
            "engine": self.name,
            "kind": event.kind,
            "count": event.count,
            "updates_processed": event.updates_processed,
            "num_edges": event.num_edges,
            "payload": _jsonable(event.payload),
        }
        try:
            self._loop.call_soon_threadsafe(self._fan_out, payload)
        except RuntimeError:
            pass  # the loop is closing; shutdown events are best-effort

    def _fan_out(self, payload: Optional[dict]) -> None:
        for queue in list(self._subscribers):
            if queue.full():
                # Drop the oldest event rather than let one slow SSE consumer
                # back-pressure the writer (readers can resync from /counts).
                queue.get_nowait()
            queue.put_nowait(payload)

    def subscribe_queue(self, maxsize: int = 256) -> asyncio.Queue:
        queue: asyncio.Queue = asyncio.Queue(maxsize=max(2, maxsize))
        self._subscribers.append(queue)
        return queue

    def unsubscribe_queue(self, queue: asyncio.Queue) -> None:
        try:
            self._subscribers.remove(queue)
        except ValueError:
            pass

    # -- shutdown ------------------------------------------------------------
    async def close(self) -> None:
        """Drain pending commands, close the engine, release the writer."""
        if self._closed:
            return
        self._closed = True
        await self._queue.put(None)
        await self._writer
        self._unsubscribe()
        if self._failure is None:
            await self._loop.run_in_executor(self._executor, self.engine.close)
        self._executor.shutdown(wait=True)
        self._fan_out(
            {
                "engine": self.name,
                "kind": EVENT_ENGINE_CLOSED,
                **self.view.counts_payload(),
            }
        )
        self._fan_out(None)  # sentinel: ends every open event stream
        self._subscribers.clear()


class EngineRegistry:
    """The named, multi-tenant engine collection behind the HTTP service."""

    def __init__(self) -> None:
        self._tenants: Dict[str, ManagedEngine] = {}

    def __len__(self) -> int:
        return len(self._tenants)

    def names(self) -> List[str]:
        return sorted(self._tenants)

    def get(self, name: str) -> ManagedEngine:
        managed = self._tenants.get(name)
        if managed is None:
            raise UnknownEngineError(
                f"no engine named {name!r}; registered: "
                f"{', '.join(self.names()) or '(none)'}"
            )
        return managed

    def summaries(self) -> List[Dict[str, object]]:
        return [self._tenants[name].summary() for name in self.names()]

    async def create(
        self,
        name: str,
        config,
        recover: str = "auto",
        fault_injector: Optional[FaultInjector] = None,
    ) -> ManagedEngine:
        """Register a new named engine from a config (dict or EngineConfig).

        Engine construction — which may be a full WAL recovery replay — runs
        on the default executor so a large tenant coming up never blocks the
        event loop for the tenants already serving.
        """
        if not isinstance(name, str) or not _NAME_PATTERN.match(name):
            raise ConfigurationError(
                f"invalid engine name {name!r}; expected 1-64 characters of "
                f"[A-Za-z0-9._-] starting with a letter or digit"
            )
        if name in self._tenants:
            raise DuplicateEngineError(f"an engine named {name!r} already exists")
        if not isinstance(config, EngineConfig):
            config = EngineConfig.from_dict(config)
        loop = asyncio.get_running_loop()
        engine, recovery = await loop.run_in_executor(
            None, build_engine, config, recover, fault_injector
        )
        if name in self._tenants:  # a concurrent create raced us while building
            engine.close()
            raise DuplicateEngineError(f"an engine named {name!r} already exists")
        managed = ManagedEngine(name, engine, loop, recovery=recovery)
        self._tenants[name] = managed
        return managed

    async def delete(self, name: str) -> Dict[str, object]:
        managed = self.get(name)
        del self._tenants[name]
        summary = managed.summary()
        await managed.close()
        return summary

    async def close(self) -> None:
        """Shut every tenant down (service stop); WALs stay on disk."""
        for name in self.names():
            managed = self._tenants.pop(name)
            await managed.close()
