"""The always-on HTTP application: routes, connection loop, thread harness.

:class:`ReproService` binds an :class:`~repro.service.registry.EngineRegistry`
to a TCP port and speaks the JSON protocol from :mod:`repro.service.http`:

========  ===================================  =======================================
method    path                                 meaning
========  ===================================  =======================================
GET       ``/health``                          liveness + tenant census
GET       ``/engines``                         summaries of every tenant
POST      ``/engines``                         create a tenant (``name``, ``config``,
                                               optional ``recover`` mode)
GET       ``/engines/<name>``                  one tenant's summary
DELETE    ``/engines/<name>``                  shut the tenant down (WAL stays)
POST      ``/engines/<name>/updates``          apply a batch (``updates`` edge dicts
                                               *or* ``tuples`` layered dicts)
GET       ``/engines/<name>/counts``           counts from the published read view
GET       ``/engines/<name>/vertices``         top-degree table (``?top=N``)
GET       ``/engines/<name>/vertices/<v>``     one vertex's stats
GET       ``/engines/<name>/consistency``      serialized from-scratch recount
POST      ``/engines/<name>/compact``          snapshot + WAL compaction
GET       ``/engines/<name>/events``           SSE stream of engine events
                                               (``?kinds=a,b`` filter, ``?limit=N``)
========  ===================================  =======================================

Mutations resolve when the tenant's writer task commits them, and answer
from the :class:`~repro.service.registry.EngineView` that command published.
``/counts`` and the tenant summaries serve the last published view's scalars
and never wait on the writer.  The vertex reads are built from the live
engine at a batch boundary through
:meth:`~repro.service.registry.ManagedEngine.read_at`; they run on the default
executor, since they may wait for the one command in flight, and answer 503
rather than read a graph a failed command left mid-batch.

:class:`ServiceRunner` runs the whole service on a dedicated event-loop thread
so synchronous callers — pytest, the CLI, the E15 load harness's reference
checks — can drive it with plain blocking calls.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Dict, List, Optional, Tuple

from repro.api.engine import EVENT_KINDS
from repro.api.sources import TupleFeedSource
from repro.exceptions import (
    ConfigurationError,
    CounterStateError,
    DurabilityError,
    FaultInjectionError,
    RecoverableEngineError,
    ReproError,
)
from repro.graph.updates import EdgeUpdate
from repro.io.serialization import edge_update_from_dict, layered_update_from_dict
from repro.service.http import (
    HttpError,
    HttpRequest,
    error_response,
    format_sse_event,
    parse_event_kinds,
    read_request,
    render_response,
    sse_preamble,
)
from repro.service.registry import (
    EVENT_ENGINE_CLOSED,
    DuplicateEngineError,
    EngineFailedError,
    EngineRegistry,
    EngineView,
    ManagedEngine,
    UnknownEngineError,
)

#: Event kinds a stream subscriber may filter on.
STREAMABLE_EVENT_KINDS = tuple(EVENT_KINDS) + (EVENT_ENGINE_CLOSED,)

#: Hard cap on one ingestion request (the load harness sends far smaller
#: windows; a bigger batch should be split client-side, not buffered here).
MAX_BATCH_UPDATES = 100_000


async def _off_loop(read, *args):
    """Run a blocking tenant read on the default executor: it may wait on the
    tenant lock for the command in flight, which must not stall the loop."""
    return await asyncio.get_running_loop().run_in_executor(None, read, *args)


def _status_for(error: ReproError) -> int:
    """Map a library error onto the HTTP status the protocol promises."""
    if isinstance(error, HttpError):
        return error.status
    if isinstance(error, UnknownEngineError):
        return 404
    if isinstance(error, DuplicateEngineError):
        return 409
    if isinstance(
        error,
        (
            EngineFailedError,
            RecoverableEngineError,
            FaultInjectionError,
            DurabilityError,
            CounterStateError,
        ),
    ):
        return 503  # the tenant fail-stopped; recovery, not a retry, fixes it
    return 400


class ReproService:
    """One listening socket over one multi-tenant engine registry."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = port  # rebound to the kernel-chosen port after start()
        self.registry = EngineRegistry()
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: set = set()
        self._stopped: Optional[asyncio.Event] = None
        self._tuple_codec = TupleFeedSource(())

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        if self._server is not None:
            raise ConfigurationError("service already started")
        self._stopped = asyncio.Event()
        # The E15 load harness opens a connection per request from thousands
        # of concurrent clients; the default listen backlog (100) would drop
        # the connect burst before the loop ever saw it.
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, backlog=4096
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.host, self.port

    async def stop(self) -> None:
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        # Closing the registry pushes the None sentinel through every open
        # event stream, so SSE handlers finish before we drop their sockets.
        await self.registry.close()
        for writer in list(self._writers):
            writer.close()
        self._writers.clear()
        if self._stopped is not None:
            self._stopped.set()

    async def serve_forever(self) -> None:
        """Start (if needed) and block until :meth:`stop` or cancellation."""
        if self._server is None:
            await self.start()
        assert self._stopped is not None
        try:
            await self._stopped.wait()
        except asyncio.CancelledError:
            await self.stop()
            raise

    # -- connection loop -----------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as error:
                    # Framing is broken, so request boundaries are lost:
                    # answer once and drop the connection.
                    writer.write(error_response(error.status, str(error)))
                    await writer.drain()
                    break
                if request is None:
                    break
                if request.segments[2:3] == ("events",) and request.method == "GET":
                    await self._serve_events(request, writer)
                    break  # an event stream ends with its connection
                status, payload = await self._dispatch(request)
                keep_alive = request.keep_alive
                writer.write(render_response(status, payload, keep_alive=keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, TimeoutError):
            pass  # the peer vanished; nothing to answer
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: HttpRequest) -> Tuple[int, dict]:
        try:
            return await self._route(request)
        except ReproError as error:
            status = _status_for(error)
            return status, {
                "error": str(error),
                "status": status,
                "type": type(error).__name__,
            }
        # repro-lint: broad-except-ok the connection loop must keep serving
        # the other tenants when one handler trips an unexpected bug; the
        # failure is reported to the one affected client as a 500.
        except Exception as error:
            return 500, {
                "error": f"internal error: {type(error).__name__}: {error}",
                "status": 500,
                "type": type(error).__name__,
            }

    # -- routing -------------------------------------------------------------
    async def _route(self, request: HttpRequest) -> Tuple[int, dict]:
        segments = request.segments
        if segments == ("health",):
            if request.method != "GET":
                raise HttpError(405, "health supports GET only")
            return 200, {
                "status": "ok",
                "engines": len(self.registry),
                "names": self.registry.names(),
            }
        if segments == ("engines",):
            if request.method == "GET":
                return 200, {"engines": self.registry.summaries()}
            if request.method == "POST":
                return await self._create_engine(request)
            raise HttpError(405, "engines supports GET and POST")
        if segments[:1] == ("engines",) and len(segments) >= 2:
            return await self._route_tenant(request, segments[1], segments[2:])
        raise HttpError(404, f"no route for {request.path!r}")

    async def _route_tenant(
        self, request: HttpRequest, name: str, rest: Tuple[str, ...]
    ) -> Tuple[int, dict]:
        managed = self.registry.get(name)
        if rest == ():
            if request.method == "GET":
                return 200, managed.summary()
            if request.method == "DELETE":
                summary = await self.registry.delete(name)
                return 200, {"deleted": name, "final": summary}
            raise HttpError(405, "an engine supports GET and DELETE")
        if rest == ("updates",):
            if request.method != "POST":
                raise HttpError(405, "updates supports POST only")
            updates = self._decode_updates(request.json())
            return 200, await managed.apply_updates(updates)
        if rest == ("counts",):
            if request.method != "GET":
                raise HttpError(405, "counts supports GET only")
            return 200, {"engine": name, **managed.view.counts_payload()}
        if rest == ("consistency",):
            if request.method != "GET":
                raise HttpError(405, "consistency supports GET only")
            return 200, await managed.check_consistency()
        if rest == ("compact",):
            if request.method != "POST":
                raise HttpError(405, "compact supports POST only")
            return 200, await managed.compact()
        if rest == ("vertices",):
            if request.method != "GET":
                raise HttpError(405, "vertices supports GET only")
            return 200, await self._vertices_payload(name, managed, request.query)
        if rest[:1] == ("vertices",) and len(rest) == 2:
            if request.method != "GET":
                raise HttpError(405, "vertex stats supports GET only")
            return 200, await self._vertex_payload(name, managed, rest[1])
        raise HttpError(404, f"no route for {request.path!r}")

    # -- handlers ------------------------------------------------------------
    async def _create_engine(self, request: HttpRequest) -> Tuple[int, dict]:
        payload = request.json()
        name = payload.get("name")
        if not isinstance(name, str):
            raise HttpError(400, "create needs a string 'name'")
        config = payload.get("config", {})
        if not isinstance(config, dict):
            raise HttpError(400, "'config' must be a JSON object when given")
        recover = payload.get("recover", "auto")
        if not isinstance(recover, str):
            raise HttpError(400, "'recover' must be a string when given")
        managed = await self.registry.create(name, config, recover=recover)
        return 201, managed.summary()

    def _decode_updates(self, payload: dict) -> List[EdgeUpdate]:
        has_updates = "updates" in payload
        has_tuples = "tuples" in payload
        if has_updates == has_tuples:
            raise HttpError(
                400, "the body must carry exactly one of 'updates' or 'tuples'"
            )
        raw = payload["updates"] if has_updates else payload["tuples"]
        if not isinstance(raw, list) or not raw:
            raise HttpError(400, "the update batch must be a non-empty JSON array")
        if len(raw) > MAX_BATCH_UPDATES:
            raise HttpError(
                413,
                f"batch of {len(raw)} updates over the {MAX_BATCH_UPDATES} "
                f"per-request limit; split it client-side",
            )
        if has_updates:
            return [edge_update_from_dict(item) for item in raw]
        return [
            self._tuple_codec.encode(layered_update_from_dict(item)) for item in raw
        ]

    async def _vertices_payload(
        self, name: str, managed: ManagedEngine, query: Dict[str, str]
    ) -> dict:
        raw_top = query.get("top", "10")
        try:
            top = int(raw_top)
        except ValueError as error:
            raise HttpError(400, f"top must be an integer, got {raw_top!r}") from error
        if top < 1:
            raise HttpError(400, f"top must be positive, got {top}")

        def read() -> dict:
            view = managed.read_at(None, EngineView.load)
            return {
                "engine": name,
                "num_vertices": view.num_vertices,
                "num_edges": view.num_edges,
                "as_of_updates": view.updates_processed,
                "top": view.top_degrees(top),  # outside the tenant lock
            }

        return await _off_loop(read)

    async def _vertex_payload(
        self, name: str, managed: ManagedEngine, label: str
    ) -> dict:
        stats = await _off_loop(
            managed.read_at, None, lambda view, engine: view.vertex_stats(engine, label)
        )
        if stats is None:
            raise HttpError(
                404, f"engine {name!r} has no vertex {label!r} in its current view"
            )
        return {"engine": name, **stats}

    # -- the event stream ----------------------------------------------------
    async def _serve_events(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        name = request.segments[1]
        try:
            managed = self.registry.get(name)
            kinds = parse_event_kinds(
                request.query.get("kinds"), STREAMABLE_EVENT_KINDS
            )
            limit = None
            if "limit" in request.query:
                try:
                    limit = int(request.query["limit"])
                except ValueError as error:
                    raise HttpError(
                        400, f"limit must be an integer, got {request.query['limit']!r}"
                    ) from error
                if limit < 1:
                    raise HttpError(400, f"limit must be positive, got {limit}")
        except ReproError as error:
            status = _status_for(error)
            writer.write(error_response(status, str(error)))
            await writer.drain()
            return
        queue = managed.subscribe_queue()
        writer.write(sse_preamble())
        sent = 0
        try:
            await writer.drain()
            while True:
                payload = await queue.get()
                if payload is None:
                    break  # the tenant shut down; the stream is complete
                if kinds is not None and payload["kind"] not in kinds:
                    continue
                writer.write(format_sse_event(payload["kind"], payload))
                await writer.drain()
                sent += 1
                if limit is not None and sent >= limit:
                    break
        except (ConnectionError, TimeoutError):
            pass  # the consumer went away; just drop the subscription
        finally:
            managed.unsubscribe_queue(queue)


class ServiceRunner:
    """Drive a :class:`ReproService` from synchronous code.

    Owns a dedicated event loop on a daemon thread; :meth:`run` submits any
    coroutine to that loop and blocks for the result, which is how the tests
    and the E15 harness create tenants with programmatic arguments (fault
    injectors cannot travel over HTTP).  Usable as a context manager.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = ReproService(host, port)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self.service.host, self.service.port

    def start(self) -> Tuple[str, int]:
        if self._thread is not None:
            raise ConfigurationError("service runner already started")
        self._loop = asyncio.new_event_loop()
        ready = threading.Event()

        def _spin() -> None:
            asyncio.set_event_loop(self._loop)
            ready.set()
            self._loop.run_forever()

        self._thread = threading.Thread(
            target=_spin, name="repro-service", daemon=True
        )
        self._thread.start()
        ready.wait()
        return self.run(self.service.start())

    def run(self, coroutine):
        """Run one coroutine on the service loop; block for its result."""
        if self._loop is None:
            raise ConfigurationError("service runner is not started")
        return asyncio.run_coroutine_threadsafe(coroutine, self._loop).result()

    def stop(self) -> None:
        if self._loop is None:
            return
        try:
            self.run(self.service.stop())
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            if self._thread is not None:
                self._thread.join()
            self._loop.close()
            self._loop = None
            self._thread = None

    def __enter__(self) -> "ServiceRunner":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
