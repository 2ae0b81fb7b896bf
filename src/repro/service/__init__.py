"""Always-on service layer: async multi-tenant HTTP ingestion over engines.

The package turns the batch-oriented :class:`~repro.api.engine.FourCycleEngine`
into a long-running, network-facing system while keeping the reproduction's
hard dependency budget at the standard library:

* :mod:`repro.service.http` — minimal asyncio HTTP/1.1 + SSE plumbing (server
  and the matching test/benchmark client);
* :mod:`repro.service.registry` — the named tenant registry and the
  one-writer-per-engine / O(1)-read-view concurrency model;
* :mod:`repro.service.app` — the route table, connection loop, and the
  :class:`ServiceRunner` harness for synchronous callers.

``repro-4cycles serve`` starts it from the command line; experiment E15
(:func:`repro.analysis.service_load.experiment_e15_service_load`) load-tests it
through real sockets.
"""

from repro.service.app import (
    MAX_BATCH_UPDATES,
    ReproService,
    ServiceRunner,
    STREAMABLE_EVENT_KINDS,
)
from repro.service.http import (
    HttpError,
    HttpRequest,
    http_json_request,
)
from repro.service.registry import (
    EVENT_ENGINE_CLOSED,
    RECOVER_MODES,
    DuplicateEngineError,
    EngineFailedError,
    EngineRegistry,
    EngineView,
    ManagedEngine,
    UnknownEngineError,
    build_engine,
)

__all__ = [
    "EVENT_ENGINE_CLOSED",
    "MAX_BATCH_UPDATES",
    "RECOVER_MODES",
    "STREAMABLE_EVENT_KINDS",
    "DuplicateEngineError",
    "EngineFailedError",
    "EngineRegistry",
    "EngineView",
    "HttpError",
    "HttpRequest",
    "ManagedEngine",
    "ReproService",
    "ServiceRunner",
    "UnknownEngineError",
    "build_engine",
    "http_json_request",
]
