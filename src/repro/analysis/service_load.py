"""Experiment E15: always-on service load.

Thousands of concurrent HTTP clients ingest disjoint update streams into one
durable served engine while readers poll it.  The run records latency
percentiles, pins the final count to a single-engine reference replay and a
server-side consistency recount, and raises on any failed request.
"""

from __future__ import annotations

import asyncio
import math
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.api import EngineConfig, FourCycleEngine
from repro.exceptions import ConfigurationError, CounterStateError
from repro.graph.updates import EdgeUpdate
from repro.io.serialization import edge_update_to_dict


@dataclass(frozen=True)
class ServiceLoadRow:
    """One traffic class of the service load run.

    ``p50_ms``/``p95_ms``/``p99_ms`` are per-request latency percentiles over
    every request of the class (connection-per-request, so a request's latency
    includes its TCP connect).  ``consistent`` records the end-of-run gates:
    zero failed requests, the served count bit-identical to a single-engine
    reference replay of the same updates, and a server-side from-scratch
    recount agreeing — a violation raises, it is never reported as a row.
    Timing percentiles are informational; CI gates on exactness only.
    """

    scenario: str
    clients: int
    requests: int
    operations: int
    seconds: float
    per_second: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    errors: int
    consistent: bool


def _latency_percentile(sorted_ms: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted latency sample."""
    if not sorted_ms:
        return 0.0
    rank = min(len(sorted_ms) - 1, max(0, math.ceil(fraction * len(sorted_ms)) - 1))
    return sorted_ms[rank]


def _e15_client_edges(client: int, block: int, updates: int) -> List:
    """The deterministic insert stream owned by one load client.

    Client ``i`` owns the vertex block ``[i * block, (i + 1) * block)`` and
    inserts the first ``updates`` pairs of its block's complete-graph
    enumeration.  Blocks are disjoint, so every interleaving of the per-client
    streams is a valid global stream and the final graph — hence the final
    4-cycle count — is independent of arrival order.  That is what makes the
    load run *exactness-checkable*: concurrency can reorder requests freely
    without changing the answer the gates pin.
    """
    base = client * block
    edges = []
    for a in range(block):
        for b in range(a + 1, block):
            edges.append(EdgeUpdate.insert(base + a, base + b))
            if len(edges) == updates:
                return edges
    raise ConfigurationError(
        f"E15: a block of {block} vertices holds {len(edges)} edges, fewer "
        f"than the {updates} updates each client must send; raise block"
    )


async def _e15_drive(
    clients: int,
    batches_per_client: int,
    batch_size: int,
    block: int,
    readers: int,
    reader_polls: int,
    counter: str,
    wal_path: str,
) -> Dict[str, object]:
    """Serve, flood, verify: the async body of E15 (one event loop, one core).

    The service and every client coroutine share the loop, so "concurrent
    clients" means concurrently open sockets with in-flight requests — the
    scheduling regime an always-on single-host deployment actually runs in.
    """
    # Imported here so that importing repro.analysis does not load the service.
    from repro.service.app import ReproService
    from repro.service.http import http_json_request

    service = ReproService(host="127.0.0.1", port=0)
    host, port = await service.start()
    tenant = "e15-load"
    ingest_ms: List[float] = []
    read_ms: List[float] = []
    errors: List[str] = []
    try:
        status, body = await http_json_request(
            host, port, "POST", "/engines",
            {
                "name": tenant,
                "config": {
                    "counter": counter,
                    "track_costs": False,
                    "wal_path": wal_path,
                },
            },
        )
        if status != 201:
            raise CounterStateError(f"E15: tenant creation failed: {status} {body}")

        async def ingest_client(index: int) -> None:
            edges = _e15_client_edges(index, block, batches_per_client * batch_size)
            payloads = [
                [edge_update_to_dict(update) for update in edges[i : i + batch_size]]
                for i in range(0, len(edges), batch_size)
            ]
            for window in payloads:
                started = time.perf_counter()
                status, body = await http_json_request(
                    host, port, "POST", f"/engines/{tenant}/updates",
                    {"updates": window},
                )
                ingest_ms.append((time.perf_counter() - started) * 1e3)
                if status != 200:
                    errors.append(f"ingest[{index}]: {status} {body}")

        async def reader_client(index: int) -> None:
            for _ in range(reader_polls):
                started = time.perf_counter()
                status, body = await http_json_request(
                    host, port, "GET", f"/engines/{tenant}/counts"
                )
                read_ms.append((time.perf_counter() - started) * 1e3)
                if status != 200:
                    errors.append(f"read[{index}]: {status} {body}")

        started = time.perf_counter()
        await _e15_gather_all(
            [ingest_client(index) for index in range(clients)]
            + [reader_client(index) for index in range(readers)]
        )
        elapsed = max(time.perf_counter() - started, 1e-9)

        status, counts = await http_json_request(
            host, port, "GET", f"/engines/{tenant}/counts"
        )
        if status != 200:
            raise CounterStateError(f"E15: final counts read failed: {status} {counts}")
        status, verdict = await http_json_request(
            host, port, "GET", f"/engines/{tenant}/consistency"
        )
        if status != 200:
            raise CounterStateError(f"E15: consistency check failed: {status} {verdict}")
    finally:
        await service.stop()
    return {
        "elapsed": elapsed,
        "ingest_ms": sorted(ingest_ms),
        "read_ms": sorted(read_ms),
        "errors": errors,
        "counts": counts,
        "consistent": bool(verdict.get("consistent")),
    }


async def _e15_gather_all(coroutines: List) -> None:
    """``gather`` that surfaces the first failure after letting all finish."""
    results = await asyncio.gather(*coroutines, return_exceptions=True)
    for result in results:
        if isinstance(result, BaseException):
            raise result


def experiment_e15_service_load(
    clients: int = 1200,
    batches_per_client: int = 2,
    batch_size: int = 8,
    block: int = 8,
    readers: int = 64,
    reader_polls: int = 4,
    counter: str = "wedge",
    wal_dir: Optional[str] = None,
) -> List[ServiceLoadRow]:
    """E15: concurrent HTTP load against one durable served engine.

    ``clients`` ingestion clients each send ``batches_per_client`` windows of
    ``batch_size`` inserts over their own disjoint vertex block (connection
    per request), while ``readers`` polling clients read the published counts
    view concurrently.  The engine is durable (WAL-attached) throughout, so
    every accepted window was logged and fsynced before its response.

    End-of-run gates (all raise, none are reported as data):

    * every request succeeded;
    * the served final count is bit-identical to the reference: a fresh
      engine replaying one client's block, times the number of clients
      (blocks are disjoint and identical, and 4-cycles never cross blocks);
    * ``updates_processed`` equals the number of updates sent, and the WAL
      cursor (``last_durable_seq``) covers every logged record;
    * a server-side from-scratch recount agrees (``consistent: true``).
    """
    if clients < 1:
        raise ConfigurationError(f"E15 needs at least one client, got {clients}")
    updates_per_client = batches_per_client * batch_size
    total_updates = clients * updates_per_client

    with tempfile.TemporaryDirectory(prefix="repro-e15-") as scratch:
        wal_path = f"{wal_dir or scratch}/e15-load.wal"
        outcome = asyncio.run(
            _e15_drive(
                clients,
                batches_per_client,
                batch_size,
                block,
                readers,
                reader_polls,
                counter,
                wal_path,
            )
        )

    if outcome["errors"]:
        sample = "; ".join(outcome["errors"][:3])
        raise CounterStateError(
            f"E15: {len(outcome['errors'])} of the load requests failed "
            f"(first: {sample})"
        )
    counts = outcome["counts"]
    # Every client inserts the same pattern into its own disjoint block, and
    # 4-cycles never cross blocks, so the global reference count is one
    # block's replayed count times the number of clients (the per-block
    # analogue of E14's clique closed form).
    reference = FourCycleEngine(
        EngineConfig(counter=counter, batch_size=updates_per_client, track_costs=False)
    )
    reference.apply_batch(_e15_client_edges(0, block, updates_per_client))
    expected = clients * reference.count
    if counts["count"] != expected:
        raise CounterStateError(
            f"E15: served count {counts['count']} does not match the reference "
            f"replay ({clients} blocks x {reference.count} = {expected})"
        )
    if counts["updates_processed"] != total_updates:
        raise CounterStateError(
            f"E15: served engine processed {counts['updates_processed']} updates, "
            f"expected {total_updates}"
        )
    if counts["last_durable_seq"] < 0:
        raise CounterStateError(
            "E15: the served engine was not durable (no WAL cursor); the load "
            "run must exercise the logged ingestion path"
        )
    if not outcome["consistent"]:
        raise CounterStateError(
            "E15: server-side from-scratch recount disagreed with the "
            "maintained count"
        )

    elapsed = outcome["elapsed"]
    classes = [("ingest", clients, outcome["ingest_ms"], total_updates)]
    if readers > 0:
        read_ms = outcome["read_ms"]
        classes.append(("read-while-ingest", readers, read_ms, len(read_ms)))
    return [
        ServiceLoadRow(
            scenario=scenario,
            clients=count,
            requests=len(latencies),
            operations=operations,
            seconds=elapsed,
            per_second=operations / elapsed,
            p50_ms=_latency_percentile(latencies, 0.50),
            p95_ms=_latency_percentile(latencies, 0.95),
            p99_ms=_latency_percentile(latencies, 0.99),
            errors=0,
            consistent=True,
        )
        for scenario, count, latencies, operations in classes
    ]
