"""End-to-end HTTP tests: real sockets against a running service.

Every test drives a :class:`~repro.service.app.ServiceRunner` (the service on
its own event-loop thread) from synchronous client code — stdlib
``http.client`` for keep-alive request sequences, a raw socket for the SSE
stream — so the full parse/route/respond path is exercised exactly the way an
external client sees it.
"""

from __future__ import annotations

import http.client
import json
import socket

import pytest

from repro.analysis.throughput import force_batch_path
from repro.exceptions import CounterStateError
from repro.service import ServiceRunner


@pytest.fixture()
def service():
    with ServiceRunner() as runner:
        yield runner


def request(runner, method, path, payload=None):
    """One request over one fresh connection; returns (status, decoded body)."""
    host, port = runner.address
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        body = None if payload is None else json.dumps(payload)
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        connection.close()


def make_engine(runner, name, config=None):
    status, body = request(
        runner, "POST", "/engines", {"name": name, "config": config or {"counter": "wedge"}}
    )
    assert status == 201, body
    return body


K4_CYCLE = [
    {"u": 1, "v": 2, "kind": "insert"},
    {"u": 2, "v": 3, "kind": "insert"},
    {"u": 3, "v": 4, "kind": "insert"},
    {"u": 4, "v": 1, "kind": "insert"},
]


class TestLifecycle:
    def test_health_and_engine_roundtrip(self, service):
        assert request(service, "GET", "/health") == (
            200,
            {"status": "ok", "engines": 0, "names": []},
        )
        created = make_engine(service, "alpha")
        assert created["engine"] == "alpha" and created["counter"] == "wedge"
        status, listing = request(service, "GET", "/engines")
        assert status == 200
        assert [engine["engine"] for engine in listing["engines"]] == ["alpha"]
        status, summary = request(service, "GET", "/engines/alpha")
        assert status == 200 and summary["count"] == 0
        status, deleted = request(service, "DELETE", "/engines/alpha")
        assert status == 200 and deleted["deleted"] == "alpha"
        assert request(service, "GET", "/health")[1]["engines"] == 0

    def test_ingest_counts_vertices_consistency(self, service):
        make_engine(service, "alpha")
        status, applied = request(
            service, "POST", "/engines/alpha/updates", {"updates": K4_CYCLE}
        )
        assert status == 200
        assert applied["applied"] == 4 and applied["count"] == 1
        status, counts = request(service, "GET", "/engines/alpha/counts")
        assert status == 200
        assert counts["count"] == 1 and counts["num_edges"] == 4
        status, vertices = request(service, "GET", "/engines/alpha/vertices?top=2")
        assert status == 200
        assert len(vertices["top"]) == 2
        assert all(entry["degree"] == 2 for entry in vertices["top"])
        status, vertex = request(service, "GET", "/engines/alpha/vertices/3")
        assert status == 200 and vertex["degree"] == 2
        status, verdict = request(service, "GET", "/engines/alpha/consistency")
        assert status == 200 and verdict["consistent"] is True

    def test_tuple_ingestion(self, service):
        make_engine(service, "joins")
        tuples = [
            {"relation": relation, "left": 1, "right": 1, "kind": "insert"}
            for relation in "ABCD"
        ]
        status, applied = request(
            service, "POST", "/engines/joins/updates", {"tuples": tuples}
        )
        assert status == 200
        # One tuple per relation with matching keys closes one 4-cycle.
        assert applied["count"] == 1
        # Array keys arrive as tuple labels: a second, disjoint 4-cycle.
        for item in tuples:
            item["left"] = item["right"] = ["k", 2]
        status, applied = request(
            service, "POST", "/engines/joins/updates", {"tuples": tuples}
        )
        assert status == 200 and applied["count"] == 2

    def test_durable_engine_compact(self, service, tmp_path):
        make_engine(
            service,
            "durable",
            {"counter": "wedge", "wal_path": str(tmp_path / "run.wal")},
        )
        status, applied = request(
            service, "POST", "/engines/durable/updates", {"updates": K4_CYCLE}
        )
        assert status == 200 and applied["last_durable_seq"] == 3
        status, compacted = request(service, "POST", "/engines/durable/compact")
        assert status == 200 and compacted["remaining_records"] == 0

    def test_keep_alive_connection_reuse(self, service):
        make_engine(service, "alpha")
        host, port = service.address
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            for index in range(5):
                connection.request(
                    "POST",
                    "/engines/alpha/updates",
                    body=json.dumps(
                        {"updates": [{"u": index, "v": index + 50, "kind": "insert"}]}
                    ),
                )
                response = connection.getresponse()
                body = json.loads(response.read())
                assert response.status == 200
                assert body["updates_processed"] == index + 1
        finally:
            connection.close()


class TestProtocolErrors:
    def test_unknown_engine_404(self, service):
        status, body = request(service, "GET", "/engines/ghost/counts")
        assert status == 404 and body["type"] == "UnknownEngineError"

    def test_unknown_route_404(self, service):
        assert request(service, "GET", "/nope")[0] == 404
        make_engine(service, "alpha")
        assert request(service, "GET", "/engines/alpha/nope")[0] == 404

    def test_method_mismatch_405(self, service):
        make_engine(service, "alpha")
        assert request(service, "DELETE", "/health")[0] == 405
        assert request(service, "GET", "/engines/alpha/compact")[0] == 405
        assert request(service, "POST", "/engines/alpha/counts")[0] == 405

    def test_duplicate_engine_409(self, service):
        make_engine(service, "alpha")
        status, body = request(
            service, "POST", "/engines", {"name": "alpha", "config": {"counter": "wedge"}}
        )
        assert status == 409 and body["type"] == "DuplicateEngineError"

    def test_malformed_bodies_400(self, service):
        make_engine(service, "alpha")
        host, port = service.address
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.request("POST", "/engines", body="{not json")
            assert connection.getresponse().status == 400
        finally:
            connection.close()
        # Exactly one of updates/tuples, and the batch must be non-empty.
        for body in (
            {},
            {"updates": [], "tuples": []},
            {"updates": [{"u": 1, "v": 2, "kind": "insert"}], "tuples": []},
            {"updates": []},
            {"updates": [{"u": 1, "v": 2, "kind": "warp"}]},
            {"tuples": [5]},
        ):
            status, answer = request(service, "POST", "/engines/alpha/updates", body)
            assert status == 400, answer

    def test_invalid_config_400(self, service):
        status, body = request(
            service, "POST", "/engines", {"name": "bad", "config": {"counter": "nope"}}
        )
        assert status == 400 and body["type"] == "ConfigurationError"

    @pytest.mark.parametrize(
        "config, field",
        [
            ({"counter": ["wedge"]}, "counter"),
            ({"counter": "wedge", "record_metrics": "false"}, "record_metrics"),
            ({"counter": "wedge", "record_metrics": "yes"}, "record_metrics"),
            ({"counter": "wedge", "track_costs": "false"}, "track_costs"),
        ],
    )
    def test_mistyped_config_400(self, service, config, field):
        status, body = request(service, "POST", "/engines", {"name": "bad", "config": config})
        assert status == 400 and body["type"] == "ConfigurationError"
        assert field in body["error"]
        assert request(service, "GET", "/engines/bad")[0] == 404

    def test_legacy_record_metrics_key_is_accepted(self, service):
        """Configs saved while the counters had their own recorder name it."""
        created = make_engine(service, "legacy", {"counter": "wedge", "record_metrics": True})
        assert created["counter"] == "wedge"
        status, applied = request(
            service, "POST", "/engines/legacy/updates", {"updates": K4_CYCLE}
        )
        assert status == 200 and applied["count"] == 1

    def test_rejected_update_leaves_engine_healthy(self, service):
        make_engine(service, "alpha")
        status, body = request(
            service,
            "POST",
            "/engines/alpha/updates",
            {"updates": [{"u": 7, "v": 8, "kind": "delete"}]},
        )
        assert status == 400
        status, summary = request(service, "GET", "/engines/alpha")
        assert status == 200 and summary["failed"] is None
        status, applied = request(
            service, "POST", "/engines/alpha/updates", {"updates": K4_CYCLE}
        )
        assert status == 200 and applied["count"] == 1

    def test_unknown_event_kind_400(self, service):
        make_engine(service, "alpha")
        status, body = request(service, "GET", "/engines/alpha/events?kinds=warp")
        assert status == 400 and "unknown event kind" in body["error"]


class TestFailStopReads:
    def test_torn_graph_is_never_served(self, service):
        """A counter failure after its graph batch applied fail-stops the
        tenant with the graph past the last published view: ``/counts`` keeps
        answering from that view, while the vertex reads answer 503 rather
        than report degrees from the torn graph."""
        make_engine(service, "alpha")
        status, _ = request(
            service, "POST", "/engines/alpha/updates", {"updates": K4_CYCLE}
        )
        assert status == 200
        counter = force_batch_path(service.service.registry.get("alpha").engine.counter, "rebuild")

        def torn_rebuild():
            raise CounterStateError("injected failure after the graph batch applied")

        counter._rebuild = torn_rebuild
        status, body = request(
            service,
            "POST",
            "/engines/alpha/updates",
            {
                "updates": [
                    {"u": 1, "v": 5, "kind": "insert"},
                    {"u": 5, "v": 6, "kind": "insert"},
                ]
            },
        )
        assert status == 503 and body["type"] == "CounterStateError", body
        status, counts = request(service, "GET", "/engines/alpha/counts")
        assert status == 200
        assert (counts["count"], counts["updates_processed"], counts["num_edges"]) == (
            1,
            4,
            4,
        )
        for path in ("vertices/1", "vertices/5", "vertices"):
            status, body = request(service, "GET", f"/engines/alpha/{path}")
            assert status == 503 and body["type"] == "EngineFailedError", (path, body)
            assert "degree" not in body and "top" not in body


class TestEventStream:
    def read_sse_frames(self, service, path, poke):
        """Open an SSE stream, run ``poke`` to generate traffic, return frames."""
        host, port = service.address
        sock = socket.create_connection((host, port), timeout=30)
        try:
            sock.sendall(
                f"GET {path} HTTP/1.1\r\nhost: {host}\r\n\r\n".encode("latin-1")
            )
            # Wait for the preamble before generating events, so the
            # subscription provably precedes the traffic it observes.
            preamble = b""
            while b"\r\n\r\n" not in preamble:
                preamble += sock.recv(4096)
            assert b"text/event-stream" in preamble
            poke()
            blob = preamble.split(b"\r\n\r\n", 1)[1]
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                blob += chunk
        finally:
            sock.close()
        frames = []
        for frame in blob.decode("utf-8").strip().split("\n\n"):
            lines = frame.split("\n")
            kind = lines[0].removeprefix("event: ")
            payload = json.loads(lines[1].removeprefix("data: "))
            frames.append((kind, payload))
        return frames

    def test_stream_delivers_filtered_events(self, service):
        make_engine(service, "alpha")

        def poke():
            for index in range(3):
                status, _ = request(
                    service,
                    "POST",
                    "/engines/alpha/updates",
                    {
                        "updates": [
                            {"u": index, "v": index + 10, "kind": "insert"},
                            {"u": index, "v": index + 20, "kind": "insert"},
                        ]
                    },
                )
                assert status == 200

        frames = self.read_sse_frames(
            service, "/engines/alpha/events?kinds=batch-applied&limit=3", poke
        )
        assert [kind for kind, _ in frames] == ["batch-applied"] * 3
        assert [payload["updates_processed"] for _, payload in frames] == [2, 4, 6]
        assert all(payload["engine"] == "alpha" for _, payload in frames)

    def test_stream_ends_with_engine_closed(self, service):
        make_engine(service, "alpha")

        def poke():
            assert request(service, "DELETE", "/engines/alpha")[0] == 200

        frames = self.read_sse_frames(service, "/engines/alpha/events", poke)
        assert frames[-1][0] == "engine-closed"

    def test_stream_for_unknown_engine_404(self, service):
        host, port = service.address
        sock = socket.create_connection((host, port), timeout=30)
        try:
            sock.sendall(b"GET /engines/ghost/events HTTP/1.1\r\nhost: x\r\n\r\n")
            blob = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                blob += chunk
        finally:
            sock.close()
        assert blob.startswith(b"HTTP/1.1 404")
