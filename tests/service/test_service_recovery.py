"""Service crash/restart: a served engine dies mid-batch and recovers.

The scenario the always-on layer exists for: a durable tenant fail-stops in
the middle of an ingestion batch (injected WAL-append crash), the service
answers 503 for that tenant from then on, and a *restarted* service re-creates
the tenant from its write-ahead log with bit-identical counts — everything the
service acknowledged before the crash survives, and the doomed batch, logged
as one record, comes back all or nothing: none of it when the crash beat the
write, all of it when the record was written first.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.api import EngineConfig, FourCycleEngine
from repro.faults import ACTION_CRASH, SITE_WAL_APPEND, Fault, FaultInjector
from repro.graph.updates import EdgeUpdate
from repro.service import ServiceRunner

from tests.conftest import random_dynamic_stream


def request(runner, method, path, payload=None):
    host, port = runner.address
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        body = None if payload is None else json.dumps(payload)
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        connection.close()


def to_payload(batch):
    return {"updates": [{"u": u.u, "v": u.v, "kind": u.kind.value} for u in batch]}


class TestServedEngineRecovery:
    @pytest.mark.parametrize("when", ["before", "after"])
    def test_crash_mid_batch_then_restart_recovers_bit_identical(self, tmp_path, when):
        wal_path = str(tmp_path / "served.wal")
        config = {"counter": "wedge", "wal_path": wal_path, "track_costs": False}
        updates = list(random_dynamic_stream(num_vertices=10, num_updates=60, seed=33))
        batch_size = 5
        batches = [
            updates[i : i + batch_size] for i in range(0, len(updates), batch_size)
        ]
        # Crash while logging the 18th update: mid-batch 4 (updates 15-19),
        # so batches 1-3 are acknowledged history and batch 4's one record is
        # either never written or written whole.
        crash_record = 17
        payload = {"when": "after"} if when == "after" else {}

        acknowledged = []
        with ServiceRunner() as runner:
            runner.run(
                runner.service.registry.create(
                    "served",
                    config,
                    fault_injector=FaultInjector(
                        [Fault(SITE_WAL_APPEND, ACTION_CRASH, at=crash_record, payload=payload)]
                    ),
                )
            )
            crashed_at = None
            for index, batch in enumerate(batches):
                status, body = request(
                    runner, "POST", "/engines/served/updates", to_payload(batch)
                )
                if status != 200:
                    assert status == 503, body
                    crashed_at = index
                    break
                acknowledged.append(body)
            assert crashed_at is not None, "the injected crash never fired"
            assert crashed_at == crash_record // batch_size
            # From now on the tenant is fail-stopped: 503 with recovery advice.
            status, body = request(
                runner, "POST", "/engines/served/updates", to_payload(batches[0])
            )
            assert status == 503 and body["type"] == "EngineFailedError"
            assert "recover" in body["error"]
            status, summary = request(runner, "GET", "/engines/served")
            assert status == 200 and summary["failed"] is not None

        last_good = acknowledged[-1]
        assert last_good["updates_processed"] == crashed_at * batch_size

        # Restart: a fresh service process re-creates the tenant from its log.
        with ServiceRunner() as runner:
            status, summary = request(
                runner,
                "POST",
                "/engines",
                {"name": "served", "config": config, "recover": "always"},
            )
            assert status == 201, summary
            assert summary["recovered"] is True
            # Every acknowledged update survived the crash, and the doomed
            # batch is all or nothing: its record either never reached the log
            # or reached it whole before the crash.
            recovered = summary["updates_processed"]
            if when == "after":
                assert recovered == (crashed_at + 1) * batch_size
            else:
                assert recovered == last_good["updates_processed"]
            assert summary["last_durable_seq"] == recovered - 1
            # Bit-identical to an engine that replayed exactly the durable
            # prefix of the stream and never crashed at all.
            reference = FourCycleEngine(EngineConfig(counter="wedge"))
            for update in updates[:recovered]:
                reference.apply(update)
            assert summary["count"] == reference.count
            status, verdict = request(runner, "GET", "/engines/served/consistency")
            assert status == 200 and verdict["consistent"] is True

            # The recovered tenant ingests what the log lacks (the doomed
            # batch unless it was written, then the next batch) and carries on
            # exactly where the durable history left off.
            remainder = updates[recovered : (crashed_at + 2) * batch_size]
            reference.apply_batch(remainder)
            status, body = request(
                runner, "POST", "/engines/served/updates", to_payload(remainder)
            )
            assert status == 200 and body["count"] == reference.count
            assert body["updates_processed"] == (crashed_at + 2) * batch_size

    def test_restart_with_auto_recovery_resumes_quietly(self, tmp_path):
        """``recover="auto"`` (the default) picks up an existing log without
        the caller having to know whether the tenant is new or returning."""
        config = {"counter": "wedge", "wal_path": str(tmp_path / "quiet.wal")}
        with ServiceRunner() as runner:
            assert request(
                runner, "POST", "/engines", {"name": "quiet", "config": config}
            )[0] == 201
            status, body = request(
                runner,
                "POST",
                "/engines/quiet/updates",
                {
                    "updates": [
                        {"u": a, "v": b, "kind": "insert"}
                        for a, b in ((1, 2), (2, 3), (3, 4), (4, 1))
                    ]
                },
            )
            assert status == 200 and body["count"] == 1
            # A graceful stop closes the engine cleanly; the log remains.

        with ServiceRunner() as runner:
            status, summary = request(
                runner, "POST", "/engines", {"name": "quiet", "config": config}
            )
            assert status == 201 and summary["recovered"] is True
            assert summary["count"] == 1 and summary["updates_processed"] == 4

    def test_fresh_durable_tenant_does_not_recover(self, tmp_path):
        config = {"counter": "wedge", "wal_path": str(tmp_path / "fresh.wal")}
        with ServiceRunner() as runner:
            status, summary = request(
                runner, "POST", "/engines", {"name": "fresh", "config": config}
            )
            assert status == 201 and summary["recovered"] is False


class TestInjectedCrashOverRegistryApi:
    def test_failed_tenant_can_be_replaced_in_place(self, tmp_path):
        """Delete-then-recreate recovers a fail-stopped tenant inside one
        service lifetime (no restart needed): the WAL survives the delete
        because the failed engine's log handle was already released."""
        wal_path = str(tmp_path / "replace.wal")
        config = {"counter": "wedge", "wal_path": wal_path, "track_costs": False}
        with ServiceRunner() as runner:
            runner.run(
                runner.service.registry.create(
                    "phoenix",
                    config,
                    fault_injector=FaultInjector(
                        [Fault(SITE_WAL_APPEND, ACTION_CRASH, at=3)]
                    ),
                )
            )
            good = [EdgeUpdate.insert(1, 2), EdgeUpdate.insert(2, 3), EdgeUpdate.insert(3, 4)]
            status, body = request(
                runner, "POST", "/engines/phoenix/updates", to_payload(good)
            )
            assert status == 200 and body["updates_processed"] == 3
            status, body = request(
                runner,
                "POST",
                "/engines/phoenix/updates",
                to_payload([EdgeUpdate.insert(4, 1)]),
            )
            assert status == 503
            assert request(runner, "DELETE", "/engines/phoenix")[0] == 200
            status, summary = request(
                runner,
                "POST",
                "/engines",
                {"name": "phoenix", "config": config, "recover": "always"},
            )
            assert status == 201 and summary["recovered"] is True
            assert summary["updates_processed"] == 3
            status, body = request(
                runner,
                "POST",
                "/engines/phoenix/updates",
                to_payload([EdgeUpdate.insert(4, 1)]),
            )
            assert status == 200 and body["count"] == 1



class TestJsonLabelsSurviveRestart:
    """JSON hands a tuple label back as an array, and has labels (objects)
    that no vertex can carry: neither may break recovery, and no request may
    leave a window in the log that the engine did not apply."""

    @staticmethod
    def create(runner, config):
        return request(runner, "POST", "/engines", {"name": "labels", "config": config})

    @staticmethod
    def post(runner, body):
        return request(runner, "POST", "/engines/labels/updates", body)

    def test_tuples_body_recovers_after_restart(self, tmp_path):
        # The tuple codec makes ("L1", left)-style labels, which the WAL
        # writes as JSON arrays.
        config = {"counter": "wedge", "wal_path": str(tmp_path / "tuples.wal")}
        tuples = [
            {"relation": relation, "left": 1, "right": 1, "kind": "insert"}
            for relation in "ABCD"
        ]
        with ServiceRunner() as runner:
            self.create(runner, config)
            status, applied = self.post(runner, {"tuples": tuples})
            assert status == 200 and applied["count"] == 1
        with ServiceRunner() as runner:
            status, summary = self.create(runner, config)
            assert status == 201, summary
            assert summary["recovered"] is True
            assert (summary["count"], summary["updates_processed"]) == (1, 4)
            status, verdict = request(runner, "GET", "/engines/labels/consistency")
            assert status == 200 and verdict["consistent"] is True

    def test_array_labels_are_tuples_and_recover(self, tmp_path):
        config = {"counter": "wedge", "wal_path": str(tmp_path / "arrays.wal")}
        square = [["A", 1], ["B", 2], ["A", 3], ["B", 4]]
        updates = [
            {"u": square[i], "v": square[(i + 1) % 4], "kind": "insert"} for i in range(4)
        ]
        with ServiceRunner() as runner:
            self.create(runner, config)
            status, applied = self.post(runner, {"updates": updates})
            assert status == 200 and applied["count"] == 1
            # The same edge again: ["A", 1] and ("A", 1) are one vertex.
            status, _ = self.post(runner, {"updates": updates[:1]})
            assert status == 400
        with ServiceRunner() as runner:
            status, summary = self.create(runner, config)
            assert status == 201, summary
            assert (summary["count"], summary["last_durable_seq"]) == (1, 3)

    def test_object_label_is_refused_before_it_is_logged(self, tmp_path):
        config = {"counter": "wedge", "wal_path": str(tmp_path / "objects.wal")}
        with ServiceRunner() as runner:
            self.create(runner, config)
            status, applied = self.post(runner, {"updates": [{"u": 1, "v": 2, "kind": "insert"}]})
            assert status == 200 and applied["last_durable_seq"] == 0
            for bad in (
                {"updates": [{"u": {"x": 1}, "v": 6, "kind": "insert"}]},
                {"updates": [{"u": 3, "v": 4, "kind": "insert"},
                             {"u": ["A", {"x": 1}], "v": 6, "kind": "insert"}]},
                {"tuples": [{"relation": "A", "left": {"x": 1}, "right": 2,
                             "kind": "insert"}]},
            ):
                status, answer = self.post(runner, bad)
                assert status == 400 and answer["type"] == "ConfigurationError", answer
            status, summary = request(runner, "GET", "/engines/labels")
            assert summary["failed"] is None and summary["last_durable_seq"] == 0
            status, applied = self.post(runner, {"updates": [{"u": 2, "v": 3, "kind": "insert"}]})
            assert status == 200 and applied["last_durable_seq"] == 1
        with ServiceRunner() as runner:
            status, summary = self.create(runner, config)
            assert status == 201 and summary["updates_processed"] == 2
