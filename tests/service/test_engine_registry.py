"""The engine registry: tenancy CRUD, the writer/view model, fail-stop."""

from __future__ import annotations

import asyncio
import sys

import pytest

from repro.api import EngineConfig, FourCycleEngine
from repro.exceptions import (
    ConfigurationError,
    InjectedCrashError,
    MissingEdgeError,
)
from repro.faults import ACTION_CRASH, SITE_WAL_APPEND, Fault, FaultInjector
from repro.graph.updates import EdgeUpdate
from repro.service import (
    DuplicateEngineError,
    EngineFailedError,
    EngineRegistry,
    EngineView,
    UnknownEngineError,
)

from tests.conftest import random_dynamic_stream


def drive(coroutine_function):
    """Run one async registry scenario on a fresh event loop."""
    return asyncio.run(coroutine_function())


class TestTenancy:
    def test_create_get_delete_roundtrip(self):
        async def scenario():
            registry = EngineRegistry()
            managed = await registry.create("alpha", {"counter": "wedge"})
            assert registry.get("alpha") is managed
            assert registry.names() == ["alpha"]
            assert len(registry) == 1
            summary = await registry.delete("alpha")
            assert summary["engine"] == "alpha"
            assert registry.names() == []
            with pytest.raises(UnknownEngineError, match="alpha"):
                registry.get("alpha")

        drive(scenario)

    def test_create_accepts_config_object_and_dict(self):
        async def scenario():
            registry = EngineRegistry()
            from_object = await registry.create(
                "obj", EngineConfig(counter="brute-force")
            )
            from_dict = await registry.create("dict", {"counter": "brute-force"})
            assert from_object.engine.config == from_dict.engine.config
            await registry.close()

        drive(scenario)

    def test_duplicate_name_conflicts(self):
        async def scenario():
            registry = EngineRegistry()
            await registry.create("alpha", {"counter": "wedge"})
            with pytest.raises(DuplicateEngineError, match="alpha"):
                await registry.create("alpha", {"counter": "wedge"})
            await registry.close()

        drive(scenario)

    @pytest.mark.parametrize("name", ["", ".hidden", "spaces in name", "a" * 65, 7])
    def test_invalid_names_rejected(self, name):
        async def scenario():
            registry = EngineRegistry()
            with pytest.raises(ConfigurationError, match="name"):
                await registry.create(name, {"counter": "wedge"})

        drive(scenario)

    def test_recover_always_demands_history(self, tmp_path):
        async def scenario():
            registry = EngineRegistry()
            with pytest.raises(ConfigurationError, match="always"):
                await registry.create(
                    "durable",
                    {"counter": "wedge", "wal_path": str(tmp_path / "fresh.wal")},
                    recover="always",
                )
            with pytest.raises(ConfigurationError, match="recover"):
                await registry.create(
                    "durable", {"counter": "wedge"}, recover="sometimes"
                )

        drive(scenario)

    def test_close_shuts_every_tenant(self):
        async def scenario():
            registry = EngineRegistry()
            first = await registry.create("one", {"counter": "wedge"})
            second = await registry.create("two", {"counter": "wedge"})
            await registry.close()
            assert len(registry) == 0
            assert first.closed and second.closed
            with pytest.raises(UnknownEngineError):
                await first.apply_updates([EdgeUpdate.insert(1, 2)])

        drive(scenario)


class TestWriterModel:
    def test_apply_updates_resolves_at_batch_boundary(self):
        async def scenario():
            registry = EngineRegistry()
            managed = await registry.create("alpha", {"counter": "wedge"})
            result = await managed.apply_updates(
                [EdgeUpdate.insert(a, b) for a, b in ((1, 2), (2, 3), (3, 4), (4, 1))]
            )
            assert result == {
                "engine": "alpha",
                "applied": 4,
                "count": 1,
                "updates_processed": 4,
                "last_durable_seq": -1,
            }
            assert managed.view.counts_payload()["count"] == 1
            await registry.close()

        drive(scenario)

    def test_rejected_update_fails_request_not_tenant(self):
        async def scenario():
            registry = EngineRegistry()
            managed = await registry.create("alpha", {"counter": "wedge"})
            await managed.apply_updates([EdgeUpdate.insert(1, 2)])
            with pytest.raises(MissingEdgeError):
                await managed.apply_updates([EdgeUpdate.delete(8, 9)])
            # Validation precedes mutation on the non-durable path, so the
            # tenant stays healthy and keeps accepting work.
            assert managed.failed is None
            result = await managed.apply_updates([EdgeUpdate.insert(2, 3)])
            assert result["updates_processed"] == 2
            await registry.close()

        drive(scenario)

    def test_empty_batch_rejected(self):
        async def scenario():
            registry = EngineRegistry()
            managed = await registry.create("alpha", {"counter": "wedge"})
            with pytest.raises(ConfigurationError, match="empty"):
                await managed.apply_updates([])
            await registry.close()

        drive(scenario)

    def test_consistency_and_compact_commands(self, tmp_path):
        async def scenario():
            registry = EngineRegistry()
            managed = await registry.create(
                "durable",
                {"counter": "wedge", "wal_path": str(tmp_path / "run.wal")},
            )
            await managed.apply_updates(
                [EdgeUpdate.insert(a, b) for a, b in ((1, 2), (2, 3), (3, 4), (4, 1))]
            )
            verdict = await managed.check_consistency()
            assert verdict["consistent"] is True and verdict["count"] == 1
            compacted = await managed.compact()
            assert compacted["remaining_records"] == 0
            assert compacted["last_durable_seq"] == 3
            await registry.close()

        drive(scenario)

    def test_concurrent_readers_never_observe_torn_state(self):
        """The snapshot-isolation contract: while one writer applies batches,
        every concurrently sampled read view is exact at some batch boundary —
        its (updates_processed, count) pair matches the reference replay at
        that boundary — and is never a torn mid-batch state.  So is every
        full-state read built through ``read_at``: its edge set is the
        reference replay's at that boundary."""

        async def scenario():
            registry = EngineRegistry()
            managed = await registry.create(
                "alpha", {"counter": "wedge", "track_costs": False}
            )
            updates = list(random_dynamic_stream(num_vertices=12, num_updates=240, seed=21))
            batch_size = 16
            batches = [
                updates[i : i + batch_size] for i in range(0, len(updates), batch_size)
            ]
            reference = FourCycleEngine(EngineConfig(counter="wedge"))
            expected = {0: 0}
            expected_edges = {0: set()}
            for batch in batches:
                reference.apply_batch(batch)
                expected[reference.updates_processed] = reference.count
                expected_edges[reference.updates_processed] = set(reference.graph.edges())

            samples = []
            full_reads = []
            writer_done = asyncio.Event()
            loop = asyncio.get_running_loop()

            async def reader():
                while not writer_done.is_set():
                    view = managed.view
                    samples.append((view.updates_processed, view.count))
                    # The full-state read may wait on the writer's command,
                    # so it runs on a worker thread, never on the loop.
                    loaded = await loop.run_in_executor(
                        None, managed.read_at, None, EngineView.load
                    )
                    snapshot = loaded.snapshot
                    full_reads.append(
                        (snapshot.updates_processed, snapshot.count, set(snapshot.edges))
                    )
                    await asyncio.sleep(0)

            async def writer():
                for batch in batches:
                    await managed.apply_updates(batch)
                writer_done.set()

            await asyncio.gather(writer(), *(reader() for _ in range(4)))
            assert samples, "readers never ran against the active writer"
            for processed, count in samples:
                assert processed in expected, (
                    f"torn read: {processed} updates is not a batch boundary"
                )
                assert count == expected[processed], (
                    f"read at boundary {processed} saw count {count}, "
                    f"reference says {expected[processed]}"
                )
            assert full_reads, "no full-state read ran against the active writer"
            for processed, count, edges in full_reads:
                assert count == expected[processed]
                assert edges == expected_edges[processed], (
                    f"full-state read at boundary {processed} saw another edge set"
                )
            # The readers genuinely interleaved with the writer: they saw
            # more than just the initial and final states.
            assert len({processed for processed, _ in samples}) > 2
            assert len({processed for processed, _, _ in full_reads}) > 2
            assert managed.view.updates_processed == len(updates)
            await registry.close()

        # A short switch interval interleaves the writer and reader threads
        # far more often than the default 5 ms would.
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            drive(scenario)
        finally:
            sys.setswitchinterval(previous)

    def test_command_responses_come_from_one_batch_boundary(self):
        """Regression: a command's response used to read the latest view after
        the command resolved, by which time the writer could have published
        the next producer's command — mixing two boundaries in one response.
        Producers post disjoint 4-cycles, so every boundary has exactly
        ``count * 4 == updates_processed``, and each command's response names
        its own boundary, so together they name every boundary once."""

        async def scenario():
            registry = EngineRegistry()
            managed = await registry.create(
                "alpha", {"counter": "wedge", "track_costs": False}
            )
            producers, posts = 3, 100
            responses = []

            async def producer(index):
                for post in range(posts):
                    base = 4 * (index * posts + post)
                    ring = [base, base + 1, base + 2, base + 3]
                    cycle = [
                        EdgeUpdate.insert(ring[i], ring[(i + 1) % 4]) for i in range(4)
                    ]
                    responses.append(await managed.apply_updates(cycle))

            await asyncio.gather(*(producer(index) for index in range(producers)))
            mixed = [
                response
                for response in responses
                if response["count"] * 4 != response["updates_processed"]
            ]
            assert not mixed, f"{len(mixed)} responses mix two boundaries: {mixed[:3]}"
            boundaries = sorted(response["updates_processed"] for response in responses)
            assert boundaries == list(range(4, 4 * producers * posts + 1, 4))
            await registry.close()

        drive(scenario)

    def test_snapshot_is_built_once_per_view_and_refused_once_stale(self):
        async def scenario():
            registry = EngineRegistry()
            managed = await registry.create("alpha", {"counter": "wedge"})
            loop = asyncio.get_running_loop()
            await managed.apply_updates([EdgeUpdate.insert(1, 2), EdgeUpdate.insert(2, 3)])
            built = managed.view
            snapshot = await loop.run_in_executor(None, lambda: built.snapshot)
            assert set(snapshot.edges) == {(1, 2), (2, 3)}
            assert snapshot.count == 0 and snapshot.updates_processed == 2
            await managed.apply_updates([EdgeUpdate.insert(3, 4)])
            unbuilt = managed.view
            await managed.apply_updates([EdgeUpdate.insert(4, 5)])
            # A view keeps the snapshot it built; one that never built it can
            # no longer, since the graph has moved past it.
            assert built.snapshot is snapshot
            with pytest.raises(EngineFailedError, match="moved past its view"):
                await loop.run_in_executor(None, lambda: unbuilt.snapshot)
            latest = await loop.run_in_executor(None, lambda: managed.view.snapshot)
            assert latest.updates_processed == 4 and len(latest.edges) == 4
            await registry.close()

        drive(scenario)


class TestFailStop:
    def test_crash_fails_tenant_and_releases_wal(self, tmp_path):
        async def scenario():
            registry = EngineRegistry()
            injector = FaultInjector([Fault(SITE_WAL_APPEND, ACTION_CRASH, at=2)])
            managed = await registry.create(
                "fragile",
                {"counter": "wedge", "wal_path": str(tmp_path / "fragile.wal")},
                fault_injector=injector,
            )
            healthy = await registry.create("healthy", {"counter": "wedge"})
            await managed.apply_updates([EdgeUpdate.insert(1, 2), EdgeUpdate.insert(2, 3)])
            with pytest.raises(InjectedCrashError):
                await managed.apply_updates([EdgeUpdate.insert(3, 4)])
            assert managed.failed is not None
            # The WAL fd was released at fail-stop, so recovery (here or in a
            # fresh process) can reopen the log.
            assert managed.engine.wal is None or managed.engine.wal.closed
            with pytest.raises(EngineFailedError, match="fail-stopped"):
                await managed.apply_updates([EdgeUpdate.insert(4, 5)])
            # The failure is the tenant's alone: other tenants keep serving.
            result = await healthy.apply_updates([EdgeUpdate.insert(1, 2)])
            assert result["updates_processed"] == 1
            assert registry.get("fragile").summary()["failed"] is not None
            await registry.close()

        drive(scenario)

    def test_buggy_operation_fails_tenant(self):
        async def scenario():
            registry = EngineRegistry()
            managed = await registry.create("alpha", {"counter": "wedge"})
            with pytest.raises(RuntimeError, match="operation bug"):
                await managed._submit(lambda engine: (_ for _ in ()).throw(
                    RuntimeError("operation bug")
                ))
            assert managed.failed is not None
            await registry.close()

        drive(scenario)


class TestEventBridge:
    def test_subscriber_queue_receives_batch_events(self):
        async def scenario():
            registry = EngineRegistry()
            managed = await registry.create("alpha", {"counter": "wedge"})
            queue = managed.subscribe_queue()
            await managed.apply_updates([EdgeUpdate.insert(1, 2), EdgeUpdate.insert(2, 3)])
            event = await asyncio.wait_for(queue.get(), timeout=5)
            assert event["engine"] == "alpha"
            assert event["kind"] == "batch-applied"
            assert event["updates_processed"] == 2
            managed.unsubscribe_queue(queue)
            await registry.close()

        drive(scenario)

    def test_close_sends_stream_sentinel(self):
        async def scenario():
            registry = EngineRegistry()
            managed = await registry.create("alpha", {"counter": "wedge"})
            queue = managed.subscribe_queue()
            await registry.delete("alpha")
            closed_event = await asyncio.wait_for(queue.get(), timeout=5)
            assert closed_event["kind"] == "engine-closed"
            assert await asyncio.wait_for(queue.get(), timeout=5) is None

        drive(scenario)

    def test_slow_subscriber_drops_oldest(self):
        async def scenario():
            registry = EngineRegistry()
            managed = await registry.create("alpha", {"counter": "wedge"})
            queue = managed.subscribe_queue(maxsize=2)
            for index in range(4):
                await managed.apply_updates([EdgeUpdate.insert(index, index + 100)])
            # Each committed single-update command emits one update-applied
            # event; a never-drained subscriber keeps only the newest two.
            assert queue.qsize() == 2
            newest = [queue.get_nowait(), queue.get_nowait()]
            assert [event["kind"] for event in newest] == ["update-applied"] * 2
            assert [event["updates_processed"] for event in newest] == [3, 4]
            await registry.close()

        drive(scenario)
