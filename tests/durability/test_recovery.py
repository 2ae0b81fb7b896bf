"""Engine durability integration and the recovery entry point.

The contract: a durable engine's count trajectory is identical to a plain
engine's; after any crash, :func:`repro.durability.recover` rebuilds an
engine whose count equals the uninterrupted run over the durable prefix and
whose subsequent trajectory is bit-identical.
"""

from __future__ import annotations

import json
import zlib

import pytest

from repro.api import EngineConfig, FourCycleEngine, available_counter_names
from repro.durability import (
    latest_valid_snapshot,
    list_snapshot_paths,
    recover,
    scan_wal,
)
import repro.durability.wal as wal_module
from repro.durability.wal import encode_wal_record, load_wal_meta, save_wal_meta
from repro.exceptions import (
    ConfigurationError,
    DuplicateEdgeError,
    InjectedCrashError,
    RecoverableEngineError,
)
from repro.faults import (
    ACTION_CRASH,
    ACTION_TORN_WRITE,
    SITE_SNAPSHOT_WRITE,
    SITE_WAL_APPEND,
    Fault,
    FaultInjector,
)
from repro.graph.updates import EdgeUpdate, normalize_batch
from tests.conftest import random_dynamic_stream
from tests.durability.conftest import logged


def stream(seed: int = 0, n: int = 80):
    return list(random_dynamic_stream(num_vertices=10, num_updates=n, seed=seed))


def windows(updates, size):
    return [updates[start : start + size] for start in range(0, len(updates), size)]


class TestDurableRuns:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError, match="snapshot_every requires wal_path"):
            EngineConfig(snapshot_every=5)
        with pytest.raises(ConfigurationError, match="fsync_policy"):
            EngineConfig(fsync_policy="later")

    def test_durable_trajectory_equals_plain(self, tmp_path):
        updates = stream()
        plain = FourCycleEngine("wedge")
        trajectory = [plain.apply(update) for update in updates]
        with FourCycleEngine(
            EngineConfig(counter="wedge", wal_path=str(tmp_path / "run.wal"))
        ) as durable:
            assert [durable.apply(update) for update in updates] == trajectory
            assert durable.last_durable_seq == len(updates) - 1

    def test_wal_records_match_applied_history(self, tmp_path):
        updates = stream(n=20)
        wal = tmp_path / "run.wal"
        with FourCycleEngine(EngineConfig(counter="wedge", wal_path=str(wal))) as engine:
            engine.run(updates)
        assert [update for _, update in logged(wal)] == updates

    def test_constructor_refuses_an_existing_log(self, tmp_path):
        wal = tmp_path / "run.wal"
        with FourCycleEngine(EngineConfig(counter="wedge", wal_path=str(wal))) as engine:
            engine.insert(0, 1)
        with pytest.raises(ConfigurationError, match="recover"):
            FourCycleEngine(EngineConfig(counter="wedge", wal_path=str(wal)))

    def test_meta_sidecar_written_on_attach(self, tmp_path):
        wal = tmp_path / "run.wal"
        with FourCycleEngine(
            EngineConfig(counter="wedge", batch_size=3, wal_path=str(wal))
        ):
            pass
        meta = load_wal_meta(wal)
        assert meta["counter"] == "wedge"
        assert meta["batch_size"] == 3
        assert meta["wal_path"] == str(wal)

    def test_rejected_update_is_rolled_back(self, tmp_path):
        wal = tmp_path / "run.wal"
        with FourCycleEngine(EngineConfig(counter="wedge", wal_path=str(wal))) as engine:
            engine.insert(0, 1)
            with pytest.raises(DuplicateEdgeError):
                engine.insert(0, 1)
            # The engine is still usable and the bad record never became durable.
            engine.insert(1, 2)
            assert engine.last_durable_seq == 1
        assert [update for _, update in logged(wal)] == [
            EdgeUpdate.insert(0, 1),
            EdgeUpdate.insert(1, 2),
        ]

    def test_pre_normalized_batch_is_refused_before_logging(self, tmp_path):
        # The log holds the raw windows updates_processed counts; a
        # normalized batch has dropped its cancelled pairs, so no log could
        # replay it to the same updates_processed.
        wal = tmp_path / "run.wal"
        raw = [EdgeUpdate.insert(2, 3), EdgeUpdate.delete(2, 3), EdgeUpdate.insert(3, 0)]
        with FourCycleEngine(EngineConfig(counter="wedge", wal_path=str(wal))) as engine:
            engine.apply_batch([EdgeUpdate.insert(0, 1), EdgeUpdate.insert(1, 2)])
            with pytest.raises(ConfigurationError, match="UpdateBatch"):
                engine.apply_batch(normalize_batch(raw, engine.graph.has_edge))
            assert (engine.updates_processed, engine.last_durable_seq) == (2, 1)
            assert scan_wal(wal).last_seq == 1
            # Not fail-stopped: the raw window goes through.
            engine.apply_batch(raw)
            live = (engine.count, engine.updates_processed, engine.last_durable_seq)
        recovered, report = recover(wal, attach=False)
        assert (recovered.count, recovered.updates_processed, report.last_seq) == live
        assert live[1:] == (5, 4)


class TestSnapshots:
    def test_periodic_generations_and_pruning(self, tmp_path):
        wal = tmp_path / "run.wal"
        with FourCycleEngine(
            EngineConfig(counter="wedge", wal_path=str(wal), snapshot_every=20)
        ) as engine:
            engine.run(stream())
        generations = list_snapshot_paths(wal)
        # 80 records at cadence 20 = 4 snapshots, pruned to the newest 2.
        assert [seq for seq, _ in generations] == [59, 79]

    def test_checkpoint_embeds_wal_seq(self, tmp_path):
        wal = tmp_path / "run.wal"
        with FourCycleEngine(EngineConfig(counter="wedge", wal_path=str(wal))) as engine:
            engine.run(stream(n=10))
            snapshot = engine.checkpoint()
        assert snapshot.wal_seq == 9
        plain = FourCycleEngine("wedge")
        assert plain.checkpoint().wal_seq is None

    def test_corrupt_newest_generation_falls_back(self, tmp_path):
        wal = tmp_path / "run.wal"
        with FourCycleEngine(
            EngineConfig(counter="wedge", wal_path=str(wal), snapshot_every=20)
        ) as engine:
            final = engine.run(stream())
        newest = list_snapshot_paths(wal)[-1][1]
        newest.write_text(newest.read_text(encoding="utf-8")[:100], encoding="utf-8")
        seq, _, path = latest_valid_snapshot(wal)
        assert seq == 59 and path != newest
        engine, report = recover(wal, attach=False)
        assert engine.count == final
        assert report.snapshot_seq == 59

    def test_every_generation_corrupt_means_full_replay(self, tmp_path):
        wal = tmp_path / "run.wal"
        with FourCycleEngine(
            EngineConfig(counter="wedge", wal_path=str(wal), snapshot_every=20)
        ) as engine:
            final = engine.run(stream())
        for _, path in list_snapshot_paths(wal):
            path.write_text("{}", encoding="utf-8")
        engine, report = recover(wal, attach=False)
        assert engine.count == final
        assert report.snapshot_path is None
        assert report.replayed_records == 80

    def test_restore_strips_durability_settings(self, tmp_path):
        wal = tmp_path / "run.wal"
        with FourCycleEngine(EngineConfig(counter="wedge", wal_path=str(wal))) as engine:
            engine.run(stream(n=10))
            snapshot = engine.checkpoint()
        clone = FourCycleEngine.restore(snapshot)
        assert clone.config.wal_path is None
        assert clone.wal is None
        assert clone.count == snapshot.count


class TestRecovery:
    def test_recover_then_continue_matches_reference(self, tmp_path):
        updates = stream(seed=3, n=90)
        reference = FourCycleEngine("wedge")
        trajectory = [reference.apply(update) for update in updates]
        wal = tmp_path / "run.wal"
        with FourCycleEngine(
            EngineConfig(counter="wedge", wal_path=str(wal), snapshot_every=25)
        ) as engine:
            for update in updates[:60]:
                engine.apply(update)
        recovered, report = recover(wal)
        assert report.last_seq == 59
        assert recovered.count == trajectory[59]
        for index in range(60, len(updates)):
            assert recovered.apply(updates[index]) == trajectory[index]
        assert recovered.is_consistent()
        recovered.close()
        # The continuation is durable too: a second recovery sees all of it.
        final, second = recover(wal, attach=False)
        assert final.count == trajectory[-1]
        assert second.last_seq == len(updates) - 1

    def test_recover_without_snapshot_uses_the_meta_sidecar(self, tmp_path):
        wal = tmp_path / "run.wal"
        with FourCycleEngine(EngineConfig(counter="hhh22", wal_path=str(wal))) as engine:
            final = engine.run(stream(n=30))
        recovered, report = recover(wal, attach=False)
        assert recovered.name == "hhh22"
        assert recovered.count == final
        assert report.snapshot_path is None

    def test_recover_without_any_config_raises(self, tmp_path):
        wal = tmp_path / "run.wal"
        with FourCycleEngine(EngineConfig(counter="wedge", wal_path=str(wal))) as engine:
            engine.run(stream(n=10))
        from repro.durability.wal import wal_meta_path

        wal_meta_path(wal).unlink()
        with pytest.raises(ConfigurationError, match="pass config="):
            recover(wal)

    def test_explicit_counter_name_overrides(self, tmp_path):
        wal = tmp_path / "run.wal"
        with FourCycleEngine(EngineConfig(counter="wedge", wal_path=str(wal))) as engine:
            final = engine.run(stream(n=30))
        recovered, _ = recover(wal, config="brute-force", attach=False)
        assert recovered.name == "brute-force"
        assert recovered.count == final

    def test_missing_log_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="does not exist"):
            recover(tmp_path / "nope.wal")

    def test_injected_crash_before_snapshot_loses_nothing(self, tmp_path):
        updates = stream(seed=5, n=60)
        reference = FourCycleEngine("wedge")
        trajectory = [reference.apply(update) for update in updates]
        wal = tmp_path / "run.wal"
        injector = FaultInjector([Fault(SITE_SNAPSHOT_WRITE, ACTION_CRASH, at=0)])
        engine = FourCycleEngine(
            EngineConfig(counter="wedge", wal_path=str(wal), snapshot_every=25),
            fault_injector=injector,
        )
        with pytest.raises(InjectedCrashError):
            for update in updates:
                engine.apply(update)
        recovered, report = recover(wal)
        # The crash hit the first snapshot point: the 25th record was durable
        # and applied, only the snapshot file itself is missing.
        assert report.snapshot_path is None
        assert report.last_seq == 24
        assert recovered.count == trajectory[report.last_seq]
        recovered.close()

    def test_injected_torn_snapshot_falls_back(self, tmp_path):
        updates = stream(seed=6, n=60)
        reference = FourCycleEngine("wedge")
        trajectory = [reference.apply(update) for update in updates]
        wal = tmp_path / "run.wal"
        injector = FaultInjector([Fault(SITE_SNAPSHOT_WRITE, ACTION_TORN_WRITE, at=1)])
        engine = FourCycleEngine(
            EngineConfig(counter="wedge", wal_path=str(wal), snapshot_every=20),
            fault_injector=injector,
        )
        with pytest.raises(InjectedCrashError):
            for update in updates:
                engine.apply(update)
        # The first generation landed; the second is torn on disk.
        assert len(list_snapshot_paths(wal)) == 2
        recovered, report = recover(wal)
        assert report.snapshot_seq == 19
        assert recovered.count == trajectory[39]
        recovered.close()


    def test_recover_reads_the_log_once(self, tmp_path, monkeypatch):
        wal = tmp_path / "run.wal"
        with FourCycleEngine(EngineConfig(counter="wedge", wal_path=str(wal))) as engine:
            for window in windows(stream(seed=4, n=40), 4):
                engine.apply_batch(window)
            final = engine.count
        whole = wal.read_bytes()
        torn = encode_wal_record(EdgeUpdate.insert(0, 1), 40)[:12]
        wal.write_bytes(whole + torn)
        decoded = []
        real_decode = wal_module.decode_wal_record

        def spy(line, *args, **kwargs):
            decoded.append(line)
            return real_decode(line, *args, **kwargs)

        monkeypatch.setattr(wal_module, "decode_wal_record", spy)
        recovered, report = recover(wal)
        # Every line decoded exactly once, the torn one included; the
        # re-attached writer truncated the tail from recovery's own pass.
        assert decoded == whole.splitlines(keepends=True) + [torn]
        assert report.torn_tail_dropped and report.replayed_records == 10
        assert recovered.count == final and wal.read_bytes() == whole
        recovered.apply(EdgeUpdate.insert(20, 21))
        assert recovered.last_durable_seq == 40
        recovered.close()
        assert len(decoded) == 11


class TestCounterFailureAfterLogging:
    """A failure that is not a :class:`ReproError` — a bug, say — after the
    window was logged must not leave the window in the log."""

    @pytest.mark.parametrize("window", [1, 5])
    def test_runtime_error_mid_window_rolls_the_log_back(self, tmp_path, monkeypatch, window):
        updates = stream(seed=10, n=40)
        wal = tmp_path / "run.wal"
        engine = FourCycleEngine(EngineConfig(counter="wedge", wal_path=str(wal)))
        engine.run(updates[:30])
        count_before, seq_before = engine.count, engine.last_durable_seq
        counter = engine.counter
        original = counter._apply_structure_delta
        calls = []

        def failing(u, v, sign):
            # The window's last update fails after the others were applied.
            calls.append((u, v))
            if len(calls) == window:
                raise RuntimeError("counter bug")
            original(u, v, sign)

        monkeypatch.setattr(counter, "_apply_structure_delta", failing)
        pending = updates[30 : 30 + window]
        with pytest.raises(RecoverableEngineError) as excinfo:
            if window == 1:
                engine.apply(pending[0])
            else:
                engine.apply_batch(pending)
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        assert excinfo.value.last_durable_seq == seq_before
        assert scan_wal(wal).last_seq == seq_before
        with pytest.raises(RecoverableEngineError):
            engine.apply(updates[35])
        engine.close()
        recovered, _ = recover(wal, attach=False)
        assert (recovered.count, recovered.updates_processed) == (count_before, 30)
        assert recovered.is_consistent()


class TestLegacyInternedKey:
    """Snapshots and ``<wal>.meta.json`` files written while the label-only
    graph mode existed carry ``"interned": true`` in their config."""

    @staticmethod
    def _rewrite_snapshot(path, interned):
        from repro.io.serialization import load_engine_snapshot, save_engine_snapshot

        payload = load_engine_snapshot(path)
        payload["config"]["interned"] = interned
        save_engine_snapshot(payload, path)

    def test_snapshot_restores_bit_identically(self, tmp_path):
        updates = stream(seed=4, n=90)
        reference = FourCycleEngine("assadi-shah")
        trajectory = [reference.apply(update) for update in updates]
        engine = FourCycleEngine("assadi-shah")
        engine.run(updates[:60])
        path = tmp_path / "legacy.snapshot.json"
        engine.checkpoint(path)
        self._rewrite_snapshot(path, True)
        restored = FourCycleEngine.restore(path)
        assert restored.count == trajectory[59]
        assert [restored.apply(update) for update in updates[60:]] == trajectory[60:]
        assert restored.is_consistent()

    def test_snapshot_generation_and_meta_recover_bit_identically(self, tmp_path):
        updates = stream(seed=5, n=90)
        reference = FourCycleEngine("wedge")
        trajectory = [reference.apply(update) for update in updates]
        wal = tmp_path / "run.wal"
        with FourCycleEngine(
            EngineConfig(counter="wedge", wal_path=str(wal), snapshot_every=25)
        ) as engine:
            engine.run(updates[:60])
        save_wal_meta(wal, dict(load_wal_meta(wal), interned=True))
        for _, path in list_snapshot_paths(wal):
            self._rewrite_snapshot(path, True)
        recovered, report = recover(wal, attach=False)
        assert report.snapshot_path is not None
        assert recovered.count == trajectory[59]
        assert [recovered.apply(update) for update in updates[60:]] == trajectory[60:]

    def test_meta_without_snapshot_recovers_bit_identically(self, tmp_path):
        updates = stream(seed=6, n=40)
        wal = tmp_path / "run.wal"
        with FourCycleEngine(EngineConfig(counter="hhh22", wal_path=str(wal))) as engine:
            final = engine.run(updates)
        save_wal_meta(wal, dict(load_wal_meta(wal), interned=True))
        recovered, report = recover(wal, attach=False)
        assert report.snapshot_path is None
        assert (recovered.name, recovered.count) == ("hhh22", final)
        assert recovered.is_consistent()

    def test_interned_false_is_refused(self, tmp_path):
        engine = FourCycleEngine("wedge")
        engine.run(stream(n=20))
        path = tmp_path / "label-only.snapshot.json"
        engine.checkpoint(path)
        self._rewrite_snapshot(path, False)
        with pytest.raises(ConfigurationError, match="label-only"):
            FourCycleEngine.restore(path)
        wal = tmp_path / "run.wal"
        with FourCycleEngine(EngineConfig(counter="wedge", wal_path=str(wal))) as durable:
            durable.run(stream(n=20))
        save_wal_meta(wal, dict(load_wal_meta(wal), interned=False))
        with pytest.raises(ConfigurationError, match="label-only"):
            recover(wal, attach=False)


class TestLegacyKernelKeys:
    """Configs written while the kernel settings existed carry ``backend``,
    ``shard_policy`` and ``block_entries`` in every snapshot and
    ``<wal>.meta.json``; they load, and recover bit-identically."""

    #: The non-default values such a config could hold.
    LEGACY = {"backend": "csr", "shard_policy": "thread", "block_entries": 4096}

    @staticmethod
    def _rewrite_snapshot(path, keys):
        from repro.io.serialization import load_engine_snapshot, save_engine_snapshot

        payload = load_engine_snapshot(path)
        payload["config"].update(keys)
        save_engine_snapshot(payload, path)

    def test_snapshot_restores_bit_identically(self, tmp_path):
        updates = stream(seed=7, n=120)
        reference = FourCycleEngine(EngineConfig(counter="assadi-shah", batch_size=40))
        trajectory = [reference.apply_batch(window) for window in windows(updates, 40)]
        engine = FourCycleEngine(EngineConfig(counter="assadi-shah", batch_size=40))
        engine.run(updates[:80])
        path = tmp_path / "legacy.snapshot.json"
        engine.checkpoint(path)
        self._rewrite_snapshot(path, self.LEGACY)
        restored = FourCycleEngine.restore(path)
        assert restored.config == engine.config
        assert restored.count == trajectory[1]
        assert restored.apply_batch(updates[80:]) == trajectory[2]
        assert restored.is_consistent()

    def test_snapshot_generation_and_meta_recover_bit_identically(self, tmp_path):
        updates = stream(seed=8, n=90)
        reference = FourCycleEngine("hhh22")
        trajectory = [reference.apply(update) for update in updates]
        wal = tmp_path / "run.wal"
        with FourCycleEngine(
            EngineConfig(counter="hhh22", wal_path=str(wal), snapshot_every=25)
        ) as engine:
            engine.run(updates[:60])
        save_wal_meta(wal, dict(load_wal_meta(wal), **self.LEGACY))
        for _, path in list_snapshot_paths(wal):
            self._rewrite_snapshot(path, self.LEGACY)
        recovered, report = recover(wal, attach=False)
        assert report.snapshot_path is not None
        assert recovered.count == trajectory[59]
        assert [recovered.apply(update) for update in updates[60:]] == trajectory[60:]

    def test_meta_without_snapshot_recovers_bit_identically(self, tmp_path):
        updates = stream(seed=9, n=40)
        wal = tmp_path / "run.wal"
        with FourCycleEngine(EngineConfig(counter="wedge", wal_path=str(wal))) as engine:
            final = engine.run(updates)
        save_wal_meta(wal, dict(load_wal_meta(wal), **self.LEGACY))
        recovered, report = recover(wal, attach=False)
        assert report.snapshot_path is None
        assert (recovered.name, recovered.count) == ("wedge", final)
        assert recovered.is_consistent()

    def test_values_the_old_version_refused_are_refused(self, tmp_path):
        engine = FourCycleEngine("wedge")
        engine.run(stream(n=20))
        path = tmp_path / "bad.snapshot.json"
        engine.checkpoint(path)
        self._rewrite_snapshot(path, {"backend": "quantum"})
        with pytest.raises(ConfigurationError, match="backend="):
            FourCycleEngine.restore(path)
        wal = tmp_path / "run.wal"
        with FourCycleEngine(EngineConfig(counter="wedge", wal_path=str(wal))) as durable:
            durable.run(stream(n=20))
        save_wal_meta(wal, dict(load_wal_meta(wal), shard_policy="gpu"))
        with pytest.raises(ConfigurationError, match="shard_policy="):
            recover(wal, attach=False)


class TestLegacyRecordMetricsKey:
    """Configs written while the counters had their own per-update recorder
    carry ``record_metrics`` in every snapshot and ``<wal>.meta.json``."""

    def test_snapshot_restores_bit_identically(self, tmp_path):
        from repro.io.serialization import load_engine_snapshot, save_engine_snapshot

        updates = stream(seed=10, n=90)
        reference = FourCycleEngine("assadi-shah")
        trajectory = [reference.apply(update) for update in updates]
        engine = FourCycleEngine("assadi-shah")
        engine.run(updates[:60])
        path = tmp_path / "legacy.snapshot.json"
        engine.checkpoint(path)
        payload = load_engine_snapshot(path)
        payload["config"]["record_metrics"] = True
        save_engine_snapshot(payload, path)
        restored = FourCycleEngine.restore(path)
        assert restored.config == engine.config
        assert restored.count == trajectory[59]
        assert [restored.apply(update) for update in updates[60:]] == trajectory[60:]
        assert restored.is_consistent()

    def test_meta_without_snapshot_recovers_bit_identically(self, tmp_path):
        updates = stream(seed=11, n=60)
        reference = FourCycleEngine("hhh22")
        trajectory = [reference.apply(update) for update in updates]
        wal = tmp_path / "run.wal"
        with FourCycleEngine(EngineConfig(counter="hhh22", wal_path=str(wal))) as engine:
            engine.run(updates[:40])
        save_wal_meta(wal, dict(load_wal_meta(wal), record_metrics=True))
        recovered, report = recover(wal, attach=False)
        assert report.snapshot_path is None
        assert (recovered.name, recovered.count) == ("hhh22", trajectory[39])
        assert [recovered.apply(update) for update in updates[40:]] == trajectory[40:]


class TestLegacyWedgeIncrementalOption:
    """Wedge configs written while the counter had its incremental batch mode
    carry ``"options": {"incremental": ...}`` in every snapshot and
    ``<wal>.meta.json``, with whatever value that version stored unchecked;
    they recover bit-identically, the option dropped."""

    @pytest.mark.parametrize("value", [None, True, False, 1, "auto"])
    def test_snapshot_generation_and_meta_recover_bit_identically(self, tmp_path, value):
        from repro.io.serialization import load_engine_snapshot, save_engine_snapshot

        updates = stream(seed=12, n=90)
        reference = FourCycleEngine("wedge")
        trajectory = [reference.apply(update) for update in updates]
        wal = tmp_path / "run.wal"
        with FourCycleEngine(
            EngineConfig(counter="wedge", wal_path=str(wal), snapshot_every=25)
        ) as engine:
            engine.run(updates[:60])
        save_wal_meta(wal, dict(load_wal_meta(wal), options={"incremental": value}))
        for _, path in list_snapshot_paths(wal):
            payload = load_engine_snapshot(path)
            payload["config"]["options"] = {"incremental": value}
            save_engine_snapshot(payload, path)
        recovered, report = recover(wal, attach=False)
        assert report.snapshot_path is not None
        assert recovered.config.options == {}
        assert recovered.count == trajectory[59]
        assert [recovered.apply(update) for update in updates[60:]] == trajectory[60:]


class TestReplayWindows:
    """Replay merges records into windows of at least the engine's n + m."""

    @pytest.mark.parametrize("with_snapshot", [False, True], ids=["full-log", "snapshot"])
    @pytest.mark.parametrize("counter", sorted(available_counter_names()))
    def test_windows_match_per_update_replay(self, counter, with_snapshot, tmp_path, monkeypatch):
        updates = list(random_dynamic_stream(num_vertices=12, num_updates=240, seed=7))
        reference = FourCycleEngine(counter)
        for update in updates:
            reference.apply(update)
        wal = tmp_path / "churn.wal"
        config = EngineConfig(
            counter=counter,
            wal_path=str(wal),
            snapshot_every=200 if with_snapshot else None,
        )
        with FourCycleEngine(config) as engine:
            for window in windows(updates, 5):
                engine.apply_batch(window)
        calls = []
        real_apply_batch = FourCycleEngine.apply_batch

        def spy(engine, window):
            calls.append((len(window), engine.num_vertices + engine.num_edges))
            return real_apply_batch(engine, window)

        monkeypatch.setattr(FourCycleEngine, "apply_batch", spy)
        recovered, report = recover(wal, attach=False)
        assert recovered.count == reference.count
        assert recovered.updates_processed == reference.updates_processed == 240
        assert recovered.is_consistent()
        *merged, final = calls
        assert final[0] == 5  # the final record, applied alone
        tail = 240 - (report.snapshot_seq + 1)
        assert sum(size for size, _ in calls) == tail
        assert report.replayed_records == tail // 5
        # Every merged window but the last reaches n + m; the last holds what
        # remains before the final record.
        assert all(size >= cost for size, cost in merged[:-1])
        if with_snapshot:
            assert report.snapshot_seq == 199
            assert len(merged) == 1 and merged[0][0] == tail - 5 < merged[0][1]
        else:
            assert report.snapshot_path is None and len(merged) > 2


class TestFailStop:
    def _engine_with_poisoned_batch(self, tmp_path):
        wal = tmp_path / "run.wal"
        engine = FourCycleEngine(EngineConfig(counter="wedge", wal_path=str(wal)))
        engine.insert(0, 1)
        return engine, wal

    def test_mid_batch_failure_is_fail_stop(self, tmp_path):
        engine, wal = self._engine_with_poisoned_batch(tmp_path)
        bad_batch = [EdgeUpdate.insert(1, 2), EdgeUpdate.insert(0, 1)]  # duplicate
        with pytest.raises(RecoverableEngineError) as excinfo:
            engine.apply_batch(bad_batch)
        assert excinfo.value.last_durable_seq == 0
        # The poisoned window was rolled back: the log equals applied history.
        assert [seq for seq, _ in logged(wal)] == [0]
        # Every further mutation refuses with the same recovery pointer.
        with pytest.raises(RecoverableEngineError):
            engine.insert(5, 6)
        engine.close()

    def test_recovery_resumes_from_the_rollback_point(self, tmp_path):
        engine, wal = self._engine_with_poisoned_batch(tmp_path)
        with pytest.raises(RecoverableEngineError):
            engine.apply_batch([EdgeUpdate.insert(1, 2), EdgeUpdate.insert(0, 1)])
        engine.close()
        recovered, report = recover(wal)
        assert report.last_seq == 0
        assert recovered.num_edges == 1
        recovered.apply_batch([EdgeUpdate.insert(1, 2), EdgeUpdate.insert(2, 3)])
        assert recovered.is_consistent()
        recovered.close()


class TestRejectedTail:
    def _durable_pair(self, tmp_path):
        wal = tmp_path / "run.wal"
        with FourCycleEngine(EngineConfig(counter="wedge", wal_path=str(wal))) as engine:
            engine.insert(0, 1)
            engine.insert(1, 2)
            final = engine.count
        return wal, final

    def test_committed_but_rejected_final_record_is_dropped(self, tmp_path):
        wal, final = self._durable_pair(tmp_path)
        # Simulate a crash between the WAL commit and the rollback truncate:
        # a record the counter rejected survives as the final log record.
        with wal.open("ab") as handle:
            handle.write(encode_wal_record(EdgeUpdate.insert(0, 1), 2))
        recovered, report = recover(wal)
        assert report.rejected_tail_dropped
        assert report.last_seq == 1
        assert report.replayed_records == 2
        assert recovered.count == final
        # The rejected record is gone from the log, the next update takes its
        # sequence number, and a second recovery sees a clean history.
        recovered.apply(EdgeUpdate.insert(2, 3))
        assert recovered.last_durable_seq == 2
        recovered.close()
        _, second = recover(wal, attach=False)
        assert not second.rejected_tail_dropped
        assert second.last_seq == 2

    def test_unhashable_label_in_the_final_record_is_dropped(self, tmp_path):
        """Earlier versions logged a window with a JSON-object label before
        refusing it, so it can only be the final record."""
        wal, final = self._durable_pair(tmp_path)
        body = json.dumps(
            {"seq": 2, "updates": [[{"x": 1}, 6, "insert"]]}, separators=(",", ":")
        ).encode("utf-8")
        with wal.open("ab") as handle:
            handle.write(b"%08x %s\n" % (zlib.crc32(body), body))
        recovered, report = recover(wal, attach=False)
        assert report.rejected_tail_dropped
        assert (report.last_seq, report.replayed_records) == (1, 2)
        assert recovered.count == final
        assert [seq for seq, _ in logged(wal)] == [0, 1]
        _, second = recover(wal, attach=False)
        assert not second.rejected_tail_dropped

    def test_rejection_before_the_tail_still_raises(self, tmp_path):
        wal, _ = self._durable_pair(tmp_path)
        # Write-ahead order can only leave ONE rejected record, at the tail;
        # a rejection mid-log is real corruption and must propagate.
        with wal.open("ab") as handle:
            handle.write(encode_wal_record(EdgeUpdate.insert(0, 1), 2))
            handle.write(encode_wal_record(EdgeUpdate.insert(3, 4), 3))
        with pytest.raises(DuplicateEdgeError):
            recover(wal)


class TestCompaction:
    def test_compact_snapshots_then_empties_the_log(self, tmp_path):
        wal = tmp_path / "run.wal"
        with FourCycleEngine(EngineConfig(counter="wedge", wal_path=str(wal))) as engine:
            final = engine.run(stream(n=40))
            assert engine.compact_wal() == 0
        assert scan_wal(wal).num_records == 0
        recovered, report = recover(wal, attach=False)
        assert recovered.count == final
        assert report.replayed_records == 0
        assert report.snapshot_seq == 39

    def test_rejected_update_after_compaction_keeps_the_sequence(self, tmp_path):
        # Regression: the rollback truncate on a freshly compacted (empty)
        # log must not reset the sequence counter to zero — later updates
        # would land below the snapshot's wal_seq and recovery would
        # silently skip them.
        wal = tmp_path / "run.wal"
        with FourCycleEngine(EngineConfig(counter="wedge", wal_path=str(wal))) as engine:
            engine.insert(0, 1)
            engine.insert(1, 2)
            engine.compact_wal()  # snapshot at seq 1, log now empty
            with pytest.raises(DuplicateEdgeError):
                engine.insert(0, 1)
            engine.insert(2, 3)
            assert engine.last_durable_seq == 2
            final = engine.count
        assert [seq for seq, _ in logged(wal)] == [2]
        recovered, report = recover(wal, attach=False)
        assert report.replayed_records == 1
        assert report.last_seq == 2
        assert recovered.count == final
        assert recovered.num_edges == 3

    def test_appends_after_compaction_recover(self, tmp_path):
        updates = stream(seed=9, n=50)
        reference = FourCycleEngine("wedge")
        trajectory = [reference.apply(update) for update in updates]
        wal = tmp_path / "run.wal"
        with FourCycleEngine(EngineConfig(counter="wedge", wal_path=str(wal))) as engine:
            for update in updates[:30]:
                engine.apply(update)
            engine.compact_wal()
            for update in updates[30:]:
                engine.apply(update)
        recovered, report = recover(wal, attach=False)
        assert report.replayed_records == 20
        assert recovered.count == trajectory[-1]

    def test_cli_recover_reports_and_verifies(self, tmp_path, capsys):
        from repro.cli import main

        wal = tmp_path / "run.wal"
        with FourCycleEngine(EngineConfig(counter="wedge", wal_path=str(wal))) as engine:
            final = engine.run(stream(n=30))
        assert main(["recover", str(wal)]) == 0
        out = capsys.readouterr().out
        assert f"count           {final}" in out
        assert "consistent      yes" in out

    def test_cli_recover_compact(self, tmp_path, capsys):
        from repro.cli import main

        wal = tmp_path / "run.wal"
        with FourCycleEngine(EngineConfig(counter="wedge", wal_path=str(wal))) as engine:
            engine.run(stream(n=30))
        assert main(["recover", str(wal), "--compact"]) == 0
        assert "compacted       log now holds 0 record(s)" in capsys.readouterr().out
        assert scan_wal(wal).num_records == 0

    def test_cli_recover_missing_log_fails(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["recover", str(tmp_path / "nope.wal")]) == 1
        assert "recovery failed" in capsys.readouterr().err

    @pytest.mark.parametrize("failing_step", ["is_consistent", "compact_wal"])
    def test_cli_recover_closes_engine_on_raising_verification(
        self, tmp_path, capsys, monkeypatch, failing_step
    ):
        """Regression: the recovered engine (and its WAL fd) leaked when the
        consistency check or compaction raised after a successful recover."""
        import repro.durability as durability
        from repro.cli import main
        from repro.exceptions import CounterStateError

        wal = tmp_path / "run.wal"
        with FourCycleEngine(EngineConfig(counter="wedge", wal_path=str(wal))) as engine:
            engine.run(stream(n=20))

        captured = {}
        real_recover = durability.recover

        def capturing_recover(*args, **kwargs):
            recovered, report = real_recover(*args, **kwargs)
            captured["engine"] = recovered

            def raising(*_args, **_kwargs):
                raise CounterStateError("verification blew up")

            monkeypatch.setattr(recovered, failing_step, raising)
            return recovered, report

        monkeypatch.setattr(durability, "recover", capturing_recover)
        assert main(["recover", str(wal), "--compact"]) == 1
        assert "recovery failed: verification blew up" in capsys.readouterr().err
        assert captured["engine"].wal.closed
