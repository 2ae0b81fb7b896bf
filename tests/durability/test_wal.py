"""The write-ahead log: codec, the one reader, and the writer.

The load-bearing contracts: each committed window is one record, framed by a
CRC32 over its body bytes as written; a torn *final* record is forgiven (and
truncated on reopen) while damage anywhere else raises; a log in the
per-update format of earlier versions is refused by name; sequence numbers
are per update, contiguous across records, and survive rollback, compaction,
and reopen.
"""

from __future__ import annotations

import json
import zlib

import pytest

import repro.durability.wal as wal_module
from repro.api.sources import ReplaySource
from repro.durability.wal import (
    WriteAheadLog,
    decode_wal_record,
    encode_wal_record,
    load_wal_meta,
    replay_wal,
    save_wal_meta,
    scan_wal,
    wal_meta_path,
)
from repro.exceptions import ConfigurationError, DurabilityError, WalCorruptionError
from repro.graph.updates import EdgeUpdate
from tests.durability.conftest import logged


def some_updates(n: int = 6) -> list:
    updates = []
    for index in range(n):
        constructor = EdgeUpdate.insert if index % 3 else EdgeUpdate.delete
        if index % 3 == 0:
            constructor = EdgeUpdate.insert
        updates.append(constructor(index, index + 1))
    return updates


def write_windows(path, sizes) -> list:
    """Append windows of the given sizes; returns each window's seq range."""
    updates = iter(some_updates(sum(sizes)))
    with WriteAheadLog(path) as wal:
        return [wal.append_batch([next(updates) for _ in range(size)]) for size in sizes]


class TestRecordCodec:
    def test_roundtrip(self):
        window = [EdgeUpdate.insert("a", "b"), EdgeUpdate.delete(3, 4)]
        line = encode_wal_record(window, 7)
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        assert decode_wal_record(line) == (7, window)
        single = EdgeUpdate.insert(1, 2)
        assert decode_wal_record(encode_wal_record(single, 0)) == (0, [single])

    def test_crc_covers_the_body_bytes_as_written(self):
        line = encode_wal_record([EdgeUpdate.insert(1, 2)], 0)
        crc, body = line[:8], line[9:-1]
        assert json.loads(body) == {"seq": 0, "updates": [[1, 2, "insert"]]}
        assert int(crc, 16) == zlib.crc32(body)

    def test_crc_catches_a_flipped_byte(self):
        line = bytearray(encode_wal_record([EdgeUpdate.insert(1, 2)], 0))
        line[len(line) // 2] ^= 0x01
        with pytest.raises(WalCorruptionError, match="CRC"):
            decode_wal_record(bytes(line))

    def test_missing_crc_rejected(self):
        bare = json.dumps({"seq": 0, "updates": [[1, 2, "insert"]]}).encode()
        with pytest.raises(WalCorruptionError, match="CRC32 frame"):
            decode_wal_record(b"0 " + bare + b"\n")

    def test_a_record_without_its_newline_is_torn(self):
        line = encode_wal_record([EdgeUpdate.insert(1, 2)], 0)
        with pytest.raises(WalCorruptionError, match="torn"):
            decode_wal_record(line[:-1])


class TestReader:
    def test_per_update_format_of_earlier_versions_is_refused_by_name(self, tmp_path):
        path = tmp_path / "old.wal"
        old_lines = [
            {"crc": 1, "kind": "insert", "seq": 0, "u": 0, "v": 1},
            {"crc": 2, "kind": "insert", "seq": 1, "u": 1, "v": 2},
        ]
        for count in (2, 1):
            # A one-line old log would otherwise pass for a torn tail and be
            # truncated away on reopen.
            body = "".join(json.dumps(line) + "\n" for line in old_lines[:count])
            path.write_text(body, encoding="utf-8")
            for read in (scan_wal, WriteAheadLog):
                with pytest.raises(DurabilityError, match="per-update") as excinfo:
                    read(path)
                assert not isinstance(excinfo.value, WalCorruptionError)
            assert path.read_text(encoding="utf-8") == body

    def test_records_carry_their_byte_offsets(self, tmp_path):
        path = tmp_path / "log.wal"
        write_windows(path, [3, 1, 2])
        data = path.read_bytes()
        records = list(replay_wal(path))
        assert [(record.seq, record.last_seq) for record in records] == [(0, 2), (3, 3), (4, 5)]
        for record in records:
            line = data[record.offset :].split(b"\n", 1)[0] + b"\n"
            assert decode_wal_record(line) == (record.seq, record.updates)


class TestWriter:
    def test_append_then_scan(self, tmp_path):
        path = tmp_path / "log.wal"
        with WriteAheadLog(path) as wal:
            first = wal.append_batch(some_updates(3))
            second = wal.append_batch(some_updates(5)[3:])
            wal.commit()
        assert (list(first), list(second)) == ([0, 1, 2], [3, 4])
        assert len(path.read_bytes().splitlines()) == 2
        scan = scan_wal(path)
        assert (scan.last_seq, scan.num_records) == (4, 2)
        assert scan.valid_bytes == path.stat().st_size
        assert not scan.torn_tail
        assert logged(path) == list(enumerate(some_updates(5)))

    def test_an_empty_window_writes_nothing(self, tmp_path):
        path = tmp_path / "log.wal"
        with WriteAheadLog(path) as wal:
            assert list(wal.append_batch([])) == []
        assert path.read_bytes() == b""

    def test_reopen_continues_the_sequence(self, tmp_path):
        path = tmp_path / "log.wal"
        with WriteAheadLog(path) as wal:
            wal.append_batch(some_updates(2))
        with WriteAheadLog(path) as wal:
            assert wal.last_seq == 1
            assert wal.append(EdgeUpdate.insert(1, 2)) == 2
        assert [seq for seq, _ in logged(path)] == [0, 1, 2]

    def test_reopen_truncates_a_torn_tail(self, tmp_path):
        path = tmp_path / "log.wal"
        write_windows(path, [2, 1])
        whole = path.read_bytes()
        torn = encode_wal_record(some_updates(4)[3:], 3)
        path.write_bytes(whole + torn[: len(torn) - 1])
        wal = WriteAheadLog(path)
        assert wal.reopened_torn_tail
        assert wal.last_seq == 2
        wal.close()
        assert path.read_bytes() == whole

    def test_a_handed_scan_truncates_a_torn_tail_without_reading(self, tmp_path, monkeypatch):
        path = tmp_path / "log.wal"
        write_windows(path, [2, 1])
        whole = path.read_bytes()
        path.write_bytes(whole + encode_wal_record(some_updates(4)[3:], 3)[:9])
        scan = scan_wal(path)
        assert scan.torn_tail and scan.valid_bytes == len(whole)

        def no_second_read(*args, **kwargs):
            raise AssertionError("the writer read the log again")

        monkeypatch.setattr(wal_module, "replay_wal", no_second_read)
        monkeypatch.setattr(wal_module, "decode_wal_record", no_second_read)
        wal = WriteAheadLog(path, scan=scan)
        assert wal.reopened_torn_tail and wal.last_seq == 2
        wal.close()
        assert path.read_bytes() == whole

    def test_mid_file_corruption_raises_on_reopen(self, tmp_path):
        path = tmp_path / "log.wal"
        write_windows(path, [1, 2, 1, 2])
        lines = path.read_bytes().splitlines(keepends=True)
        damaged = bytearray(lines[1])
        damaged[len(damaged) // 2] ^= 0x01
        lines[1] = bytes(damaged)
        path.write_bytes(b"".join(lines))
        with pytest.raises(WalCorruptionError, match="CRC"):
            WriteAheadLog(path)
        with pytest.raises(WalCorruptionError, match="CRC"):
            scan_wal(path)

    def test_sequence_gap_is_corruption(self, tmp_path):
        path = tmp_path / "log.wal"
        with path.open("wb") as handle:
            handle.write(encode_wal_record(some_updates(2), 0))
            handle.write(encode_wal_record([EdgeUpdate.insert(1, 2)], 5))
        with pytest.raises(WalCorruptionError, match="gap"):
            scan_wal(path)

    def test_truncate_to_seq_rolls_back(self, tmp_path):
        path = tmp_path / "log.wal"
        write_windows(path, [2, 3, 1, 2])  # records 0..1, 2..4, 5, 6..7
        wal = WriteAheadLog(path)
        # The log divides only between records: a seq inside one raises and
        # leaves the log as it was.
        with pytest.raises(ConfigurationError, match="inside the record"):
            wal.truncate_to_seq(3)
        assert wal.last_seq == 7 and scan_wal(path).num_records == 4
        wal.truncate_to_seq(4)
        assert wal.last_seq == 4
        assert [seq for seq, _ in logged(path)] == [0, 1, 2, 3, 4]
        # The writer resumes exactly after the kept prefix.
        assert wal.append(EdgeUpdate.insert(50, 51)) == 5
        wal.truncate_to_seq(1)
        assert [seq for seq, _ in logged(path)] == [0, 1]
        assert list(wal.append_batch(some_updates(2))) == [2, 3]
        wal.close()
        assert [seq for seq, _ in logged(path)] == [0, 1, 2, 3]

    def test_truncate_after_compaction_keeps_the_sequence(self, tmp_path):
        # A rollback on a freshly compacted (empty) log must continue the
        # sequence from the rollback point, not restart at zero — restarting
        # would put later records below the snapshot's wal_seq, and recovery
        # would silently skip them.
        path = tmp_path / "log.wal"
        wal = WriteAheadLog(path)
        wal.append_batch(some_updates(4))
        wal.compact(keep_after_seq=3)
        assert wal.append(EdgeUpdate.insert(70, 71)) == 4
        wal.truncate_to_seq(3)
        assert wal.last_seq == 3
        assert wal.append(EdgeUpdate.insert(80, 81)) == 4
        wal.close()
        assert [seq for seq, _ in logged(path)] == [4]

    def test_compact_preserves_sequence_numbers(self, tmp_path):
        path = tmp_path / "log.wal"
        write_windows(path, [3, 1, 2])  # records 0..2, 3, 4..5
        kept_bytes = path.read_bytes().splitlines(keepends=True)[2]
        wal = WriteAheadLog(path)
        with pytest.raises(ConfigurationError, match="inside the record"):
            wal.compact(keep_after_seq=4)
        kept = wal.compact(keep_after_seq=3)
        assert kept == 1
        # The kept record is copied byte for byte, not re-encoded.
        assert path.read_bytes() == kept_bytes
        assert [seq for seq, _ in logged(path)] == [4, 5]
        assert wal.append(EdgeUpdate.insert(60, 61)) == 6
        wal.close()
        reopened = WriteAheadLog(path)
        assert reopened.last_seq == 6
        reopened.close()

    def test_min_next_seq_floors_an_empty_log(self, tmp_path):
        path = tmp_path / "log.wal"
        wal = WriteAheadLog(path, min_next_seq=10)
        assert wal.append(EdgeUpdate.insert(0, 1)) == 10
        wal.close()

    def test_invalid_fsync_policy(self, tmp_path):
        with pytest.raises(ConfigurationError, match="fsync_policy"):
            WriteAheadLog(tmp_path / "log.wal", fsync_policy="sometimes")

    @pytest.mark.parametrize("policy", ["always", "batch", "never"])
    def test_every_policy_writes_identical_bytes(self, tmp_path, policy):
        path = tmp_path / f"{policy}.wal"
        with WriteAheadLog(path, fsync_policy=policy) as wal:
            wal.append_batch(some_updates(4)[:3])
            wal.append(some_updates(4)[3])
            wal.commit()
        reference = encode_wal_record(some_updates(4)[:3], 0) + encode_wal_record(
            some_updates(4)[3], 3
        )
        assert path.read_bytes() == reference

    def test_close_is_idempotent_and_blocks_appends(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "log.wal")
        wal.close()
        wal.close()
        with pytest.raises(ConfigurationError, match="closed"):
            wal.append(EdgeUpdate.insert(0, 1))


class TestFsyncAccounting:
    @pytest.fixture
    def fsync_calls(self, monkeypatch):
        import os

        calls = []
        real = os.fsync

        def counting_fsync(fd):
            calls.append(fd)
            return real(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        return calls

    def test_always_policy_syncs_once_per_record(self, tmp_path, fsync_calls):
        # append_batch() already synced the window's one record, so the
        # engine's commit() must not pay a second fsync.
        with WriteAheadLog(tmp_path / "log.wal", fsync_policy="always") as wal:
            wal.append_batch(some_updates(4))
            wal.commit()
            assert len(fsync_calls) == 1
            wal.append(EdgeUpdate.insert(9, 10))
            wal.commit()
            assert len(fsync_calls) == 2

    def test_commit_is_a_noop_when_clean(self, tmp_path, fsync_calls):
        with WriteAheadLog(tmp_path / "log.wal", fsync_policy="batch") as wal:
            wal.append(EdgeUpdate.insert(0, 1))
            wal.commit()
            wal.commit()
            assert len(fsync_calls) == 1

    def test_compact_respects_the_never_policy(self, tmp_path, fsync_calls):
        wal = WriteAheadLog(tmp_path / "log.wal", fsync_policy="never")
        wal.append_batch(some_updates(2))
        wal.append_batch(some_updates(4)[2:])
        wal.compact(keep_after_seq=1)
        # Only the atomic-rewrite tmp file is synced; the live log never is.
        assert len(fsync_calls) == 1
        wal.close()
        assert len(fsync_calls) == 1


class TestMetaSidecar:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "log.wal"
        config = {"counter": "wedge", "batch_size": 3}
        save_wal_meta(path, config)
        assert wal_meta_path(path).exists()
        assert load_wal_meta(path) == config

    def test_absent_is_none(self, tmp_path):
        assert load_wal_meta(tmp_path / "log.wal") is None

    def test_malformed_raises(self, tmp_path):
        path = tmp_path / "log.wal"
        wal_meta_path(path).write_text("not json", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="JSON"):
            load_wal_meta(path)


class TestReplaySourceTornTail:
    def test_strict_mode_raises_with_location(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text('{"u": 1, "v": 2, "kind": "insert"}\n{"u": 3, "v":', encoding="utf-8")
        with pytest.raises(ConfigurationError, match=r"stream\.jsonl:2"):
            list(ReplaySource(path))
