"""Crash-safe durability for :class:`~repro.api.engine.FourCycleEngine`.

Three pieces:

* :mod:`repro.durability.wal` — :class:`WriteAheadLog`, an append-only update
  log with one CRC32-framed JSON record per committed window (per-update
  sequence numbers, contiguous across records), configurable fsync policy and
  crash-tolerant reopen, and :func:`replay_wal`, the one reader that
  validates and yields its records in a single pass;
* :mod:`repro.durability.snapshots` — checkpoint generations next to the log
  (``<wal>.snap-<seq>.json``), newest-valid-wins selection, pruning;
* :mod:`repro.durability.recovery` — :func:`recover`, which rebuilds an
  engine from the latest valid snapshot plus the WAL tail in one read of the
  log, tolerating exactly one torn (or counter-rejected) final record, and
  re-attaches the log.
"""

from repro.durability.recovery import RecoveryReport, recover
from repro.durability.snapshots import (
    DEFAULT_KEEP_SNAPSHOTS,
    latest_valid_snapshot,
    list_snapshot_paths,
    prune_snapshots,
    snapshot_path_for,
)
from repro.durability.wal import (
    FSYNC_POLICIES,
    WalRecord,
    WalScan,
    WriteAheadLog,
    decode_wal_record,
    encode_wal_record,
    load_wal_meta,
    replay_wal,
    save_wal_meta,
    scan_wal,
    wal_meta_path,
)

__all__ = [
    "WriteAheadLog",
    "FSYNC_POLICIES",
    "WalRecord",
    "WalScan",
    "encode_wal_record",
    "decode_wal_record",
    "scan_wal",
    "replay_wal",
    "wal_meta_path",
    "save_wal_meta",
    "load_wal_meta",
    "snapshot_path_for",
    "list_snapshot_paths",
    "latest_valid_snapshot",
    "prune_snapshots",
    "DEFAULT_KEEP_SNAPSHOTS",
    "recover",
    "RecoveryReport",
]
