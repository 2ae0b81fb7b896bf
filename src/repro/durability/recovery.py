"""Crash recovery: latest valid snapshot + WAL tail -> a consistent engine.

:func:`recover` is the single entry point a restarted process calls.  It

1. finds the newest snapshot generation whose checksum verifies (older
   generations, then no snapshot at all, are the fallbacks — a torn snapshot
   costs replay time, never the run);
2. rebuilds a :class:`~repro.api.engine.FourCycleEngine` from it (or from the
   config stored in the WAL's metadata sidecar when no snapshot ever landed);
3. reads the log once, replaying every record past the snapshot's sequence
   number through the engine's exact batch pipeline.  Records are merged into
   windows of at least the engine's current ``n + m`` updates, so a counter's
   whole-graph batch rebuild is spread over at least as many updates as it
   costs.  One torn final record is tolerated — and, symmetrically, one
   *rejected* final record: a window the counter refused whose rollback
   truncate the crash beat to disk is re-rejected on replay (the final record
   is always applied alone) and dropped from the log;
4. re-attaches the WAL, handing the writer the reader's summary so it resumes
   where the crashed engine stopped without reading the log again.

Because every counter is exact and the WAL records updates in apply order,
the recovered count is bit-identical to an uninterrupted run over the same
durable prefix — the chaos suite asserts this for every counter and every
injected fault class.

The imports of :mod:`repro.api` live inside the function body: recovery is
*used by* the facade layer above it, and the late import is the repository's
sanctioned idiom for calling back up the DAG (see REP102).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple, Union

from repro.exceptions import (
    ConfigurationError,
    InvalidUpdateError,
    ReproError,
    WalCorruptionError,
)
from repro.faults.injector import FaultInjector
from repro.durability.snapshots import latest_valid_snapshot
from repro.durability.wal import WalScan, load_wal_meta, replay_wal

PathLike = Union[str, Path]


@dataclass(frozen=True)
class RecoveryReport:
    """What recovery found and did — the chaos suite's CI artifact rows."""

    wal_path: str
    counter: str
    snapshot_path: Optional[str]  #: generation used, None = full-log replay
    snapshot_seq: int             #: WAL seq the snapshot covered (-1 = none)
    replayed_records: int         #: WAL tail records (windows) applied
    torn_tail_dropped: bool       #: whether the log ended in a torn record
    rejected_tail_dropped: bool   #: whether the final record was rejected and dropped
    last_seq: int                 #: last durable sequence number after recovery
    count: int                    #: recovered 4-cycle count

    def to_dict(self) -> dict:
        return {
            "wal_path": self.wal_path,
            "counter": self.counter,
            "snapshot_path": self.snapshot_path,
            "snapshot_seq": self.snapshot_seq,
            "replayed_records": self.replayed_records,
            "torn_tail_dropped": self.torn_tail_dropped,
            "rejected_tail_dropped": self.rejected_tail_dropped,
            "last_seq": self.last_seq,
            "count": self.count,
        }


def recover(
    wal_path: PathLike,
    config=None,
    fault_injector: Optional[FaultInjector] = None,
    attach: bool = True,
) -> Tuple[object, RecoveryReport]:
    """Rebuild an engine from ``wal_path`` and its snapshot generations.

    ``config`` (an :class:`~repro.api.config.EngineConfig`, a config dict, or
    a counter name) overrides the recorded configuration; normally it is
    ``None`` and the snapshot's (or metadata sidecar's) config is used.
    ``attach=False`` recovers an engine without reopening the log for writes
    (a rejected final record is still dropped from it).  Returns
    ``(engine, report)``.
    """
    from repro.api.config import EngineConfig
    from repro.api.engine import FourCycleEngine

    wal = Path(wal_path)
    if not wal.exists():
        raise ConfigurationError(f"write-ahead log {wal} does not exist")

    found = latest_valid_snapshot(wal)
    snapshot_seq = -1
    snapshot_payload = None
    snapshot_path: Optional[Path] = None
    if found is not None:
        snapshot_seq, snapshot_payload, snapshot_path = found

    if config is None:
        if snapshot_payload is not None:
            config = EngineConfig.from_dict(snapshot_payload["config"])
        else:
            meta = load_wal_meta(wal)
            if meta is None:
                raise ConfigurationError(
                    f"cannot recover {wal}: no valid snapshot and no metadata "
                    f"sidecar; pass config= (an EngineConfig or counter name)"
                )
            config = EngineConfig.from_dict(meta)
    elif isinstance(config, str):
        config = EngineConfig(counter=config)
    elif not isinstance(config, EngineConfig):
        config = EngineConfig.from_dict(config)

    # Replay with the WAL detached: the records being replayed are already
    # durable, and appending them again would duplicate the log.
    replay_config = config.with_updates(wal_path=None, snapshot_every=None)
    if snapshot_payload is not None:
        payload = dict(snapshot_payload)
        payload["config"] = replay_config.to_dict()
        engine = FourCycleEngine.restore(payload)
    else:
        engine = FourCycleEngine(replay_config)

    scan = WalScan()
    replayed = 0
    rejected_tail = False
    window = []
    final = None  # the last record seen, held back until another follows
    for record in replay_wal(wal, scan):
        if record.last_seq <= snapshot_seq:
            continue
        if record.seq <= snapshot_seq:
            raise WalCorruptionError(
                f"{wal}: the snapshot covers seq {snapshot_seq}, which falls "
                f"inside the record holding {record.seq}..{record.last_seq}"
            )
        if final is not None:
            window.extend(final.updates)
            replayed += 1
            if len(window) >= engine.num_vertices + engine.num_edges:
                _replay_window(engine, window)
                window = []
        final = record
    if window:
        _replay_window(engine, window)
    if final is not None:
        # The final record is the one place write-ahead order can leave a
        # committed-but-never-applied window: the engine commits, the counter
        # rejects, and a crash lands before the rollback truncate is durable.
        # Apply it alone; if the counter rejects it now it was rejected then,
        # so drop it from the log like a torn tail.
        try:
            engine.apply_batch(final.updates)
        except ReproError:
            os.truncate(wal, final.offset)
            scan.valid_bytes = final.offset
            scan.last_seq = final.seq - 1
            scan.num_records -= 1
            rejected_tail = True
        else:
            replayed += 1
    last_seq = max(scan.last_seq, snapshot_seq)

    if attach:
        engine.attach_wal(
            wal,
            fsync_policy=config.fsync_policy,
            snapshot_every=config.snapshot_every,
            fault_injector=fault_injector,
            min_next_seq=last_seq + 1,
            scan=scan,
        )

    report = RecoveryReport(
        wal_path=str(wal),
        counter=engine.name,
        snapshot_path=None if snapshot_path is None else str(snapshot_path),
        snapshot_seq=snapshot_seq,
        replayed_records=replayed,
        torn_tail_dropped=scan.torn_tail,
        rejected_tail_dropped=rejected_tail,
        last_seq=last_seq,
        count=engine.count,
    )
    return engine, report


def _replay_window(engine, window) -> None:
    """One merged replay window through the engine's batch pipeline."""
    try:
        engine.apply_batch(window)
    except InvalidUpdateError:
        # normalize_batch refuses an inconsistent window before it mutates
        # anything; re-run it one update at a time so the counter's own error
        # (a duplicate insert, a missing delete) surfaces at the bad update.
        for update in window:
            engine.apply(update)
