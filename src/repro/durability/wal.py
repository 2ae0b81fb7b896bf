"""The write-ahead log: crash-safe, replayable update durability.

Format
------
One line per committed window (one engine ``apply`` or ``apply_batch``
call), written with one ``write``::

    <crc32 of body, 8 lowercase hex digits> <body>\\n

where the body is the compact JSON ``{"seq": <first seq>, "updates": [[u, v,
kind], ...]}``.  Every update owns one sequence number: a record holds the
contiguous run ``seq .. seq + len(updates) - 1``, and the runs of successive
records are contiguous across the file (the first record of a compacted log
may start above zero).  The CRC covers the body bytes exactly as they sit in
the file, so validating a record never re-serializes it.

A WAL is *not* a :class:`~repro.api.sources.ReplaySource` stream; read it
with :func:`replay_wal`.  Logs in the per-update JSON-lines format of earlier
versions are refused with a :class:`~repro.exceptions.DurabilityError` that
names the format.

Crash semantics
---------------
Appends go through an unbuffered file descriptor, so a record is handed to the
OS the moment :meth:`WriteAheadLog.append_batch` returns; the
``fsync_policy`` decides when it is forced to stable storage (``"always"``
once per record, ``"batch"`` at each :meth:`commit` — the engine commits once
per apply/apply_batch call — ``"never"`` leaves it to the OS).  A crash can
therefore leave at most one torn record, at the tail, and a record is durable
only once its newline is: a torn or corrupt final window is dropped whole, so
a crashed batch recovers all or nothing.  A record that fails validation is
forgiven only when nothing but blank space follows it; a bad record with more
data after it is mid-file corruption and raises
:class:`~repro.exceptions.WalCorruptionError`.

Opening an existing log truncates a torn tail (after validating the prefix),
so the writer always resumes from the last durable record.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.exceptions import (
    ConfigurationError,
    DurabilityError,
    InjectedCrashError,
    InvalidUpdateError,
    WalCorruptionError,
)
from repro.faults.injector import (
    ACTION_CORRUPT_RECORD,
    ACTION_CRASH,
    ACTION_TORN_WRITE,
    SITE_WAL_APPEND,
    Fault,
    FaultInjector,
)
from repro.graph.updates import EdgeUpdate, UpdateKind
from repro.io.serialization import decode_label

PathLike = Union[str, Path]

#: When the log is forced to stable storage: every record, every commit point
#: (one engine apply/apply_batch call), or never (the OS decides).
FSYNC_POLICIES = ("always", "batch", "never")

_KINDS = {kind.value: kind for kind in UpdateKind}


# ---------------------------------------------------------------------------
# Record codec
# ---------------------------------------------------------------------------
def encode_wal_record(
    updates: Union[EdgeUpdate, Sequence[EdgeUpdate]], seq: int
) -> bytes:
    """One WAL line for a window (or a single update) whose first update takes
    sequence number ``seq``; newline included."""
    if isinstance(updates, EdgeUpdate):
        updates = (updates,)
    body = json.dumps(
        {"seq": int(seq), "updates": [[u.u, u.v, u.kind.value] for u in updates]},
        separators=(",", ":"),
    ).encode("utf-8")
    return b"%08x %s\n" % (zlib.crc32(body), body)


def decode_wal_record(
    line: bytes, path: Optional[PathLike] = None, line_number: Optional[int] = None
) -> Tuple[int, List[EdgeUpdate]]:
    """Inverse of :func:`encode_wal_record`: ``(first seq, updates)``.

    Raises :class:`WalCorruptionError` for a torn, damaged or malformed
    record, and :class:`DurabilityError` for a line in the per-update format
    of earlier versions.
    """
    where = f"{path}:{line_number}: " if path is not None else ""
    if line.startswith(b"{"):
        raise DurabilityError(
            f"{where}this log is in the per-update JSON-lines WAL format of "
            f"earlier versions (one {{u, v, kind, seq, crc}} object per "
            f"update); this version writes and reads one '<crc32> <json>' "
            f"record per committed window — recover the log with the version "
            f"that wrote it"
        )
    if not line.endswith(b"\n"):
        raise WalCorruptionError(f"{where}torn record (no terminating newline)")
    if line[8:9] != b" ":
        raise WalCorruptionError(f"{where}record has no CRC32 frame: {line[:80]!r}")
    body = line[9:-1]
    expected = b"%08x" % zlib.crc32(body)
    if line[:8] != expected:
        raise WalCorruptionError(
            f"{where}CRC mismatch: stored {line[:8]!r}, computed {expected!r}"
        )
    try:
        payload = json.loads(body)
        seq = payload["seq"]
        # JSON hands tuple labels back as arrays; the type check keeps the
        # common int/str labels off the decoder's call.
        updates = [
            EdgeUpdate(
                decode_label(u) if type(u) is list else u,
                decode_label(v) if type(v) is list else v,
                _KINDS[kind],
            )
            for u, v, kind in payload["updates"]
        ]
    except (ValueError, KeyError, TypeError, InvalidUpdateError) as error:
        raise WalCorruptionError(f"{where}malformed record body: {error}") from error
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0 or not updates:
        raise WalCorruptionError(
            f"{where}record needs a sequence number >= 0 and at least one update"
        )
    return seq, updates


# ---------------------------------------------------------------------------
# The reader
# ---------------------------------------------------------------------------
class WalRecord(NamedTuple):
    """One committed window as read back from the log."""

    seq: int                    #: sequence number of the window's first update
    updates: List[EdgeUpdate]   #: the window, in apply order
    offset: int                 #: byte offset of the record's first byte

    @property
    def last_seq(self) -> int:
        return self.seq + len(self.updates) - 1


@dataclass
class WalScan:
    """The valid prefix of one log, as :func:`replay_wal` found it."""

    last_seq: int = -1      #: sequence number of the last valid update (-1 if empty)
    num_records: int = 0    #: valid records seen
    valid_bytes: int = 0    #: byte length of the valid prefix (truncation point)
    torn_tail: bool = False  #: whether the log ends in a torn or corrupt record


def replay_wal(path: PathLike, scan: Optional[WalScan] = None) -> Iterator[WalRecord]:
    """Validate and yield every record of a log in one lazy pass.

    ``scan``, when given, is filled in as the pass advances; once the
    generator is exhausted it describes the valid prefix, which is what a
    reopened :class:`WriteAheadLog` resumes from.  A record that fails
    validation is tolerated only when it is the final non-blank line (a torn
    tail, which ends the pass); any bad record followed by more data raises
    :class:`WalCorruptionError`, as does a sequence gap anywhere.  This is
    the only code that decodes records.
    """
    source = Path(path)
    if scan is None:
        scan = WalScan()
    with source.open("rb") as handle:
        for line_number, line in enumerate(handle, start=1):
            try:
                seq, updates = decode_wal_record(line, source, line_number)
            except WalCorruptionError:
                if handle.read().strip():
                    raise
                scan.torn_tail = True
                return
            if scan.num_records and seq != scan.last_seq + 1:
                raise WalCorruptionError(
                    f"{source}:{line_number}: sequence gap: expected "
                    f"{scan.last_seq + 1}, found {seq}"
                )
            offset = scan.valid_bytes
            scan.last_seq = seq + len(updates) - 1
            scan.num_records += 1
            scan.valid_bytes = offset + len(line)
            yield WalRecord(seq, updates, offset)


def scan_wal(path: PathLike) -> WalScan:
    """Validate a whole log and summarize its valid prefix."""
    scan = WalScan()
    for _ in replay_wal(path, scan):
        pass
    return scan


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------
class WriteAheadLog:
    """Append-only durable update log with crash-tolerant reopen.

    ``min_next_seq`` floors the next sequence number (recovery passes the
    snapshot's sequence when the snapshot is ahead of a lost or compacted
    log).  ``scan`` is the :class:`WalScan` of a pass over this log that the
    caller has just made (recovery hands over its own), so opening does not
    read the log again; without it an existing log is scanned here.
    ``injector`` threads a :class:`~repro.faults.FaultInjector` through the
    append path; ``None`` (the default) costs one attribute check.
    """

    def __init__(
        self,
        path: PathLike,
        fsync_policy: str = "batch",
        injector: Optional[FaultInjector] = None,
        min_next_seq: int = 0,
        scan: Optional[WalScan] = None,
    ) -> None:
        if fsync_policy not in FSYNC_POLICIES:
            raise ConfigurationError(
                f"fsync_policy must be one of {', '.join(FSYNC_POLICIES)}, "
                f"got {fsync_policy!r}"
            )
        self.path = Path(path)
        self.fsync_policy = fsync_policy
        self.injector = injector
        self.reopened_torn_tail = False
        next_seq = max(0, int(min_next_seq))
        if scan is None and self.path.exists():
            scan = scan_wal(self.path)
        if scan is not None:
            if scan.torn_tail:
                # Drop the torn record so the writer resumes from durable state.
                os.truncate(self.path, scan.valid_bytes)
                self.reopened_torn_tail = True
            next_seq = max(next_seq, scan.last_seq + 1)
        self._next_seq = next_seq
        # Unbuffered: a returned append is in the OS, so a simulated crash
        # (which just closes the fd) can never surface half-buffered bytes
        # later, and fsync semantics are exactly the policy's.
        self._file = self.path.open("ab", buffering=0)
        self._closed = False
        self._dirty = False

    # -- introspection -------------------------------------------------------
    @property
    def last_seq(self) -> int:
        """Sequence number of the last appended update (-1 when empty)."""
        return self._next_seq - 1

    @property
    def closed(self) -> bool:
        return self._closed

    def _ensure_open(self) -> None:
        if self._closed:
            raise ConfigurationError(f"write-ahead log {self.path} is closed")

    # -- appends -------------------------------------------------------------
    def append(self, update: EdgeUpdate) -> int:
        """Append one update as its own record; returns its sequence number."""
        return self.append_batch((update,))[0]

    def append_batch(self, updates: Sequence[EdgeUpdate]) -> range:
        """Append a window as one record with one write; the caller owns the
        commit point.  Returns the sequence numbers the window took (empty,
        and nothing written, for an empty window)."""
        self._ensure_open()
        seq = self._next_seq
        if not updates:
            return range(seq, seq)
        data = encode_wal_record(updates, seq)
        if self.injector is not None:
            # One check per update keeps a schedule's occurrence index equal
            # to a sequence number; the first fault that fires hits the
            # whole record.
            for _ in updates:
                fault = self.injector.check(SITE_WAL_APPEND)
                if fault is not None:
                    self._inject_append_fault(fault, data, seq, len(updates))
        self._file.write(data)
        self._dirty = True
        self._next_seq = seq + len(updates)
        if self.fsync_policy == "always":
            self._sync()
        return range(seq, self._next_seq)

    def commit(self) -> None:
        """Force appended records to stable storage per the fsync policy.

        A no-op when nothing was written since the last sync, so under the
        ``always`` policy (where :meth:`append_batch` already synced) the
        engine's commit costs no second fsync.
        """
        self._ensure_open()
        if self._dirty and self.fsync_policy in ("always", "batch"):
            self._sync()

    def _sync(self) -> None:
        os.fsync(self._file.fileno())
        self._dirty = False

    # -- fault actions -------------------------------------------------------
    def _inject_append_fault(self, fault: Fault, data: bytes, seq: int, size: int) -> None:
        """Act on an armed append fault; every branch simulates a crash."""
        if fault.action == ACTION_CRASH:
            if fault.payload.get("when") == "after":
                self._file.write(data)
                self._next_seq = seq + size
                self._sync()
            self._simulate_crash(f"injected crash at {SITE_WAL_APPEND} seq={seq}")
        elif fault.action == ACTION_TORN_WRITE:
            keep = fault.payload.get("keep_bytes")
            if not isinstance(keep, int) or not 0 < keep < len(data):
                keep = max(1, len(data) // 2)
            self._file.write(data[:keep])
            self._simulate_crash(f"injected torn write at seq={seq} ({keep} bytes)")
        elif fault.action == ACTION_CORRUPT_RECORD:
            corrupted = bytearray(data)
            index = fault.payload.get("index")
            if not isinstance(index, int) or not 0 <= index < len(corrupted) - 1:
                index = len(corrupted) // 2
            corrupted[index] ^= 0x01
            self._file.write(bytes(corrupted))
            self._simulate_crash(f"injected corrupt record at seq={seq} (byte {index})")
        else:  # pragma: no cover - Fault validation pins site/action pairs
            raise ConfigurationError(
                f"fault action {fault.action!r} is not implemented at {SITE_WAL_APPEND}"
            )

    def _simulate_crash(self, message: str) -> None:
        """Close the fd (the OS keeps what it was handed) and die."""
        self._file.close()
        self._closed = True
        raise InjectedCrashError(message)

    # -- maintenance ---------------------------------------------------------
    def _split(self, seq: int) -> Tuple[int, int, int]:
        """Where the log divides after update ``seq``.

        Returns ``(cut, kept, end)``: the byte offset of the first record
        holding updates above ``seq`` (``end`` when none does), how many
        records lie past the cut, and the end of the valid prefix.  The log
        divides only between records, so a ``seq`` inside a record raises.
        """
        scan = WalScan()
        cut: Optional[int] = None
        kept = 0
        for record in replay_wal(self.path, scan):
            if record.seq > seq:
                cut = record.offset if cut is None else cut
                kept += 1
            elif record.last_seq > seq:
                raise ConfigurationError(
                    f"{self.path}: seq {seq} falls inside the record holding "
                    f"{record.seq}..{record.last_seq}; the log divides only "
                    f"between records"
                )
        return (scan.valid_bytes if cut is None else cut), kept, scan.valid_bytes

    def truncate_to_seq(self, seq: int) -> None:
        """Drop every record holding updates above ``seq``.

        The engine's rollback path: a window that was logged but failed to
        apply never happened, so its record must not survive into recovery.
        ``seq`` must end a record (see :meth:`_split`).  The truncation is
        fsynced (unless the policy is ``never``) so a crash right after the
        rollback cannot resurrect the dropped records.
        """
        self._ensure_open()
        if seq >= self.last_seq:
            return
        cut, _, _ = self._split(seq)
        self._file.close()
        os.truncate(self.path, cut)
        # The next append must continue the sequence right after ``seq``, NOT
        # after whatever records survive in the file: a compacted log can be
        # empty while the sequence counter is far above zero, and restarting
        # below the snapshot's wal_seq would make recovery silently skip
        # every later record.
        self._next_seq = max(0, seq + 1)
        self._file = self.path.open("ab", buffering=0)
        if self.fsync_policy != "never":
            self._sync()

    def compact(self, keep_after_seq: int) -> int:
        """Atomically rewrite the log keeping only records past ``keep_after_seq``.

        Called after a durable snapshot at ``keep_after_seq``: everything at or
        below it is covered by the snapshot, and it must end a record.  The
        kept records are copied byte for byte, so sequence numbers are
        preserved and a compacted log's first record starts above zero.
        Returns the number of records kept.
        """
        self._ensure_open()
        if self.fsync_policy != "never":
            # Land pending appends before rewriting; under ``never`` durability
            # is the OS's business, and the rewrite reads the page cache anyway.
            self._sync()
        cut, kept, end = self._split(keep_after_seq)
        tmp = self.path.with_name(self.path.name + ".compact.tmp")
        with self.path.open("rb") as source, tmp.open("wb") as handle:
            source.seek(cut)
            handle.write(source.read(end - cut))
            handle.flush()
            os.fsync(handle.fileno())
        self._file.close()
        os.replace(tmp, self.path)
        self._file = self.path.open("ab", buffering=0)
        return kept

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Flush, fsync (unless policy is ``never``), and close; idempotent."""
        if self._closed:
            return
        if self.fsync_policy != "never":
            self._sync()
        self._file.close()
        self._closed = True

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog({str(self.path)!r}, fsync_policy={self.fsync_policy!r}, "
            f"last_seq={self.last_seq})"
        )


# ---------------------------------------------------------------------------
# Sidecar metadata
# ---------------------------------------------------------------------------
def wal_meta_path(path: PathLike) -> Path:
    """The config sidecar for a log: written once at WAL creation so recovery
    can rebuild the engine even when no snapshot ever landed."""
    wal = Path(path)
    return wal.with_name(wal.name + ".meta.json")


def save_wal_meta(path: PathLike, config: dict) -> None:
    """Atomically persist the engine config dict next to the log."""
    target = wal_meta_path(path)
    tmp = target.with_name(target.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps({"version": 1, "config": dict(config)}, indent=2, sort_keys=True))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target)


def load_wal_meta(path: PathLike) -> Optional[dict]:
    """The config dict saved by :func:`save_wal_meta`, or ``None`` if absent."""
    target = wal_meta_path(path)
    if not target.exists():
        return None
    try:
        payload = json.loads(target.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"{target}: not valid JSON") from error
    if not isinstance(payload, dict) or not isinstance(payload.get("config"), dict):
        raise ConfigurationError(f"{target}: malformed WAL metadata sidecar")
    return dict(payload["config"])
