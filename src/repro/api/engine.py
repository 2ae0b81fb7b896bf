"""The unified engine facade over the dynamic 4-cycle counters.

Every workload in this repo — CLI runs, the experiment harness, benchmarks,
examples — drives a counter the same way: build it from a named registry
entry, window an update stream into batches, apply the batches, and read the
count at the boundaries.  :class:`FourCycleEngine` owns that loop behind one
typed entry point, so scaling work (sharding, async ingestion) has a single
seam to plug into:

* construction from a validated :class:`~repro.api.config.EngineConfig`;
* ``apply`` / ``apply_batch`` / ``stream`` over any
  :class:`~repro.api.sources.UpdateSource`, with the batch size taken from the
  config;
* ``checkpoint()`` / ``restore()`` snapshots serialized through
  :mod:`repro.io.serialization` — counts are bit-identical after a round-trip
  (verified at restore time) and subsequent update trajectories match a
  counter that never checkpointed, because every counter is exact and the
  snapshot preserves the graph exactly;
* a lightweight ``subscribe()`` event hook (update applied, batch boundary,
  phase rebuild, checkpoint, executor degradation) for instrumentation that
  should not live inside the counters;
* crash-safe durability: a config with ``wal_path`` set (or an explicit
  :meth:`attach_wal`) logs every ``apply``/``apply_batch`` window as one
  :class:`~repro.durability.wal.WriteAheadLog` record *before* applying it, writes
  periodic snapshot generations next to the log (``snapshot_every``), and a
  restarted process calls :func:`repro.durability.recover` to resume
  bit-identically from the last durable record.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.api.config import EngineConfig
from repro.api.sources import UpdateSource, as_update_source, iter_windows
from repro.exceptions import (
    ConfigurationError,
    CounterStateError,
    InjectedCrashError,
    RecoverableEngineError,
    ReproError,
)
from repro.faults.injector import (
    ACTION_CRASH,
    ACTION_TORN_WRITE,
    SITE_SNAPSHOT_WRITE,
    FaultInjector,
)
from repro.graph.updates import EdgeUpdate, UpdateBatch
from repro.instrumentation.cost_model import CostModel

#: Event kinds emitted by :meth:`FourCycleEngine.subscribe` subscribers.
EVENT_UPDATE_APPLIED = "update-applied"
EVENT_BATCH_APPLIED = "batch-applied"
EVENT_PHASE_REBUILD = "phase-rebuild"
EVENT_CHECKPOINT = "checkpoint"
EVENT_EXECUTOR_DEGRADED = "executor-degraded"

EVENT_KINDS = (
    EVENT_UPDATE_APPLIED,
    EVENT_BATCH_APPLIED,
    EVENT_PHASE_REBUILD,
    EVENT_CHECKPOINT,
    EVENT_EXECUTOR_DEGRADED,
)


@dataclass(frozen=True)
class EngineEvent:
    """One observation handed to engine subscribers."""

    kind: str
    count: int
    updates_processed: int
    num_edges: int
    payload: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class EngineSnapshot:
    """A restorable engine state: the config plus the exact graph.

    The graph determines the count for every (exact) counter, so the snapshot
    stores the config, the registered vertices (in registration order,
    isolated ones included), the live edges, and the bookkeeping totals — and
    nothing counter-specific.  Restoring rebuilds the counter's auxiliary
    structures from the graph and verifies the count is bit-identical.
    For on-disk snapshots vertex labels may be ints, strings, or nested
    tuples of those (see :func:`repro.io.serialization.save_engine_snapshot`).
    """

    config: Dict[str, object]
    count: int
    updates_processed: int
    vertices: Tuple
    edges: Tuple[Tuple, ...]
    #: WAL sequence number this snapshot covers (None for non-durable engines);
    #: recovery replays only records past it.
    wal_seq: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        payload = {
            "config": dict(self.config),
            "count": self.count,
            "updates_processed": self.updates_processed,
            "vertices": list(self.vertices),
            "edges": [list(edge) for edge in self.edges],
        }
        if self.wal_seq is not None:
            payload["wal_seq"] = self.wal_seq
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "EngineSnapshot":
        try:
            wal_seq = payload.get("wal_seq")
            return cls(
                config=dict(payload["config"]),
                count=int(payload["count"]),
                updates_processed=int(payload["updates_processed"]),
                vertices=tuple(payload["vertices"]),
                edges=tuple((edge[0], edge[1]) for edge in payload["edges"]),
                wal_seq=None if wal_seq is None else int(wal_seq),
            )
        except (KeyError, TypeError, IndexError, ValueError) as error:
            raise ConfigurationError(f"malformed engine snapshot: {error}") from error


class FourCycleEngine:
    """Facade owning one dynamic 4-cycle counter and its update pipeline."""

    def __init__(
        self,
        config: Union[EngineConfig, str, None] = None,
        fault_injector: Optional[FaultInjector] = None,
        **overrides,
    ) -> None:
        if config is None:
            config = EngineConfig(**overrides)
        elif isinstance(config, str):
            config = EngineConfig(counter=config, **overrides)
        elif isinstance(config, EngineConfig):
            if overrides:
                config = config.with_updates(**overrides)
        else:
            raise ConfigurationError(
                f"expected an EngineConfig or a counter name, got {type(config).__name__}"
            )
        self._config = config
        self._counter = config.spec.create(**config.counter_kwargs())
        if not config.track_costs:
            self._counter.cost.disable()
        self._subscribers: List[Tuple[Callable[[EngineEvent], None], Optional[frozenset]]] = []
        self._last_phases = getattr(self._counter, "phases_completed", None)
        self._fault_injector = fault_injector
        self._wal = None
        self._snapshot_every: Optional[int] = None
        self._records_since_snapshot = 0
        self._last_durable_seq = -1
        self._failed_at_seq: Optional[int] = None
        self._closed = False
        self._wire_executor()
        if config.wal_path is not None:
            self._init_wal()

    def _wire_executor(self) -> None:
        """Hook the counter's shard executor (if any) into engine events and
        the fault injector; oracles and serial counters have no executor."""
        executor = getattr(self._counter, "shard_executor", None)
        if executor is None:
            return
        if self._fault_injector is not None:
            executor.injector = self._fault_injector
        executor.on_degrade = self._executor_degraded

    def _executor_degraded(self, from_policy: str, to_policy: str, reason: str) -> None:
        self._emit(
            EVENT_EXECUTOR_DEGRADED,
            from_policy=from_policy,
            to_policy=to_policy,
            reason=reason,
        )

    # -- introspection -------------------------------------------------------
    @property
    def config(self) -> EngineConfig:
        return self._config

    @property
    def counter(self):
        """The owned counter (read-only use; the engine drives the updates)."""
        return self._counter

    @property
    def name(self) -> str:
        return self._counter.name

    @property
    def count(self) -> int:
        """The current number of 4-cycles."""
        return self._counter.count

    @property
    def num_edges(self) -> int:
        return self._counter.num_edges

    @property
    def num_vertices(self) -> int:
        return self._counter.num_vertices

    @property
    def updates_processed(self) -> int:
        return self._counter.updates_processed

    @property
    def graph(self):
        return self._counter.graph

    @property
    def cost(self) -> CostModel:
        return self._counter.cost

    def is_consistent(self) -> bool:
        """Whether the maintained count matches a from-scratch recount."""
        return self._counter.is_consistent()

    # -- events --------------------------------------------------------------
    def subscribe(
        self,
        callback: Callable[[EngineEvent], None],
        kinds: Optional[Sequence[str]] = None,
    ) -> Callable[[], None]:
        """Register an event callback; returns an unsubscribe function.

        ``kinds`` restricts delivery to a subset of :data:`EVENT_KINDS`
        (default: all events).

        Callbacks are *isolated*: an exception raised by one subscriber never
        aborts the apply path or starves the other subscribers — it is
        surfaced as an ``engine-event-error`` :class:`RuntimeWarning` instead
        (events fire after the update and its WAL record are already applied,
        so a raising observer must not be able to poison engine state).
        """
        wanted: Optional[frozenset] = None
        if kinds is not None:
            wanted = frozenset(kinds)
            unknown = sorted(wanted - set(EVENT_KINDS))
            if unknown:
                raise ConfigurationError(
                    f"unknown event kind{'s' if len(unknown) > 1 else ''}: "
                    f"{', '.join(unknown)}; expected a subset of {', '.join(EVENT_KINDS)}"
                )
        entry = (callback, wanted)
        self._subscribers.append(entry)

        def unsubscribe() -> None:
            try:
                self._subscribers.remove(entry)
            except ValueError:
                pass

        return unsubscribe

    def _emit(self, kind: str, **payload) -> None:
        if not self._subscribers:
            return
        event = EngineEvent(
            kind=kind,
            count=self._counter.count,
            updates_processed=self._counter.updates_processed,
            num_edges=self._counter.num_edges,
            payload=payload,
        )
        for callback, wanted in list(self._subscribers):
            if wanted is None or kind in wanted:
                try:
                    callback(event)
                # repro-lint: broad-except-ok subscriber isolation: observers
                # run inside the apply path after the update (and its WAL
                # record) took effect, so one raising callback must not abort
                # the update mid-flight or starve the other subscribers; the
                # failure is surfaced as a warning instead of propagating.
                except Exception as error:
                    warnings.warn(
                        f"engine-event-error: {kind!r} subscriber {callback!r} "
                        f"raised {type(error).__name__}: {error}",
                        RuntimeWarning,
                        stacklevel=2,
                    )

    def _check_phase_rebuild(self) -> None:
        if self._last_phases is None:
            return
        phases = self._counter.phases_completed
        if phases != self._last_phases:
            self._emit(EVENT_PHASE_REBUILD, phases_completed=phases)
            self._last_phases = phases

    # -- durability ----------------------------------------------------------
    @property
    def wal(self):
        """The attached :class:`~repro.durability.wal.WriteAheadLog`, if any."""
        return self._wal

    @property
    def last_durable_seq(self) -> int:
        """Sequence number of the last update known durable (-1 without a WAL)."""
        return self._last_durable_seq

    def _init_wal(self) -> None:
        """Open the config's WAL for a *fresh* engine.

        An existing log with records means history this engine does not have;
        silently appending to it would interleave two runs, so construction
        refuses and points at :func:`repro.durability.recover`.
        """
        path = Path(self._config.wal_path)
        if path.exists() and path.stat().st_size > 0:
            raise ConfigurationError(
                f"write-ahead log {path} already contains records; a fresh "
                f"engine cannot append to another run's history — resume it "
                f"with repro.durability.recover({str(path)!r}) instead"
            )
        self.attach_wal(
            path,
            fsync_policy=self._config.fsync_policy,
            snapshot_every=self._config.snapshot_every,
            fault_injector=self._fault_injector,
        )

    def attach_wal(
        self,
        path,
        fsync_policy: str = "batch",
        snapshot_every: Optional[int] = None,
        fault_injector: Optional[FaultInjector] = None,
        min_next_seq: int = 0,
        scan=None,
    ):
        """Attach a write-ahead log so every subsequent update is durable.

        Reopening an existing log resumes its sequence numbering (recovery
        passes ``min_next_seq`` to floor it past the replayed tail, and the
        :class:`~repro.durability.wal.WalScan` of its own pass over the log as
        ``scan`` so the log is not read twice).  Writes the config metadata
        sidecar on first attach so a log is recoverable even before the first
        snapshot lands.  Returns the opened log.
        """
        from repro.durability.wal import WriteAheadLog, load_wal_meta, save_wal_meta

        if self._wal is not None:
            raise ConfigurationError(
                f"a write-ahead log is already attached ({self._wal.path})"
            )
        if fault_injector is not None:
            self._fault_injector = fault_injector
            self._wire_executor()
        wal = WriteAheadLog(
            path,
            fsync_policy=fsync_policy,
            injector=self._fault_injector,
            min_next_seq=min_next_seq,
            scan=scan,
        )
        self._wal = wal
        self._last_durable_seq = wal.last_seq
        self._snapshot_every = snapshot_every
        self._records_since_snapshot = 0
        self._config = self._config.with_updates(
            wal_path=str(wal.path),
            snapshot_every=snapshot_every,
            fsync_policy=fsync_policy,
        )
        if load_wal_meta(wal.path) is None:
            save_wal_meta(wal.path, self._config.to_dict())
        return wal

    def _fail_stop(self, durable_seq: int, what: str, error: Exception) -> RecoverableEngineError:
        """Roll the log back to ``durable_seq`` after the counter failed on
        a logged window and stop accepting mutations; returns the error to
        raise."""
        try:
            self._wal.truncate_to_seq(durable_seq)
        finally:
            self._failed_at_seq = durable_seq
        return RecoverableEngineError(
            f"{what} failed mid-apply ({type(error).__name__}: {error}); the "
            f"engine is fail-stopped — recover() from {self._wal.path} resumes "
            f"at seq {durable_seq}",
            last_durable_seq=durable_seq,
        )

    def _check_failed(self) -> None:
        if self._failed_at_seq is not None:
            raise RecoverableEngineError(
                f"engine is fail-stopped after a mid-batch counter failure; "
                f"the WAL is durable through seq {self._failed_at_seq} — "
                f"recover() from {self._wal.path if self._wal else 'the log'}",
                last_durable_seq=self._failed_at_seq,
            )

    def _note_records(self, logged: int) -> None:
        """Advance the snapshot cadence after ``logged`` durable records."""
        if self._snapshot_every is None:
            return
        self._records_since_snapshot += logged
        if self._records_since_snapshot >= self._snapshot_every:
            self._write_wal_snapshot()

    def _write_wal_snapshot(self) -> None:
        """One snapshot generation next to the log, then prune old ones."""
        from repro.durability.snapshots import (
            DEFAULT_KEEP_SNAPSHOTS,
            prune_snapshots,
            snapshot_path_for,
        )

        snap_path = snapshot_path_for(self._wal.path, max(self._last_durable_seq, 0))
        if self._fault_injector is not None:
            fault = self._fault_injector.check(SITE_SNAPSHOT_WRITE)
            if fault is not None:
                self._inject_snapshot_fault(fault, snap_path)
        self.checkpoint(snap_path)
        prune_snapshots(self._wal.path, keep=DEFAULT_KEEP_SNAPSHOTS)
        self._records_since_snapshot = 0

    def _inject_snapshot_fault(self, fault, snap_path: Path) -> None:
        """Act on an armed snapshot fault; both actions simulate a crash.

        A torn write lands a truncated JSON body at the *final* path —
        modelling storage that broke the rename's atomicity promise — so the
        recovery path must detect it by checksum and fall back.
        """
        if fault.action == ACTION_TORN_WRITE:
            import json

            body = json.dumps(self.checkpoint().to_dict())
            snap_path.write_text(body[: max(1, len(body) // 2)], encoding="utf-8")
            raise InjectedCrashError(
                f"injected torn snapshot write at {snap_path}"
            )
        if fault.action == ACTION_CRASH:
            raise InjectedCrashError(f"injected crash before snapshot {snap_path}")
        raise ConfigurationError(  # pragma: no cover - Fault validation pins pairs
            f"fault action {fault.action!r} is not implemented at {SITE_SNAPSHOT_WRITE}"
        )

    def compact_wal(self) -> int:
        """Force a snapshot, then drop every log record it covers.

        Returns the number of records remaining in the log (zero unless new
        appends raced in, which a single-threaded engine never has).
        """
        if self._wal is None:
            raise ConfigurationError("no write-ahead log is attached")
        self._check_failed()
        self._write_wal_snapshot()
        return self._wal.compact(self._last_durable_seq)

    def close(self) -> None:
        """Release durable and pooled resources; idempotent.

        Flushes and closes the WAL (per its fsync policy) and shuts down the
        counter's shard executor if it owns one.  The engine stays readable
        (``count`` etc.) but further updates will fail on the closed log.
        """
        if self._closed:
            return
        self._closed = True
        if self._wal is not None:
            self._wal.close()
        executor = getattr(self._counter, "shard_executor", None)
        if executor is not None:
            executor.close()

    def __enter__(self) -> "FourCycleEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- updates -------------------------------------------------------------
    def insert(self, u, v) -> int:
        """Insert the edge ``{u, v}`` and return the new count."""
        return self.apply(EdgeUpdate.insert(u, v))

    def delete(self, u, v) -> int:
        """Delete the edge ``{u, v}`` and return the new count."""
        return self.apply(EdgeUpdate.delete(u, v))

    def apply(self, update: EdgeUpdate) -> int:
        """Apply one update and return the new count.

        With a WAL attached the update is logged as its own record and
        committed *before* it is applied (write-ahead).  A counter rejection
        (e.g. an invalid update) rolls the logged record back and re-raises:
        single updates are atomic, so the engine stays usable and the log
        stays equal to applied history.  Any other failure also rolls the
        record back, but the counter may be half-updated, so the engine
        fail-stops as on a failed batch (see :meth:`apply_batch`).
        """
        self._check_failed()
        if self._wal is not None:
            seq = self._wal.append(update)
            self._wal.commit()
            try:
                count = self._counter.apply(update)
            except ReproError:
                self._wal.truncate_to_seq(seq - 1)
                raise
            except Exception as error:
                raise self._fail_stop(seq - 1, f"update {update!r}", error) from error
            self._last_durable_seq = seq
            self._emit(EVENT_UPDATE_APPLIED, update=update)
            self._check_phase_rebuild()
            self._note_records(1)
            return count
        count = self._counter.apply(update)
        self._emit(EVENT_UPDATE_APPLIED, update=update)
        self._check_phase_rebuild()
        return count

    def apply_batch(self, updates: Union[UpdateBatch, Iterable[EdgeUpdate]]) -> int:
        """Apply one window of updates as a batch and return the new count.

        With a WAL attached the whole window is logged as one record and
        committed first.  If the counter then fails mid-batch, with any
        exception, the engine cannot know how much of the window took effect,
        so it *fail-stops*: the logged window is rolled back (it never became
        applied history), every later mutation raises, and the
        :class:`~repro.exceptions.RecoverableEngineError` carries the last
        durable sequence number a fresh :func:`repro.durability.recover` call
        will resume from.  A WAL-attached engine takes raw windows only: an
        already-normalized :class:`~repro.graph.updates.UpdateBatch` no longer
        holds the raw window its ``raw_size`` counts, so no log could replay it
        and it is refused with :class:`~repro.exceptions.ConfigurationError`.
        """
        self._check_failed()
        if isinstance(updates, UpdateBatch):
            if self._wal is not None:
                raise ConfigurationError(
                    "a WAL-attached engine cannot log a pre-normalized "
                    "UpdateBatch (its raw window is gone); pass the raw updates"
                )
            size = updates.raw_size
        else:
            updates = updates if hasattr(updates, "__len__") else list(updates)
            size = len(updates)
        if self._wal is not None:
            seq_before = self._wal.last_seq
            logged = self._wal.append_batch(updates)
            self._wal.commit()
            try:
                count = self._counter.apply_batch(updates)
            except Exception as error:
                raise self._fail_stop(seq_before, f"batch of {size} updates", error) from error
            if logged:
                self._last_durable_seq = logged[-1]
            self._emit(EVENT_BATCH_APPLIED, size=size)
            self._check_phase_rebuild()
            self._note_records(len(logged))
            return count
        count = self._counter.apply_batch(updates)
        self._emit(EVENT_BATCH_APPLIED, size=size)
        self._check_phase_rebuild()
        return count

    def stream(self, source) -> Iterator[int]:
        """Drive a source through the engine, yielding batch-boundary counts.

        The source is windowed into ``config.batch_size`` updates lazily, so
        unbounded sources work; with ``batch_size == 1`` every update goes
        through the per-update path and yields its count.  Counts are exact at
        every yield point (the batch contract).
        """
        normalized = as_update_source(source)
        if self._config.batch_size == 1:
            for update in normalized:
                yield self.apply(update)
        else:
            for window in iter_windows(normalized, self._config.batch_size):
                yield self.apply_batch(window)

    def run(self, source) -> int:
        """Drain a source through :meth:`stream` and return the final count."""
        count = self._counter.count
        for count in self.stream(source):
            pass
        return count

    def counts(self, source) -> List[int]:
        """The list of batch-boundary counts for a (finite) source."""
        return list(self.stream(source))

    # -- snapshots -----------------------------------------------------------
    def checkpoint(self, path=None) -> EngineSnapshot:
        """Capture a restorable snapshot; optionally persist it to ``path``.

        Serialization goes through
        :func:`repro.io.serialization.save_engine_snapshot` (plain JSON).
        """
        graph = self._counter.graph
        snapshot = EngineSnapshot(
            config=self._config.to_dict(),
            count=self._counter.count,
            updates_processed=self._counter.updates_processed,
            vertices=graph.vertices(),
            edges=tuple(graph.edges()),
            wal_seq=self._last_durable_seq if self._wal is not None else None,
        )
        if path is not None:
            from repro.io.serialization import save_engine_snapshot

            save_engine_snapshot(snapshot.to_dict(), path)
        self._emit(EVENT_CHECKPOINT, path=None if path is None else str(path))
        return snapshot

    @classmethod
    def restore(
        cls, source: Union[EngineSnapshot, Mapping, str, Path]
    ) -> "FourCycleEngine":
        """Rebuild an engine from a snapshot (object, dict, or saved path).

        The restored counter replays the snapshot's edges through its own
        (exact) bulk path, so the count after restore is bit-identical to the
        checkpointed one — verified here, a mismatch raises
        :class:`CounterStateError` — and subsequent updates produce the same
        counts as an engine that never checkpointed.

        Durability settings are *not* restored: reopening the original WAL
        requires replaying its tail past the snapshot, which is
        :func:`repro.durability.recover`'s job.  ``restore`` strips
        ``wal_path``/``snapshot_every`` so the plain restore path never
        touches (or overwrites) an existing log.
        """
        if isinstance(source, (str, Path)):
            from repro.io.serialization import load_engine_snapshot

            snapshot = EngineSnapshot.from_dict(load_engine_snapshot(source))
        elif isinstance(source, EngineSnapshot):
            snapshot = source
        elif isinstance(source, Mapping):
            snapshot = EngineSnapshot.from_dict(source)
        else:
            raise ConfigurationError(
                f"cannot restore from {type(source).__name__}; expected an "
                f"EngineSnapshot, a snapshot dict, or a path"
            )
        config = EngineConfig.from_dict(snapshot.config)
        if config.wal_path is not None or config.snapshot_every is not None:
            config = config.with_updates(wal_path=None, snapshot_every=None)
        engine = cls(config)
        engine._counter.load_state(
            snapshot.vertices, snapshot.edges, updates_processed=snapshot.updates_processed
        )
        if engine.count != snapshot.count:
            raise CounterStateError(
                f"restored count {engine.count} does not match the checkpointed "
                f"count {snapshot.count} for counter {engine.name!r}"
            )
        engine._last_phases = getattr(engine._counter, "phases_completed", None)
        return engine

    def __repr__(self) -> str:
        return (
            f"FourCycleEngine(counter={self.name!r}, count={self.count}, "
            f"m={self.num_edges}, batch_size={self._config.batch_size})"
        )
