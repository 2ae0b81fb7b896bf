"""Shard-parallel SpGEMM over row-partitioned CSR operands.

The Gustavson kernel in :mod:`repro.matmul.engine` is single-threaded: one
process walks the row blocks of ``left`` in order.  This module turns that
row seam into a parallel one.  A :class:`ShardPlan` partitions the interned
row-id space into contiguous row blocks balanced by *expansion work* — the
nnz of the expanded intermediate each row produces, not the row count — so a
heavy row costs its shard what it actually costs the kernel.  A
:class:`ShardExecutor` extracts a self-contained, column-compressed view per
shard, fans the per-shard products out over a ``concurrent.futures`` pool
(process pool with pickled shard views, or a thread pool where fork/pickle
overhead would dominate), and merges the per-shard CSR deltas back into one
product deterministically.

Exactness is preserved bit for bit, which the property tests pin against the
serial kernel:

* shards never split a row, so every output row is produced whole by exactly
  one shard;
* per-shard products are integer-exact and key-sorted within each row (the
  kernel's own invariant), and the shard-local -> global column mapping is
  strictly monotone, so mapped rows stay column-sorted;
* exact integer sums are independent of evaluation order, so zero entries
  drop identically;
* shard results are merged in shard index order (``Executor.map`` order, not
  completion order), and shards cover disjoint increasing row ranges, so the
  concatenation *is* the serial CSR layout.

The column compression is the same trick distributed 1D SpGEMM uses to cut
communication: a shard only ships the right-operand rows its left entries
reference, with columns renumbered to the shard's footprint.  Besides
shrinking pickles, this shrinks the kernel's per-block key space, which on
community-structured operands lets the dense-scratch merge run over a few
hundred thousand cells instead of millions — the measured source of the E14
single-host speedup, on top of whatever true parallelism the pool adds.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from concurrent.futures import BrokenExecutor, Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, InjectedTransientError
from repro.faults.injector import (
    ACTION_KILL_WORKER,
    ACTION_STALL,
    ACTION_TRANSIENT_ERROR,
    SITE_EXECUTOR_TASK,
    FaultInjector,
)
from repro.matmul.engine import CsrMatrix, csr_spgemm
from repro.matmul.omega import CSR_OP_COST, PROCESS_SHARD_OVERHEAD

#: Default shards-per-worker factor.  Oversharding keeps the pool busy when
#: shards finish unevenly and shrinks each shard's key space; factor 4 is the
#: measured sweet spot on the E14 community instance (below it the dense
#: scratch stays too large, far above it per-shard overhead creeps back).
DEFAULT_OVERSHARD = 4

#: Smallest expansion work worth a shard of its own.  Below this the plan
#: collapses toward fewer shards, and a product whose *total* work is under
#: the floor short-circuits to the serial kernel outright.
MIN_SHARD_WORK = 1 << 15


class ShardView(NamedTuple):
    """A self-contained, picklable slice of one SpGEMM product.

    ``left_*`` hold the shard's row range of the left operand with columns
    renumbered into the footprint of right rows it references; ``right_*``
    hold exactly those right rows with columns renumbered into the shard's
    output footprint.  ``local_cols`` maps shard-local output columns back to
    global ids; ``row_start`` anchors the shard's rows in the global product.
    """

    row_start: int
    left_indptr: np.ndarray
    left_cols: np.ndarray
    left_data: np.ndarray
    right_indptr: np.ndarray
    right_cols: np.ndarray
    right_data: np.ndarray
    local_cols: np.ndarray


class ShardResult(NamedTuple):
    """One shard's merged product rows, in global column ids."""

    row_start: int
    num_rows: int
    row_lengths: np.ndarray
    cols: np.ndarray
    data: np.ndarray
    work: int


@dataclass(frozen=True)
class ShardPlan:
    """Contiguous row boundaries for one product, balanced by expansion work.

    ``bounds`` has ``num_shards + 1`` entries; shard ``i`` owns rows
    ``bounds[i]:bounds[i + 1]`` of the left operand.  Rows are never split:
    a single row heavier than the even share gets a shard to itself and its
    neighbours rebalance around it.
    """

    bounds: np.ndarray

    @property
    def num_shards(self) -> int:
        return len(self.bounds) - 1

    def ranges(self) -> Iterator[tuple[int, int]]:
        for lo, hi in zip(self.bounds[:-1], self.bounds[1:]):
            yield int(lo), int(hi)

    @classmethod
    def balanced(cls, left: CsrMatrix, right: CsrMatrix, shards: int) -> "ShardPlan":
        """Split ``left``'s rows into at most ``shards`` work-balanced blocks.

        The weight of a row is its expansion size — the summed nnz of the
        right rows its entries select — i.e. exactly the per-row work the
        Gustavson kernel performs.  Boundaries are the positions where the
        cumulative work crosses each even quantile; duplicates collapse, so
        fewer than ``shards`` blocks come back when the matrix is small or
        one row dominates.
        """
        if shards < 1:
            raise ConfigurationError(f"shards must be positive, got {shards}")
        num_rows = left.num_rows
        if num_rows == 0:
            return cls(bounds=np.zeros(1, dtype=np.int64))
        if not left.nnz or shards == 1:
            return cls(bounds=np.array([0, num_rows], dtype=np.int64))
        counts = right.row_lengths()[left.cols]
        expanded = np.zeros(left.nnz + 1, dtype=np.int64)
        np.cumsum(counts, out=expanded[1:])
        work_at_row = expanded[left.indptr]
        targets = work_at_row[-1] * np.arange(1, shards) // shards
        inner = np.searchsorted(work_at_row, targets, side="left")
        bounds = np.unique(
            np.concatenate((np.zeros(1, dtype=np.int64), inner, [num_rows]))
        )
        return cls(bounds=bounds.astype(np.int64, copy=False))


def extract_shard_view(
    left: CsrMatrix,
    right: CsrMatrix,
    lo: int,
    hi: int,
    right_row_lengths: Optional[np.ndarray] = None,
) -> ShardView:
    """Build the column-compressed view of rows ``lo:hi`` of the product.

    Both renumberings go through flag-array lookups (no sorts beyond the
    implicit order of ``np.flatnonzero``), and both are strictly monotone, so
    per-row column order — the kernel invariant the merge relies on — is
    preserved in either direction.
    """
    first, last = int(left.indptr[lo]), int(left.indptr[hi])
    left_cols = left.cols[first:last]
    flags = np.zeros(right.num_rows, dtype=bool)
    flags[left_cols] = True
    needed_rows = np.flatnonzero(flags)
    row_map = np.zeros(right.num_rows, dtype=np.int64)
    row_map[needed_rows] = np.arange(len(needed_rows), dtype=np.int64)
    lengths = (
        right_row_lengths if right_row_lengths is not None else right.row_lengths()
    )[needed_rows]
    sub_indptr = np.zeros(len(needed_rows) + 1, dtype=np.int64)
    np.cumsum(lengths, out=sub_indptr[1:])
    total = int(sub_indptr[-1])
    positions = np.repeat(right.indptr[needed_rows] - sub_indptr[:-1], lengths)
    positions += np.arange(total, dtype=np.int64)
    sub_cols = right.cols[positions]
    col_flags = np.zeros(right.num_cols, dtype=bool)
    col_flags[sub_cols] = True
    local_cols = np.flatnonzero(col_flags)
    col_map = np.zeros(right.num_cols, dtype=np.int64)
    col_map[local_cols] = np.arange(len(local_cols), dtype=np.int64)
    return ShardView(
        row_start=lo,
        left_indptr=left.indptr[lo : hi + 1] - first,
        left_cols=row_map[left_cols],
        left_data=left.data[first:last],
        right_indptr=sub_indptr,
        right_cols=col_map[sub_cols],
        right_data=right.data[positions],
        local_cols=local_cols,
    )


def run_shard_task(view: ShardView) -> ShardResult:
    """Multiply one shard view through the serial kernel.

    Module-level (not a closure) so process pools can pickle it; the view's
    arrays are the only payload either direction.
    """
    left = CsrMatrix(
        indptr=view.left_indptr,
        cols=view.left_cols,
        data=view.left_data,
        num_cols=len(view.right_indptr) - 1,
    )
    right = CsrMatrix(
        indptr=view.right_indptr,
        cols=view.right_cols,
        data=view.right_data,
        num_cols=len(view.local_cols),
    )
    product, work = csr_spgemm(left, right)
    return ShardResult(
        row_start=view.row_start,
        num_rows=left.num_rows,
        row_lengths=np.diff(product.indptr),
        cols=view.local_cols[product.cols],
        data=product.data,
        work=work,
    )


def merge_shard_results(
    results: Sequence[ShardResult], num_rows: int, num_cols: int
) -> tuple[CsrMatrix, int]:
    """Concatenate per-shard rows (already in shard index order) into one CSR.

    Deterministic by construction: the caller supplies results in plan
    order, shards cover disjoint increasing row ranges, and each shard's rows
    arrive column-sorted in global ids, so this is the serial kernel's exact
    output layout.
    """
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    lengths = np.concatenate(
        [np.zeros(0, dtype=np.int64)] + [r.row_lengths for r in results]
    )
    np.cumsum(lengths, out=indptr[1:])
    product = CsrMatrix(
        indptr=indptr,
        cols=np.concatenate(
            [np.zeros(0, dtype=np.int64)] + [r.cols for r in results]
        ),
        data=np.concatenate(
            [np.zeros(0, dtype=np.int64)] + [r.data for r in results]
        ),
        num_cols=num_cols,
    )
    return product, int(sum(r.work for r in results))


def run_faulty_shard_task(view: ShardView, action: str, payload: dict) -> ShardResult:
    """:func:`run_shard_task` with an injected fault acted out first.

    Module-level so process pools can pickle it (REP104); the fault's action
    and payload travel as plain values.  ``kill-worker`` dies the hard way
    (``os._exit`` skips cleanup handlers, exactly like a SIGKILLed worker),
    ``stall`` sleeps long enough for the parent's task timeout to fire, and
    ``transient-error`` raises a typed, retryable exception.
    """
    if action == ACTION_KILL_WORKER:
        os._exit(1)
    if action == ACTION_TRANSIENT_ERROR:
        raise InjectedTransientError(
            f"injected transient failure in shard task (row_start={view.row_start})"
        )
    if action == ACTION_STALL:
        time.sleep(float(payload.get("seconds", 0.2)))
        return run_shard_task(view)
    raise ConfigurationError(  # pragma: no cover - Fault validation pins pairs
        f"fault action {action!r} is not implemented for shard tasks"
    )


def available_cores() -> int:
    """Best-effort count of cores this process may use."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


class ShardExecutor:
    """Plans, dispatches, and merges shard-parallel SpGEMM products.

    ``workers=1`` (the default everywhere) is an exact pass-through to the
    serial kernel — no planning, no compression, no pool.  With more workers
    the executor builds a :class:`ShardPlan` of ``workers * overshard``
    blocks and :meth:`resolve_policy` picks the vehicle per product: inline
    when the host grants the pool no parallelism
    (``effective_parallelism() == 1``); otherwise a process pool when the
    per-shard work amortizes fork + pickle (see
    :data:`repro.matmul.omega.PROCESS_SHARD_OVERHEAD`), and a thread pool for
    smaller products, where the kernel's GIL-releasing numpy passes still
    overlap but nothing pays serialization.

    Pools are created lazily, reused across products, and released by
    :meth:`close` (the executor is also a context manager).  Results merge
    in plan order regardless of completion order, so every vehicle returns
    bit-identical output — the choice is pure performance.

    Fault tolerance: a dispatch that dies (worker killed, pool broken, task
    timeout, transient task error) is retried up to ``max_retries`` times on a
    fresh pool with seeded exponential backoff; when the vehicle keeps
    failing it *degrades* — process pool to thread pool to inline serial —
    recording each step in :attr:`degradations` and notifying ``on_degrade``
    (the engine turns that into an ``executor-degraded`` event).  Because
    every vehicle is bit-identical, degradation trades throughput for
    progress and never touches the result.  ``task_timeout`` bounds how long
    the parent *waits* for each shard result, not the task itself: a
    timed-out pool is abandoned, but a started thread task cannot be
    cancelled and keeps its non-daemon thread until it returns (process-pool
    workers can at least be joined once dead) — :meth:`close` gives every
    abandoned pool a final shutdown pass.  ``injector`` threads a
    :class:`~repro.faults.FaultInjector` through task dispatch for the chaos
    suite; ``None`` costs one attribute check per task.
    """

    #: Failover ladder: who takes over when a vehicle keeps failing.
    _DEGRADE: Dict[str, str] = {"process": "thread", "thread": "serial"}

    #: Dispatch failures that are worth a retry / degradation rather than a
    #: propagated error: a broken pool, a task timeout, OS-level resource
    #: exhaustion (fork/pipe failures surface as OSError), and injected
    #: transient task errors.
    _RETRYABLE = (BrokenExecutor, FuturesTimeoutError, OSError, InjectedTransientError)

    def __init__(
        self,
        workers: int = 1,
        overshard: int = DEFAULT_OVERSHARD,
        min_shard_work: int = MIN_SHARD_WORK,
        max_retries: int = 2,
        task_timeout: Optional[float] = None,
        backoff_base: float = 0.02,
        retry_seed: int = 0,
        injector: Optional[FaultInjector] = None,
        on_degrade: Optional[Callable[[str, str, str], None]] = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be positive, got {workers}")
        if overshard < 1:
            raise ConfigurationError(f"overshard must be positive, got {overshard}")
        if max_retries < 0:
            raise ConfigurationError(f"max_retries must be >= 0, got {max_retries}")
        if task_timeout is not None and task_timeout <= 0:
            raise ConfigurationError(
                f"task_timeout must be positive or None, got {task_timeout}"
            )
        self.workers = workers
        self.overshard = overshard
        self.min_shard_work = min_shard_work
        self.max_retries = max_retries
        self.task_timeout = task_timeout
        self.backoff_base = backoff_base
        self.injector = injector
        self.on_degrade = on_degrade
        #: Every degradation step taken, oldest first:
        #: ``{"from": ..., "to": ..., "reason": ...}``.
        self.degradations: List[Dict[str, str]] = []
        self._retry_rng = random.Random(retry_seed)
        self._thread_pool: Optional[ThreadPoolExecutor] = None
        self._process_pool: Optional[ProcessPoolExecutor] = None
        #: Pools dropped on the failure path without waiting.  Their in-flight
        #: tasks may still be running (a timeout cannot cancel a started
        #: thread task), so :meth:`close` gives each a final shutdown pass
        #: instead of leaking them.
        self._abandoned_pools: List[Executor] = []

    # -- policy -------------------------------------------------------------

    def effective_parallelism(self) -> int:
        """How many shard tasks can truly run at once on this host."""
        return max(1, min(self.workers, available_cores()))

    def resolve_policy(self, total_work: int, num_shards: int) -> str:
        """Pick the execution vehicle (serial, thread or process) for one product."""
        if self.workers == 1:
            return "serial"
        if self.effective_parallelism() == 1:
            # A pool cannot help; the shard plan itself (column compression,
            # small dense-scratch merges) is the whole win.
            return "serial"
        per_shard_cost = total_work * CSR_OP_COST / max(num_shards, 1)
        if per_shard_cost < PROCESS_SHARD_OVERHEAD:
            return "thread"
        return "process"

    # -- pools --------------------------------------------------------------

    def _pool(self, kind: str) -> Executor:
        size = self.effective_parallelism()
        if kind == "thread":
            if self._thread_pool is None:
                self._thread_pool = ThreadPoolExecutor(
                    max_workers=size, thread_name_prefix="repro-shard"
                )
            return self._thread_pool
        if self._process_pool is None:
            context = None
            if "fork" in multiprocessing.get_all_start_methods():
                context = multiprocessing.get_context("fork")
            self._process_pool = ProcessPoolExecutor(
                max_workers=size, mp_context=context
            )
        return self._process_pool

    def _discard_pool(self, kind: str, wait: bool = False) -> None:
        """Drop one pool so the next dispatch builds a fresh one.

        Used on the failure path (a broken or timed-out pool is never reused)
        and by :meth:`close`; shutdown errors are swallowed because a pool
        that already broke may refuse even to shut down, and the discard must
        still happen.
        """
        if kind == "thread":
            pool, self._thread_pool = self._thread_pool, None
        elif kind == "process":
            pool, self._process_pool = self._process_pool, None
        else:
            return
        if pool is None:
            return
        try:
            pool.shutdown(wait=wait, cancel_futures=not wait)
        # repro-lint: broad-except-ok shutting down a pool whose workers died
        # can raise arbitrary errors (BrokenProcessPool bookkeeping,
        # OSError on dead pipes); discarding must succeed regardless.
        except Exception:
            pass
        if not wait:
            # The pool may still have tasks running — a shutdown(wait=False)
            # cannot cancel started work, only pending futures.  Keep a
            # reference so close() can try again once the work has (likely)
            # drained, rather than leaking live threads/processes.
            self._abandoned_pools.append(pool)

    def close(self) -> None:
        """Shut down any pools this executor created.

        Idempotent, and safe to call after a pool broke mid-task: a shutdown
        that raises still leaves the pool discarded, so no worker processes
        leak and a later :meth:`spgemm` builds fresh pools.  Pools abandoned
        on the failure path get a final shutdown pass: process pools are
        joined (their workers may already be dead), thread pools get a
        non-blocking cancel — Python offers no way to kill a thread, so a
        genuinely hung thread task keeps its non-daemon thread alive until it
        returns (see ``task_timeout``).
        """
        self._discard_pool("thread", wait=True)
        self._discard_pool("process", wait=True)
        abandoned, self._abandoned_pools = self._abandoned_pools, []
        for pool in abandoned:
            try:
                pool.shutdown(
                    wait=isinstance(pool, ProcessPoolExecutor), cancel_futures=True
                )
            # repro-lint: broad-except-ok same as _discard_pool: a broken
            # pool may refuse even to shut down, and close() must not raise.
            except Exception:
                pass

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # defensive: don't leak worker processes
        try:
            self.close()
        # repro-lint: broad-except-ok __del__ can run during interpreter
        # teardown, where pool shutdown raises arbitrary errors (RuntimeError
        # from dead executors, TypeError/AttributeError from half-cleared
        # module globals); a destructor must never propagate any of them.
        except Exception:
            pass

    # -- products -----------------------------------------------------------

    def target_shards(self, total_work: int, num_rows: int) -> int:
        """How many shards one product should split into."""
        by_workers = self.workers * self.overshard
        by_work = max(1, total_work // max(self.min_shard_work, 1))
        return max(1, min(by_workers, by_work, num_rows))

    def spgemm(self, left: CsrMatrix, right: CsrMatrix) -> tuple[CsrMatrix, int]:
        """Exact ``left @ right``, bit-identical to :func:`csr_spgemm`."""
        if self.workers == 1 or not left.nnz or not right.nnz:
            return csr_spgemm(left, right)
        total_work = int(right.row_lengths()[left.cols].sum())
        shards = self.target_shards(total_work, left.num_rows)
        if shards <= 1:
            return csr_spgemm(left, right)
        plan = ShardPlan.balanced(left, right, shards)
        if plan.num_shards <= 1:
            return csr_spgemm(left, right)
        policy = self.resolve_policy(total_work, plan.num_shards)
        lengths = right.row_lengths()
        views = [
            extract_shard_view(left, right, lo, hi, right_row_lengths=lengths)
            for lo, hi in plan.ranges()
        ]
        results = self._run_views(views, policy)
        return merge_shard_results(results, left.num_rows, right.num_cols)

    # -- fault-tolerant dispatch ---------------------------------------------

    def _run_views(self, views: Sequence[ShardView], policy: str) -> List[ShardResult]:
        """Dispatch the shard views, retrying and degrading on failure.

        Each vehicle gets ``max_retries`` fresh-pool retries with seeded
        exponential backoff before the ladder steps down; inline serial is the
        floor — when even it keeps failing, the error propagates.
        """
        vehicle = policy
        while True:
            attempt = 0
            while True:
                try:
                    return self._dispatch(views, vehicle)
                except self._RETRYABLE as error:
                    self._discard_pool(vehicle)
                    attempt += 1
                    if attempt <= self.max_retries:
                        self._backoff(attempt)
                        continue
                    successor = self._DEGRADE.get(vehicle)
                    if successor is None:
                        raise
                    self._note_degrade(vehicle, successor, error)
                    vehicle = successor
                    break

    def _dispatch(self, views: Sequence[ShardView], vehicle: str) -> List[ShardResult]:
        """One attempt: run every view on ``vehicle``, in plan order.

        Futures are collected via ``submit`` and resolved in submission order
        (not completion order), preserving the deterministic merge; each
        ``result`` call carries the task timeout.
        """
        if vehicle == "serial":
            results = []
            for view in views:
                fault = self._task_fault(vehicle)
                if fault is None:
                    results.append(run_shard_task(view))
                else:
                    results.append(
                        run_faulty_shard_task(view, fault.action, dict(fault.payload))
                    )
            return results
        pool = self._pool(vehicle)
        futures = []
        for view in views:
            fault = self._task_fault(vehicle)
            if fault is None:
                futures.append(pool.submit(run_shard_task, view))
            else:
                futures.append(
                    pool.submit(run_faulty_shard_task, view, fault.action, dict(fault.payload))
                )
        return [future.result(timeout=self.task_timeout) for future in futures]

    def _task_fault(self, vehicle: str):
        """The injected fault due for this task dispatch, if any.

        ``kill-worker`` only makes sense inside a process pool; on the thread
        and serial vehicles it is downgraded to a transient error, because
        ``os._exit`` there would kill the engine process, not a worker.
        """
        if self.injector is None:
            return None
        fault = self.injector.check(SITE_EXECUTOR_TASK)
        if fault is None:
            return None
        if fault.action == ACTION_KILL_WORKER and vehicle != "process":
            fault = replace(fault, action=ACTION_TRANSIENT_ERROR)
        return fault

    def _backoff(self, attempt: int) -> None:
        """Seeded exponential backoff with jitter before a same-vehicle retry."""
        delay = self.backoff_base * (2 ** (attempt - 1)) * (0.5 + self._retry_rng.random())
        if delay > 0:
            time.sleep(delay)

    def _note_degrade(self, from_vehicle: str, to_vehicle: str, error: BaseException) -> None:
        entry = {
            "from": from_vehicle,
            "to": to_vehicle,
            "reason": f"{type(error).__name__}: {error}",
        }
        self.degradations.append(entry)
        if self.on_degrade is not None:
            self.on_degrade(from_vehicle, to_vehicle, entry["reason"])
