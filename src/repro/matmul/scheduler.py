"""Spreading old-phase matrix products over the updates of a phase.

Section 5.1 of the paper: a phase is ``m^{1-delta}`` updates, long enough that
the full product of the old-phase matrices (dimension ``m^{2/3+2eps}``) can be
computed within the phase while only doing ``O(m^{2/3-eps})`` work per update.
That is what turns an amortized argument into a *worst-case* bound: the matrix
product is started when a phase begins and advanced a bounded amount on every
update ("Continue the matrix multiplication computation for O(m^{2/3-eps})
steps" — Algorithm 2, Step 2).

This module provides the machinery:

* :class:`IncrementalMatrixProduct` — one product ``L · R`` computed row block
  by row block, with explicit operation accounting.
* :class:`ChainProductJob` — a chain ``M1 · M2 · ... · Mk`` computed as a
  sequence of incremental products (the second product starts once the first
  is complete).
* :class:`PhaseScheduler` — a queue of jobs advanced by a fixed per-update
  work budget; the counters call :meth:`PhaseScheduler.work` once per update.
* :class:`ProductDispatcher` — the density-aware dense-BLAS versus CSR-SpGEMM
  decision the counters' batched rebuild hooks route their whole-graph
  products through, built on the constant-aware cost model of
  :mod:`repro.matmul.omega`.

The scheduler is deliberately agnostic about what the products mean; the
counters decide which snapshots to multiply and read the results once
:meth:`ChainProductJob.is_complete` is true (i.e. at the phase boundary).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import ConfigurationError, CounterStateError, MatmulError
from repro.kernels import CsrMatrix
from repro.matmul.engine import (
    CountMatrix,
    CountMatrixCSR,
    aligned_left_operand,
    csr_spgemm,
    right_operand,
)
from repro.matmul.omega import product_cost_estimates

#: A product operand: a label-keyed matrix or a read-only positional one.
Operand = Union[CountMatrix, CountMatrixCSR]


class IncrementalMatrixProduct:
    """Computes ``left · right`` in row blocks with work accounting.

    The unit of work is one scalar multiply-add of the sparse row-times-matrix
    product.  Rows are taken in ``repr``-sorted label order, and a row is
    charged ``sum over its entries (row, k) of max(|right row k|, 1)``,
    floored at 1 (a left entry with no right row still costs its probe).
    :meth:`advance` takes rows until the charges reach ``budget`` and finishes
    the row that reaches it: a row is the smallest indivisible step, so one
    call can exceed its budget by up to one row's charge, whatever its size.

    The rows one call takes are computed together, as one
    :func:`~repro.matmul.engine.csr_spgemm` call over that contiguous block of
    the left operand's interned CSR (``left.csr()``, rows permuted into the
    sorted order, columns aligned to the right operand's rows), and the
    positional block is kept as it is.  When the last row is done the blocks
    are joined into one read-only :class:`~repro.matmul.engine.CountMatrixCSR`
    (empty rows dropped), which a chain hands to its next stage as is.  The
    export, the sort and the alignment happen on the first call that does
    work, never in the constructor: jobs that are built and then discarded
    unadvanced (every bulk rebuild opens a phase that way) cost nothing.
    Both operands are snapshots: either may be a :class:`CountMatrix` or a
    ``CountMatrixCSR``, and a :class:`CountMatrix` must not change before
    that first call, which raises :class:`CounterStateError` naming ``name``
    if one did.  That call exports the operands and then lets go of them, so
    a chain's intermediate product is freed as soon as the next stage has
    read it.
    """

    def __init__(self, left: Operand, right: Operand, name: str = "product") -> None:
        self.name = name
        self._left: Optional[Operand] = left
        self._right: Optional[Operand] = right
        self._versions = (left.version, right.version)
        self._blocks: List[CsrMatrix] = []
        self._result: Optional[CountMatrixCSR] = None
        self._operations_done = 0
        self._rows_total = left.num_row_labels
        self._next_row = 0
        self._plan: Optional[_RowBlockPlan] = None

    @property
    def result(self) -> CountMatrixCSR:
        """The (possibly partial) product computed so far."""
        if self._result is not None:
            return self._result
        return self._joined_blocks()

    @property
    def operations_done(self) -> int:
        return self._operations_done

    @property
    def is_complete(self) -> bool:
        return self._next_row >= self._rows_total

    def remaining_rows(self) -> int:
        return self._rows_total - self._next_row

    def advance(self, budget: int) -> int:
        """Perform up to ``budget`` multiply-adds; return the amount done."""
        if budget < 0:
            raise ConfigurationError(f"budget must be non-negative, got {budget}")
        if budget == 0 or self.is_complete:
            return 0
        plan = self._plan if self._plan is not None else self._build_plan()
        charges = plan.charges
        target = int(charges[self._next_row]) + budget
        if target >= int(charges[-1]):
            return self._compute_rows(self._rows_total)
        return self._compute_rows(int(np.searchsorted(charges, target)))

    def run_to_completion(self) -> int:
        """Finish the whole product immediately; return the work performed."""
        if self.is_complete:
            return 0
        if self._plan is None:
            self._build_plan()
        return self._compute_rows(self._rows_total)

    def _build_plan(self) -> "_RowBlockPlan":
        if (self._left.version, self._right.version) != self._versions:
            raise CounterStateError(
                f"product {self.name!r}: an operand changed after the product was "
                "built; operands must be snapshots"
            )
        left_csr = self._left.csr()
        right_csr = self._right.csr()
        aligned = aligned_left_operand(left_csr, right_csr)
        # A row's charge is its expansion work plus one per left entry the
        # alignment dropped (a column with no right row).
        expansion = np.zeros(aligned.nnz + 1, dtype=np.int64)
        np.cumsum(np.diff(right_csr.indptr)[aligned.cols], out=expansion[1:])
        aligned_lengths = np.diff(aligned.indptr)
        if aligned.nnz:
            # The operands hold Python ints but the kernel accumulates in
            # int64: refuse a product whose entries could reach 2^63 rather
            # than let them wrap.
            bound = (
                _largest_magnitude(aligned.data)
                * _largest_magnitude(right_csr.data)
                * int(aligned_lengths.max())
            )
            if bound >= 1 << 63:
                raise MatmulError(f"product entries may reach {bound}, past exact int64 sums")
        row_charges = np.maximum(
            expansion[aligned.indptr[1:]]
            - expansion[aligned.indptr[:-1]]
            + np.diff(left_csr.indptr)
            - aligned_lengths,
            1,
        )
        labels = left_csr.row_order
        keys = [repr(label) for label in labels]
        order = np.asarray(sorted(range(len(labels)), key=keys.__getitem__), dtype=np.int64)
        left = aligned
        if (order != np.arange(len(order))).any():
            lengths = aligned_lengths[order]
            indptr = np.zeros(len(order) + 1, dtype=np.int64)
            np.cumsum(lengths, out=indptr[1:])
            gather = np.repeat(aligned.indptr[order] - indptr[:-1], lengths)
            gather += np.arange(int(indptr[-1]), dtype=np.int64)
            left = CsrMatrix.from_parts(
                indptr, aligned.cols[gather], aligned.data[gather], aligned.num_cols
            )
        charges = np.zeros(len(order) + 1, dtype=np.int64)
        np.cumsum(row_charges[order], out=charges[1:])
        self._left = self._right = None
        self._plan = _RowBlockPlan(
            row_labels=[labels[position] for position in order.tolist()],
            charges=charges,
            left=left,
            right=right_operand(right_csr),
            column_labels=right_csr.col_order,
        )
        return self._plan

    def _compute_rows(self, stop: int) -> int:
        """Compute sorted rows ``[next, stop)`` as one block; return their charge."""
        plan = self._plan
        start = self._next_row
        first, last = int(plan.left.indptr[start]), int(plan.left.indptr[stop])
        block = CsrMatrix.from_parts(
            plan.left.indptr[start:stop + 1] - first,
            plan.left.cols[first:last],
            plan.left.data[first:last],
            plan.left.num_cols,
        )
        product, _ = csr_spgemm(block, plan.right)
        self._blocks.append(product)
        done = int(plan.charges[stop] - plan.charges[start])
        self._next_row = stop
        self._operations_done += done
        if stop == self._rows_total:
            # The blocks, and the permuted and aligned copies, are only
            # needed while rows remain.
            self._result = self._joined_blocks()
            self._blocks = []
            self._plan = None
        return done

    def _joined_blocks(self) -> CountMatrixCSR:
        """The rows computed so far as one positional matrix."""
        if not self._blocks:
            return CountMatrixCSR.empty()
        plan = self._plan
        lengths = np.concatenate([np.diff(block.indptr) for block in self._blocks])
        indptr = np.zeros(self._next_row + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        joined = CsrMatrix.from_parts(
            indptr,
            np.concatenate([block.cols for block in self._blocks]),
            np.concatenate([block.data for block in self._blocks]),
            plan.right.num_cols,
        )
        return CountMatrixCSR.from_csr(
            joined, plan.row_labels[:self._next_row], plan.column_labels
        )


def _largest_magnitude(values: np.ndarray) -> int:
    return max(int(values.max()), -int(values.min()))


@dataclass(frozen=True)
class _RowBlockPlan:
    """The left operand of an :class:`IncrementalMatrixProduct` in sorted row
    order, aligned to the right operand, with the prefix sums of the row
    charges (``charges[i]`` is the charge of the first ``i`` sorted rows)."""

    row_labels: List
    charges: np.ndarray
    left: CsrMatrix
    right: CsrMatrix
    column_labels: List


class ChainProductJob:
    """A chain product ``M1 · M2 · ... · Mk`` computed incrementally.

    The chain is evaluated left to right: the product of the first two
    matrices is computed incrementally; when it completes, an incremental
    product of its positional result with the next matrix starts, and so on.
    ``name`` identifies the job (e.g. ``"A_old*B_old*C_old"``) for diagnostics.
    """

    def __init__(self, matrices: Sequence[Operand], name: str = "chain") -> None:
        if not matrices:
            raise ConfigurationError("ChainProductJob requires at least one matrix")
        self.name = name
        self._matrices = tuple(matrices)
        self._stage_index = 0
        self._operations_done = 0
        if len(self._matrices) == 1:
            self._current: Optional[IncrementalMatrixProduct] = None
            self._accumulated = self._matrices[0]
        else:
            self._current = IncrementalMatrixProduct(
                self._matrices[0], self._matrices[1], name=name
            )
            self._accumulated = None

    @property
    def matrices(self) -> tuple:
        """The chain's operands ``(M1, ..., Mk)``, in multiplication order."""
        return self._matrices

    @property
    def operations_done(self) -> int:
        return self._operations_done

    @property
    def is_complete(self) -> bool:
        return self._current is None

    @property
    def result(self) -> Operand:
        """The final product; only valid once :attr:`is_complete` is true."""
        if not self.is_complete:
            raise CounterStateError(
                f"chain product {self.name!r} is not complete yet; "
                "the result can only be read at the phase boundary"
            )
        assert self._accumulated is not None
        return self._accumulated

    def advance(self, budget: int) -> int:
        """Advance the chain by up to ``budget`` units of work."""
        done = 0
        while self._current is not None and done < budget:
            done += self._current.advance(budget - done)
            if self._current.is_complete:
                partial = self._current.result
                next_index = self._stage_index + 2
                if next_index < len(self._matrices):
                    self._current = IncrementalMatrixProduct(
                        partial, self._matrices[next_index], name=self.name
                    )
                    self._stage_index += 1
                else:
                    self._accumulated = partial
                    self._current = None
        self._operations_done += done
        return done

    def run_to_completion(self) -> int:
        """Finish the whole chain immediately; return the work performed."""
        done = 0
        while not self.is_complete:
            done += self.advance(budget=1 << 30)
        return done


@dataclass
class PhaseScheduler:
    """A queue of chain-product jobs advanced by a per-update work budget.

    The counters register the old-phase products at a phase boundary with
    :meth:`submit` and call :meth:`work` once per update with the budget
    ``O(m^{2/3 - eps})``; :meth:`all_complete` reports whether every job has
    finished (which the paper's phase-length constraint, Eq. (9), guarantees
    by the end of the phase).
    """

    budget_per_update: int = 0
    _jobs: List[ChainProductJob] = field(default_factory=list)
    total_operations: int = 0
    updates_seen: int = 0

    def submit(self, job: ChainProductJob) -> None:
        """Register a job to be advanced by subsequent :meth:`work` calls."""
        self._jobs.append(job)

    def clear(self) -> None:
        """Drop all jobs (used when a phase is abandoned, e.g. on reset)."""
        self._jobs.clear()

    def jobs(self) -> Iterator[ChainProductJob]:
        return iter(self._jobs)

    def pending_jobs(self) -> List[ChainProductJob]:
        return [job for job in self._jobs if not job.is_complete]

    def all_complete(self) -> bool:
        return all(job.is_complete for job in self._jobs)

    def work(self, budget: Optional[int] = None) -> int:
        """Advance pending jobs by ``budget`` units (default: the per-update
        budget set at construction time); return the work performed."""
        allowance = self.budget_per_update if budget is None else budget
        if allowance < 0:
            raise ConfigurationError(f"budget must be non-negative, got {allowance}")
        self.updates_seen += 1
        done = 0
        for job in self._jobs:
            if done >= allowance:
                break
            if not job.is_complete:
                done += job.advance(allowance - done)
        self.total_operations += done
        return done

    def finish_all(self) -> int:
        """Run every pending job to completion (used at phase boundaries when
        the remaining work must be flushed, and in tests)."""
        done = 0
        for job in self._jobs:
            if not job.is_complete:
                done += job.run_to_completion()
        self.total_operations += done
        return done


# ---------------------------------------------------------------------------
# Density-aware product dispatch
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ProductDecision:
    """Outcome of one dispatch: the chosen kernel and its cost estimates."""

    backend: str
    costs: Dict[str, float]

    @property
    def cost(self) -> float:
        """The estimated cost of the chosen backend, in dense-flop units."""
        return self.costs[self.backend]


@dataclass(frozen=True)
class ProductDispatcher:
    """Chooses dense BLAS or CSR SpGEMM for a whole-graph matrix product.

    The counters' batched rebuild hooks describe each product by its trimmed
    dimensions and the exact SpGEMM expansion size (``nnz``-weighted work,
    :func:`repro.matmul.engine.spgemm_work`) and dispatch through
    :meth:`decide`.  The decision applies Claim 3.4 beyond empty rows: the
    dense cube ``rows * middles * columns`` is compared against the expansion
    work at calibrated per-operation constants
    (:func:`repro.matmul.omega.product_cost_estimates`), so sparse graphs run
    the Gustavson kernel and dense ones keep BLAS.  ``dense_cells_limit``
    caps the dense operand/product sizes the dispatcher may materialize —
    beyond it the CSR path is forced regardless of estimated speed, bounding
    peak memory at million-vertex scale.  Nothing pins the choice: both
    kernels return identical integers, so the decision is pure performance.

    ``workers > 1`` marks the CSR kernel as shard-parallel (see
    :class:`repro.matmul.sharding.ShardExecutor`): its estimate is divided by
    the parallelism the host can actually grant the pool, tilting the
    choice toward the kernel that scales out.  The dense BLAS path
    keeps its serial estimate — its threading (if any) belongs to the BLAS
    library, not to this dispatcher.
    """

    #: Never densify matrices with more cells than this (2^24 int64 cells =
    #: 128 MB per operand).
    dense_cells_limit: int = 1 << 24
    #: Shard-parallel worker count backing the CSR kernel (1 = serial).
    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(f"workers must be positive, got {self.workers}")

    def _csr_parallelism(self) -> int:
        """How much the host can actually divide the CSR estimate by."""
        from repro.matmul.sharding import available_cores

        return max(1, min(self.workers, available_cores()))

    def decide(
        self, rows: int, middles: int, columns: int, expansion_work: int
    ) -> ProductDecision:
        """Pick the kernel for one ``rows x middles · middles x columns``
        product whose exact SpGEMM expansion size is ``expansion_work``."""
        costs = product_cost_estimates(rows, middles, columns, expansion_work)
        if self.workers > 1:
            costs = dict(costs, csr=costs["csr"] / self._csr_parallelism())
        largest_cells = max(rows * middles, middles * columns, rows * columns)
        if largest_cells > self.dense_cells_limit:
            return ProductDecision(backend="csr", costs=costs)
        if costs["csr"] <= costs["dense"]:
            return ProductDecision(backend="csr", costs=costs)
        return ProductDecision(backend="dense", costs=costs)

    def decide_square(self, size: int, expansion_work: int) -> ProductDecision:
        """Dispatch for a square ``size x size`` product (the adjacency case)."""
        return self.decide(size, size, size, expansion_work)
