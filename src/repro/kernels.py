"""Positional array kernels shared by the graph substrate and the matmul layer.

This module is the bottom of the package's layering DAG (see README,
"Static analysis"): it holds the *positional* (integer-indexed) sparse
value type :class:`CsrMatrix` and the exact integer array helpers that both
:mod:`repro.graph` (CSR adjacency exports) and :mod:`repro.matmul` (the
SpGEMM kernel) are built on.  Keeping them below both
layers is what lets ``graph`` expose CSR views without importing upward into
``matmul``.

Everything here is exact integer arithmetic.  The one float64 round-trip —
:func:`exact_integer_matmul` routing an integer product through BLAS — is
taken only when every possible dot product is provably below ``2^53``
(:data:`_FLOAT64_EXACT_BOUND`), where float64 represents every intermediate
exactly; the repro-lint rule REP101 enforces that every such cast sits under
a recognized bound guard or carries an ``exact-ok`` pragma.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import DimensionMismatchError


def expand_csr_rows(indptr: np.ndarray) -> np.ndarray:
    """Per-entry row indices for a CSR structure: ``indptr`` expanded into one
    row index per stored entry, the shared core of every CSR-to-dense
    scatter."""
    return np.repeat(np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr))


def _indptr_from_rows(rows: np.ndarray, num_rows: int) -> np.ndarray:
    """CSR ``indptr`` for per-entry row ids that are already in row order."""
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_rows), out=indptr[1:])
    return indptr


def _coalesce_keys(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum ``values`` grouped by ``keys`` and drop groups that sum to zero.

    The sort-reduce merge at the heart of the SpGEMM kernel: one ``np.sort``
    pass over the keys, one ``np.add.reduceat`` over the reordered values.
    Accumulation stays in int64 throughout (``np.bincount`` would round-trip
    the weights through float64 and lose exactness past ``2^53``).  Returns
    the surviving keys in ascending order with their sums.
    """
    # Introsort, not a stable kind: summing is commutative, so the order of
    # equal keys is irrelevant, and the unstable sort is several times faster.
    order = np.argsort(keys)
    sorted_keys = keys[order]
    boundaries = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    starts = np.concatenate((np.zeros(1, dtype=np.int64), boundaries))
    sums = np.add.reduceat(values[order], starts)
    keep = sums != 0
    return sorted_keys[starts[keep]], sums[keep]


@dataclass(frozen=True)
class CsrMatrix:
    """A positional (integer-indexed) sparse matrix in CSR form.

    Unlike :class:`repro.matmul.engine.CountMatrix` (label-keyed,
    dict-of-dicts, built for point updates) this is the *kernel*
    representation: rows and columns are dense integer positions, entries
    live in three numpy arrays, and every operation is a vectorized array
    pass.  Invariants: entries are coalesced (one stored entry per
    coordinate), column-sorted within each row, and hold no explicit zeros —
    :meth:`from_coo` establishes them and every method preserves them.
    """

    indptr: np.ndarray
    cols: np.ndarray
    data: np.ndarray
    num_cols: int

    @property
    def num_rows(self) -> int:
        return len(self.indptr) - 1

    @property
    def nnz(self) -> int:
        return len(self.cols)

    def row_ids(self) -> np.ndarray:
        """Per-entry row positions (one int per stored entry)."""
        return expand_csr_rows(self.indptr)

    def row_lengths(self) -> np.ndarray:
        return np.diff(self.indptr)

    @classmethod
    def empty(cls, num_rows: int, num_cols: int) -> "CsrMatrix":
        return cls(
            indptr=np.zeros(num_rows + 1, dtype=np.int64),
            cols=np.empty(0, dtype=np.int64),
            data=np.empty(0, dtype=np.int64),
            num_cols=num_cols,
        )

    @classmethod
    def from_coo(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        data: np.ndarray,
        num_rows: int,
        num_cols: int,
    ) -> "CsrMatrix":
        """Build from coordinate triplets, coalescing duplicates exactly.

        Duplicate coordinates *sum*; coordinates whose sum is zero vanish —
        the array-level analogue of ``CountMatrix.add`` semantics.
        """
        if not len(rows):
            return cls.empty(num_rows, num_cols)
        keys = rows.astype(np.int64) * np.int64(num_cols) + cols
        keys, sums = _coalesce_keys(keys, data.astype(np.int64, copy=False))
        out_rows = keys // num_cols
        out_cols = keys - out_rows * num_cols
        indptr = _indptr_from_rows(out_rows, num_rows)
        return cls(indptr=indptr, cols=out_cols, data=sums, num_cols=num_cols)

    @classmethod
    def from_parts(
        cls, indptr: np.ndarray, cols: np.ndarray, data: np.ndarray, num_cols: int
    ) -> "CsrMatrix":
        """Wrap already-valid CSR arrays (coalesced, column-sorted, no zeros)."""
        return cls(indptr=indptr, cols=cols, data=data, num_cols=num_cols)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CsrMatrix":
        """The non-zero entries of a 2-D integer array (row-major order)."""
        rows, cols = np.nonzero(dense)
        return cls(
            indptr=_indptr_from_rows(rows, dense.shape[0]),
            cols=cols.astype(np.int64, copy=False),
            data=dense[rows, cols].astype(np.int64, copy=False),
            num_cols=dense.shape[1],
        )

    def to_dense(self, dtype=np.int64) -> np.ndarray:
        dense = np.zeros((self.num_rows, self.num_cols), dtype=dtype)
        if self.nnz:
            dense[self.row_ids(), self.cols] = self.data
        return dense

    def filter_entries(self, keep: np.ndarray) -> "CsrMatrix":
        """Keep only the entries where the boolean mask is true."""
        if keep.all():
            return self
        rows = self.row_ids()[keep]
        indptr = _indptr_from_rows(rows, self.num_rows)
        return CsrMatrix(
            indptr=indptr, cols=self.cols[keep], data=self.data[keep], num_cols=self.num_cols
        )

    def filter_columns(self, mask: np.ndarray) -> "CsrMatrix":
        """``self · diag(mask)``: drop every entry in a masked-out column."""
        if not self.nnz:
            return self
        return self.filter_entries(mask[self.cols])

    def filter_rows(self, mask: np.ndarray) -> "CsrMatrix":
        """``diag(mask) · self``: drop every entry in a masked-out row."""
        if not self.nnz:
            return self
        return self.filter_entries(mask[self.row_ids()])

    def scale_rows(self, scale: np.ndarray) -> "CsrMatrix":
        """``diag(scale) · self`` for an integer vector, dropping zeroed rows."""
        if not self.nnz:
            return self
        rows = self.row_ids()
        data = self.data * scale.astype(np.int64, copy=False)[rows]
        keep = data != 0
        if keep.all():
            return CsrMatrix(indptr=self.indptr, cols=self.cols, data=data, num_cols=self.num_cols)
        indptr = _indptr_from_rows(rows[keep], self.num_rows)
        return CsrMatrix(
            indptr=indptr, cols=self.cols[keep], data=data[keep], num_cols=self.num_cols
        )

    def without_diagonal(self) -> "CsrMatrix":
        """Drop the diagonal entries (the counters' off-diagonal convention)."""
        if not self.nnz:
            return self
        return self.filter_entries(self.cols != self.row_ids())

    def transpose(self) -> "CsrMatrix":
        return CsrMatrix.from_coo(
            self.cols, self.row_ids(), self.data, self.num_cols, self.num_rows
        )

    def row_sums(self) -> np.ndarray:
        """Per-row entry sums (length ``num_rows``), exact int64."""
        prefix = np.zeros(self.nnz + 1, dtype=np.int64)
        np.cumsum(self.data, out=prefix[1:])
        return prefix[self.indptr[1:]] - prefix[self.indptr[:-1]]


def csr_linear_combination(
    terms: Sequence[tuple[int, CsrMatrix]], num_rows: int, num_cols: int
) -> CsrMatrix:
    """Exact integer linear combination ``sum of coefficient * matrix``.

    All terms must share the ``(num_rows, num_cols)`` shape; the result is
    coalesced (cancelled entries vanish).
    """
    rows = [np.empty(0, dtype=np.int64)]
    cols = [np.empty(0, dtype=np.int64)]
    data = [np.empty(0, dtype=np.int64)]
    for coefficient, matrix in terms:
        if matrix.num_rows != num_rows or matrix.num_cols != num_cols:
            raise DimensionMismatchError(
                f"linear combination expects {num_rows}x{num_cols} terms, "
                f"got {matrix.num_rows}x{matrix.num_cols}"
            )
        if coefficient == 0 or not matrix.nnz:
            continue
        rows.append(matrix.row_ids())
        cols.append(matrix.cols)
        data.append(matrix.data if coefficient == 1 else matrix.data * coefficient)
    return CsrMatrix.from_coo(
        np.concatenate(rows), np.concatenate(cols), np.concatenate(data), num_rows, num_cols
    )


#: Largest magnitude a float64 represents exactly (2^53); dot products whose
#: worst case stays strictly below it cannot round.
_FLOAT64_EXACT_BOUND = float(2**53)


def exact_integer_matmul(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Multiply two integer matrices exactly, through BLAS when provably safe.

    numpy routes integer ``@`` through a generic non-BLAS inner loop, which is
    roughly an order of magnitude slower than the float64 GEMM at the sizes
    the batched kernels use.  When every possible dot product is bounded below
    ``2^53`` (``max|left| * max|right| * inner_dim``), the float64 product is
    exact, so it is computed there and cast back; otherwise the integer loop
    is used.  All vectorized counter kernels and E12's dense variant funnel
    their products through this helper.
    """
    if left.size == 0 or right.size == 0:
        return left @ right
    left_max = int(np.abs(left).max())
    right_max = int(np.abs(right).max())
    worst_case = float(left_max) * float(right_max) * max(left.shape[1], 1)
    if worst_case < _FLOAT64_EXACT_BOUND:
        product = left.astype(np.float64) @ right.astype(np.float64)
        return np.rint(product).astype(np.int64)
    return left @ right
