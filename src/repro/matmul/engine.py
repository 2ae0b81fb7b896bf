"""Label-keyed integer matrices and their exact product.

The algorithms of the paper manipulate two kinds of matrices:

* the 0/1 relation matrices ``A``, ``B``, ``C`` (and their class-restricted
  submatrices such as ``A^{H*}`` or ``B_{i,DD}``), and
* integer *count* matrices such as ``A^{*S} · B^{S*}`` (wedge counts) or
  ``A^{HS} · B^{SS} · C^{SH}`` (3-path counts).

Both are naturally sparse and indexed by vertex labels rather than integer
positions, so the workhorse representation here is :class:`CountMatrix` — a
dictionary-of-dictionaries sparse integer matrix keyed by arbitrary hashable
labels.  It supports the operations the counters need: point updates, row and
column access, and addition (used for the "negative edge" trick of Section
3.3).  :class:`SymmetricCountMatrix` is the same store for the symmetric
wedge and path tables the general-graph counters maintain (Appendix A's
wedge counts, the Section 8 ``W = A·diag(S)·A``, [HHH22]'s structures): it
writes a vertex's whole star, both orientations, in one pass and keeps no
column counts.  :class:`CountMatrixCSR` puts labels on a positional matrix
for reading only: the phase oracles keep their old-phase snapshots and
products in that form.

Every product is exact and runs on :func:`csr_spgemm`, a vectorized integer
CSR×CSR SpGEMM (Gustavson-style row-block expansion over numpy gathers with
exact merges, no scipy).  :func:`multiply` multiplies two label-keyed
matrices through it.  The phase scheduler computes the old-phase products in
row blocks of the same kernel
(:class:`repro.matmul.scheduler.IncrementalMatrixProduct`), and the counters'
batched rebuild hooks choose between it and dense BLAS through
:class:`repro.matmul.scheduler.ProductDispatcher`.  None of this is a
sub-cubic algorithm: the paper's fast matrix multiplication enters through
the exponent models of :mod:`repro.theory.omega`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Hashable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, DimensionMismatchError
from repro.kernels import CsrMatrix, _coalesce_keys, _indptr_from_rows, expand_csr_rows

Label = Hashable


def spgemm_work(left: CsrMatrix, right: CsrMatrix) -> int:
    """The exact expansion size of ``left · right``.

    ``sum over stored entries (i, k) of left of nnz(row k of right)`` — the
    combinatorial cost the paper's "iterate over neighbors" arguments charge.
    O(nnz(left)) to compute.
    """
    if not left.nnz:
        return 0
    return int(right.row_lengths()[left.cols].sum())


#: Bound on the expanded-intermediate size of one SpGEMM row block (entries,
#: i.e. ~8 bytes each across a handful of scratch arrays).  Peak memory of the
#: kernel stays proportional to this regardless of the product's total work;
#: 1<<22 entries keeps the scratch well under ~200 MB.
SPGEMM_BLOCK_ENTRIES = 1 << 22

#: Largest key space (block rows x columns) merged through the dense-scratch
#: ``np.bincount`` accumulator instead of the sort-reduce pass (1<<22 float64
#: cells = 32 MB scratch).
SPGEMM_DENSE_MERGE_CELLS = 1 << 22

#: See :data:`repro.kernels._FLOAT64_EXACT_BOUND`: a bincount merge is
#: only taken when every per-cell accumulation is provably below 2^53.
_BINCOUNT_EXACT_BOUND = float(2**53)


#: Exclusive ceiling for the int32 index fast path inside the block loop:
#: positions index into ``right``'s entry arrays and keys live in the
#: block-local ``rows x num_cols`` space, so when both fit in int32 the
#: expansion runs at half the memory bandwidth with identical integer results.
_INT32_LIMIT = np.iinfo(np.int32).max


def csr_spgemm(
    left: CsrMatrix, right: CsrMatrix, block_entries: Optional[int] = None
) -> tuple[CsrMatrix, int]:
    """Exact integer SpGEMM ``left · right``; returns ``(product, work)``.

    Gustavson's algorithm vectorized per *row block*: for a contiguous block
    of left rows, every partial product is materialized at once — the right
    rows selected by the block's entries are gathered with ``np.repeat``
    arithmetic and multiplied against the repeated left values — then merged
    by coordinate key ``row * num_cols + column``.  Two merge strategies,
    chosen per block:

    * **dense-scratch** — one ``np.bincount`` over a per-block accumulator of
      ``block_rows * num_cols`` float64 cells, taken when the key space fits
      :data:`SPGEMM_DENSE_MERGE_CELLS`, the expansion is dense enough in it to
      amortize the scan, and every per-cell sum is provably below ``2^53`` (so
      the float64 accumulation is exact — the same argument as
      :func:`repro.kernels.exact_integer_matmul`);
    * **sort-reduce** — ``np.argsort`` + ``np.add.reduceat`` in pure int64,
      always exact, used everywhere else.

    Blocks are sized so the expanded intermediate stays under
    ``block_entries`` (and the dense scratch under its cell budget), bounding
    peak memory; a single row never splits.  ``work`` is the total expansion
    size: one unit per multiply-add, whichever merge ran.
    """
    if left.num_cols != right.num_rows:
        raise DimensionMismatchError(
            f"cannot multiply {left.num_rows}x{left.num_cols} "
            f"by {right.num_rows}x{right.num_cols}"
        )
    num_rows, num_cols = left.num_rows, right.num_cols
    if not left.nnz or not right.nnz:
        return CsrMatrix.empty(num_rows, num_cols), 0
    if block_entries is None:
        block_entries = SPGEMM_BLOCK_ENTRIES
    if block_entries < 1:
        raise ConfigurationError(f"block_entries must be positive, got {block_entries}")
    entry_counts = right.row_lengths()[left.cols]
    expanded = np.zeros(left.nnz + 1, dtype=np.int64)
    np.cumsum(entry_counts, out=expanded[1:])
    work_at_row = expanded[left.indptr]
    total_work = int(expanded[-1])
    # 0/1 operands (adjacency products — the counters' dominant case) need no
    # value expansion at all: every partial product is 1, so merging reduces
    # to *counting* coordinate keys.
    unit_values = bool((left.data == 1).all()) and bool((right.data == 1).all())
    # Worst-case per-cell accumulation magnitude; bounds every block because a
    # block's expansion never exceeds the total.
    magnitude_bound = (
        float(np.abs(left.data).max()) * float(np.abs(right.data).max()) * float(total_work)
    )
    scratch_rows = SPGEMM_DENSE_MERGE_CELLS // max(num_cols, 1)
    dense_merge_possible = unit_values or magnitude_bound < _BINCOUNT_EXACT_BOUND
    # Narrow index fast path: positions index right's entry arrays and keys
    # live in the block-local ``rows * num_cols`` space, so when both bounds
    # fit in int32 the expansion arrays (the kernel's dominant memory
    # traffic) are built at half width.  Integer arithmetic is exact in both
    # widths, so results are bit-identical; the right-column cast is done
    # lazily on the first eligible block.
    int32_eligible = right.nnz < _INT32_LIMIT and num_cols <= _INT32_LIMIT
    right_cols32: Optional[np.ndarray] = None
    out_rows: list[np.ndarray] = []
    out_cols: list[np.ndarray] = []
    out_data: list[np.ndarray] = []
    start = 0
    while start < num_rows:
        stop = int(np.searchsorted(work_at_row, work_at_row[start] + block_entries, "right")) - 1
        if scratch_rows and dense_merge_possible and stop > start + scratch_rows:
            # Shrink to the dense-scratch row budget only when the capped
            # block would actually be dense enough in its key space to take
            # the bincount merge — otherwise the sort-reduce path runs, and
            # capping it would just multiply the per-block overhead.
            capped = start + scratch_rows
            capped_size = int(work_at_row[capped] - work_at_row[start])
            if 4 * capped_size >= scratch_rows * num_cols:
                stop = capped
        stop = min(max(stop, start + 1), num_rows)
        first, last = int(left.indptr[start]), int(left.indptr[stop])
        block_size = int(work_at_row[stop] - work_at_row[start])
        start, block_start = stop, start
        if block_size == 0:
            continue
        mids = left.cols[first:last]
        counts = entry_counts[first:last]
        ends = np.cumsum(counts)
        entry_rows = expand_csr_rows(left.indptr[block_start:stop + 1] - first)
        cells = (stop - block_start) * num_cols
        # Positions into the right entry arrays: for each left entry, the
        # contiguous run right.indptr[mid] .. right.indptr[mid + 1], expressed
        # as one fused repeat of the run starts plus a global ramp.
        if int32_eligible and block_size < _INT32_LIMIT and cells < _INT32_LIMIT:
            if right_cols32 is None:
                right_cols32 = right.cols.astype(np.int32)
            starts32 = (right.indptr[mids] - (ends - counts)).astype(np.int32)
            positions = np.repeat(starts32, counts)
            positions += np.arange(block_size, dtype=np.int32)
            keys = np.repeat((entry_rows * num_cols).astype(np.int32), counts)
            keys += right_cols32[positions]
        else:
            positions = np.repeat(right.indptr[mids] - (ends - counts), counts)
            positions += np.arange(block_size, dtype=np.int64)
            keys = np.repeat(entry_rows * np.int64(num_cols), counts) + right.cols[positions]
        values = (
            None
            if unit_values
            else np.repeat(left.data[first:last], counts) * right.data[positions]
        )
        if cells <= SPGEMM_DENSE_MERGE_CELLS and (
            4 * block_size >= cells and dense_merge_possible
        ):
            # Dense-scratch merge; the weighted variant is exact in float64
            # under the proven bound, the unweighted one is integer counting.
            sums = np.bincount(keys, weights=values, minlength=cells)
            keys = np.flatnonzero(sums)
            sums = sums[keys] if unit_values else np.rint(sums[keys]).astype(np.int64)
        elif unit_values:
            keys = np.sort(keys)
            boundaries = np.flatnonzero(keys[1:] != keys[:-1]) + 1
            starts = np.concatenate((np.zeros(1, dtype=np.int64), boundaries))
            sums = np.diff(np.concatenate((starts, [len(keys)])))
            keys = keys[starts]
        else:
            keys, sums = _coalesce_keys(keys, values)
        # Post-merge arrays are small (one entry per distinct coordinate);
        # widen back to int64 so block outputs concatenate uniformly.
        keys = keys.astype(np.int64, copy=False)
        rows = keys // num_cols
        out_rows.append(rows + block_start)
        out_cols.append(keys - rows * num_cols)
        out_data.append(sums)
    if not out_rows:
        return CsrMatrix.empty(num_rows, num_cols), total_work
    rows = np.concatenate(out_rows)
    indptr = _indptr_from_rows(rows, num_rows)
    # Blocks cover disjoint, increasing row ranges and each block is key-sorted,
    # so the concatenation is already in CSR order.
    product = CsrMatrix(
        indptr=indptr,
        cols=np.concatenate(out_cols),
        data=np.concatenate(out_data),
        num_cols=num_cols,
    )
    return product, total_work


def label_array(labels: Sequence[Label]) -> np.ndarray:
    """``labels`` as a 1-D object array (a tuple label stays one element), so
    a position array gathers its labels in one vectorized indexing step."""
    return np.fromiter(labels, dtype=object, count=len(labels))


@dataclass(frozen=True, eq=False)
class CountMatrixCSR:
    """A read-only, label-keyed integer matrix stored as interned CSR arrays.

    ``row_order``/``col_order`` give each distinct label a contiguous integer
    position; they list exactly the rows and the columns that hold an entry.
    ``col_ids`` holds, for every stored entry, the *position* of its column
    label, so dense exports become one vectorized scatter instead of two dict
    lookups per entry.

    Two kinds of matrix use it.  :meth:`CountMatrix.csr` caches one per
    mutation version of a label-keyed matrix (insertion order, no repr
    sorting), which every product reads its operands through (see
    :func:`multiply`).  The phase oracles keep their old-phase relation
    snapshots and products in this form from start to end (see
    :meth:`from_csr` and :class:`repro.matmul.scheduler.IncrementalMatrixProduct`)
    and read them through the same point-access API as :class:`CountMatrix`:
    :meth:`get` and :meth:`row` build a row's dict on the row's first read
    and keep it, so only rows that are actually queried pay for one.  There
    is no mutation API.
    """

    version: int
    row_order: list
    col_order: list
    indptr: np.ndarray
    col_ids: np.ndarray
    data: np.ndarray
    #: Row dicts built by :meth:`row` so far, by row label.
    _row_maps: Dict[Label, Mapping[Label, int]] = field(
        default_factory=dict, init=False, repr=False
    )

    @classmethod
    def from_csr(
        cls,
        matrix: CsrMatrix,
        row_labels: Sequence[Label],
        column_labels: Optional[Sequence[Label]] = None,
    ) -> "CountMatrixCSR":
        """Name the rows and columns of a positional :class:`CsrMatrix`.

        ``row_labels[i]``/``column_labels[j]`` name position ``i``/``j``
        (``column_labels`` defaults to ``row_labels``); both must be
        distinct.  Empty rows and columns without entries are dropped, so the
        result holds the rows, columns and entries that
        :meth:`CountMatrix.from_csr` would, without building a dict per row.
        """
        if column_labels is None:
            column_labels = row_labels
        rows = np.flatnonzero(np.diff(matrix.indptr))
        per_column = np.bincount(matrix.cols, minlength=matrix.num_cols)
        present = np.flatnonzero(per_column)
        col_ids = matrix.cols
        if len(present) < matrix.num_cols:
            col_ids = (np.cumsum(per_column > 0) - 1)[col_ids]
        return cls(
            version=0,
            row_order=[row_labels[i] for i in rows.tolist()],
            col_order=[column_labels[j] for j in present.tolist()],
            indptr=np.concatenate((np.zeros(1, dtype=np.int64), matrix.indptr[rows + 1])),
            col_ids=col_ids,
            data=matrix.data,
        )

    @classmethod
    def empty(cls) -> "CountMatrixCSR":
        return cls.from_csr(CsrMatrix.empty(0, 0), [])

    # -- read access, as on CountMatrix ---------------------------------------
    def get(self, row: Label, column: Label) -> int:
        """The entry at ``(row, column)``; zero when absent."""
        row_map = self._row_maps.get(row)
        if row_map is None:
            row_map = self.row(row)
        return row_map.get(column, 0)

    def row(self, row: Label) -> Mapping[Label, int]:
        """The non-zero entries of one row (built on first read; do not mutate)."""
        row_map = self._row_maps.get(row)
        if row_map is None:
            position = self._row_index.get(row)
            if position is None:
                row_map = _EMPTY_DICT
            else:
                begin, end = self.indptr[position], self.indptr[position + 1]
                row_map = dict(
                    zip(
                        self._column_labels[self.col_ids[begin:end]].tolist(),
                        self.data[begin:end].tolist(),
                    )
                )
            self._row_maps[row] = row_map
        return row_map

    @cached_property
    def _row_index(self) -> Dict[Label, int]:
        return {label: position for position, label in enumerate(self.row_order)}

    @cached_property
    def _column_labels(self) -> np.ndarray:
        return label_array(self.col_order)

    def items(self) -> Iterator[tuple[Label, Label, int]]:
        """Iterate over all non-zero entries as ``(row, column, value)``."""
        columns = self._column_labels[self.col_ids].tolist()
        values = self.data.tolist()
        bounds = self.indptr.tolist()
        for position, row in enumerate(self.row_order):
            for entry in range(bounds[position], bounds[position + 1]):
                yield (row, columns[entry], values[entry])

    def row_labels(self) -> set[Label]:
        return set(self.row_order)

    def column_labels(self) -> set[Label]:
        return set(self.col_order)

    @property
    def num_row_labels(self) -> int:
        return len(self.row_order)

    @property
    def nnz(self) -> int:
        return len(self.data)

    def csr(self) -> "CountMatrixCSR":
        """The matrix itself, so it stands wherever a :class:`CountMatrix`
        operand is read through its CSR export."""
        return self

    def __eq__(self, other: object) -> bool:
        """Entry-wise equality with a :class:`CountMatrix` or another snapshot."""
        if not isinstance(other, (CountMatrix, CountMatrixCSR)):
            return NotImplemented
        return _entry_dict(self) == _entry_dict(other)


def _entry_dict(matrix) -> Dict[tuple, int]:
    return {(row, column): value for row, column, value in matrix.items()}


class _LabelRows:
    """The storage and read API the two label-keyed matrices share: one dict
    of non-zero entries per row label, and the number of stored entries.

    Entries with value zero are removed eagerly so iteration only touches
    non-zeros; this matters because the counters add and subtract
    contributions (insertions and deletions) and most entries cancel over
    time.  The subclasses own every write.
    """

    __slots__ = ("_rows", "_nnz")

    def __init__(self) -> None:
        self._rows: Dict[Label, Dict[Label, int]] = {}
        self._nnz = 0

    def get(self, row: Label, column: Label) -> int:
        """The entry at ``(row, column)``; zero when absent."""
        return self._rows.get(row, _EMPTY_DICT).get(column, 0)

    def row(self, row: Label) -> Mapping[Label, int]:
        """The non-zero entries of one row (live view; do not mutate)."""
        return self._rows.get(row, _EMPTY_DICT)

    def items(self) -> Iterator[tuple[Label, Label, int]]:
        """Iterate over all non-zero entries as ``(row, column, value)``."""
        for row, row_map in self._rows.items():
            for column, value in row_map.items():
                yield (row, column, value)

    def row_labels(self) -> set[Label]:
        return set(self._rows)

    @property
    def num_row_labels(self) -> int:
        """Number of distinct row labels (without materializing the set)."""
        return len(self._rows)

    @property
    def nnz(self) -> int:
        """Number of non-zero entries."""
        return self._nnz

    def __bool__(self) -> bool:
        return self._nnz > 0

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            return self._rows == other._rows  # type: ignore[attr-defined]
        return NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}(nnz={self._nnz})"

    @classmethod
    def _promoted(cls, matrix: CsrMatrix, row_order: Sequence[Label], column_labels: np.ndarray):
        """A matrix holding ``matrix``'s entries, position ``i``/``j`` named
        ``row_order[i]``/``column_labels[j]`` (distinct labels).  Rows are
        promoted one ``dict(zip(...))`` per non-empty row: the interpreter
        work is per row, not per entry."""
        result = cls()
        entry_labels = column_labels[matrix.cols].tolist()
        values = matrix.data.tolist()
        bounds = matrix.indptr.tolist()
        rows = result._rows
        for position in np.flatnonzero(np.diff(matrix.indptr)).tolist():
            begin, end = bounds[position], bounds[position + 1]
            rows[row_order[position]] = dict(zip(entry_labels[begin:end], values[begin:end]))
        result._nnz = matrix.nnz
        return result

    @classmethod
    def _summed(cls, matrix: CsrMatrix, row_order: Sequence[Label], column_order: Sequence[Label]):
        """A matrix holding ``matrix``'s entries under labels that repeat:
        one subclass ``add`` per entry, so entries whose labels collide sum."""
        result = cls()
        entry_rows = matrix.row_ids().tolist()
        for i, j, value in zip(entry_rows, matrix.cols.tolist(), matrix.data.tolist()):
            result.add(row_order[i], column_order[j], int(value))  # type: ignore[attr-defined]
        return result


def _has_duplicates(labels: Sequence[Label]) -> bool:
    return len(set(labels)) != len(labels)


class CountMatrix(_LabelRows):
    """A sparse integer matrix keyed by arbitrary row/column labels.

    The matrix maintains a per-column row count alongside the entries (so
    :meth:`column_labels` never rescans the rows) and a mutation version that
    keys the cached interned CSR export of :meth:`csr` — any mutation
    invalidates the cache, any number of reads between mutations share it.
    Products, the warm-up's chunk structures and the layered oracle's two
    Eq. (12) structures use it; the symmetric tables of the general-graph
    counters use :class:`SymmetricCountMatrix`.
    """

    __slots__ = ("_col_counts", "_version", "_csr_cache")

    def __init__(self, entries: Mapping[tuple[Label, Label], int] | None = None) -> None:
        super().__init__()
        #: For every column label, the number of rows with a non-zero there.
        self._col_counts: Dict[Label, int] = {}
        self._version = 0
        self._csr_cache: Optional[CountMatrixCSR] = None
        if entries:
            for (row, column), value in entries.items():
                self.add(row, column, value)

    # -- point access --------------------------------------------------------
    def add(self, row: Label, column: Label, delta: int) -> None:
        """Add ``delta`` to the entry at ``(row, column)``.

        Entries that become zero are deleted, keeping the matrix sparse.
        """
        if delta == 0:
            return
        self._version += 1
        row_map = self._rows.get(row)
        if row_map is None:
            row_map = {}
            self._rows[row] = row_map
        current = row_map.get(column, 0)
        updated = current + delta
        if current == 0:
            self._nnz += 1
            self._col_counts[column] = self._col_counts.get(column, 0) + 1
        if updated == 0:
            del row_map[column]
            self._nnz -= 1
            remaining = self._col_counts[column] - 1
            if remaining:
                self._col_counts[column] = remaining
            else:
                del self._col_counts[column]
            if not row_map:
                del self._rows[row]
        else:
            row_map[column] = updated

    def add_row(self, row: Label, columns: Iterable[Label], deltas) -> None:
        """Bulk ``self[row, columns[k]] += deltas[k]`` over one row.

        ``deltas`` is a per-column sequence or a single int applied to every
        column.  Semantically identical to calling :meth:`add` per pair, but
        the row dict, the nnz/column bookkeeping, and the version bump are
        handled once per call instead of once per entry — the single-update
        hot paths (wedge and assadi-shah maintenance) apply whole delta rows
        through this.
        """
        if not columns or (isinstance(deltas, int) and deltas == 0):
            return
        self._version += 1
        row_map = self._rows.get(row)
        if row_map is None:
            row_map = {}
            self._rows[row] = row_map
        col_counts = self._col_counts
        get_current = row_map.get
        nnz_delta = 0
        if isinstance(deltas, int):
            # One non-zero delta for every column (the per-update scans): an
            # entry cannot both appear and vanish, and no delta is skipped.
            for column in columns:
                current = get_current(column, 0)
                updated = current + deltas
                if updated == 0:
                    del row_map[column]
                    nnz_delta -= 1
                    remaining = col_counts[column] - 1
                    if remaining:
                        col_counts[column] = remaining
                    else:
                        del col_counts[column]
                else:
                    if current == 0:
                        nnz_delta += 1
                        col_counts[column] = col_counts.get(column, 0) + 1
                    row_map[column] = updated
        else:
            for column, delta in zip(columns, deltas):
                if delta == 0:
                    continue
                current = get_current(column, 0)
                updated = current + delta
                if current == 0:
                    nnz_delta += 1
                    col_counts[column] = col_counts.get(column, 0) + 1
                if updated == 0:
                    del row_map[column]
                    nnz_delta -= 1
                    remaining = col_counts[column] - 1
                    if remaining:
                        col_counts[column] = remaining
                    else:
                        del col_counts[column]
                else:
                    row_map[column] = updated
        self._nnz += nnz_delta
        if not row_map:
            del self._rows[row]

    def add_column(self, rows: Iterable[Label], column: Label, delta: int) -> None:
        """Bulk ``self[r, column] += delta`` for every ``r`` in ``rows``.

        The column twin of :meth:`add_row` with a single delta: identical to
        one :meth:`add` per row, with the column count, nnz and version
        updated once per call.  Claim 5.3's column scans and the wedge
        counter's mirrored orientation apply through this.
        """
        if not rows or delta == 0:
            return
        self._version += 1
        matrix_rows = self._rows
        nnz_delta = 0
        for row in rows:
            row_map = matrix_rows.get(row)
            if row_map is None:
                matrix_rows[row] = {column: delta}
                nnz_delta += 1
                continue
            current = row_map.get(column, 0)
            updated = current + delta
            if updated == 0:
                del row_map[column]
                nnz_delta -= 1
                if not row_map:
                    del matrix_rows[row]
            else:
                if current == 0:
                    nnz_delta += 1
                row_map[column] = updated
        if nnz_delta:
            self._nnz += nnz_delta
            remaining = self._col_counts.get(column, 0) + nnz_delta
            if remaining:
                self._col_counts[column] = remaining
            else:
                del self._col_counts[column]

    # -- bulk access ----------------------------------------------------------
    def column_labels(self) -> set[Label]:
        """Labels with at least one non-zero column entry.

        Served from the maintained per-column counts — O(distinct columns)
        instead of a scan over every stored entry.
        """
        return set(self._col_counts)

    @property
    def version(self) -> int:
        """Mutation counter; changes whenever any entry changes."""
        return self._version

    def csr(self) -> CountMatrixCSR:
        """The cached interned CSR snapshot of the current contents.

        Built lazily on first use after a mutation and shared by every reader
        until the next mutation, so repeated products over an unchanged
        operand intern it once (see :func:`multiply`).
        """
        cache = self._csr_cache
        if cache is not None and cache.version == self._version:
            return cache
        row_order = list(self._rows)
        col_order = list(self._col_counts)
        col_index = {label: position for position, label in enumerate(col_order)}
        indptr = np.zeros(len(row_order) + 1, dtype=np.int64)
        col_ids = np.empty(self._nnz, dtype=np.int64)
        data = np.empty(self._nnz, dtype=np.int64)
        cursor = 0
        for position, row_map in enumerate(self._rows.values()):
            for column, value in row_map.items():
                col_ids[cursor] = col_index[column]
                data[cursor] = value
                cursor += 1
            indptr[position + 1] = cursor
        cache = CountMatrixCSR(
            version=self._version,
            row_order=row_order,
            col_order=col_order,
            indptr=indptr,
            col_ids=col_ids,
            data=data,
        )
        self._csr_cache = cache
        return cache

    # -- linear-algebra style operations --------------------------------------
    def add_matrix(self, other: "CountMatrix", scale: int = 1) -> None:
        """In-place ``self += scale * other``.

        This is the aggregation step of the warm-up algorithm: once the data
        structure of chunk ``B_{i-1}`` is computed it is added to the running
        sum for ``B_{<i-1}`` (Section 3.2), with deletions represented as
        negative entries.
        """
        for row, column, value in other.items():
            self.add(row, column, scale * value)

    @classmethod
    def from_dense(
        cls,
        dense: np.ndarray,
        row_order: Sequence[Label],
        column_order: Optional[Sequence[Label]] = None,
    ) -> "CountMatrix":
        """Build a sparse matrix from a dense array and its label orders.

        ``column_order`` defaults to ``row_order`` (square matrices).  Rows
        are populated one ``dict(zip(...))`` per non-empty row from the
        row-major nonzero mask (``np.nonzero`` yields row-sorted indices), so
        the batched counters can promote a vectorized rebuild into the
        label-indexed representation without per-entry ``add`` overhead.
        """
        if column_order is None:
            column_order = row_order
        result = cls()
        nonzero_rows, nonzero_columns = np.nonzero(dense)
        if not len(nonzero_rows):
            return result
        values = dense[nonzero_rows, nonzero_columns]
        if _has_duplicates(row_order) or _has_duplicates(column_order):
            # Rare degenerate input: duplicate labels collide, so colliding
            # entries must *sum* (add() semantics) and the bookkeeping must
            # reflect the merged result — take the slow exact path.
            for i, j, value in zip(
                nonzero_rows.tolist(), nonzero_columns.tolist(), values.tolist()
            ):
                result.add(row_order[i], column_order[j], int(value))
            return result
        column_labels = np.empty(len(column_order), dtype=object)
        column_labels[:] = list(column_order)
        entry_labels = column_labels[nonzero_columns]
        value_list = values.tolist()
        if values.dtype.kind not in "iu":  # coerce exotic dtypes like add() would
            value_list = [int(value) for value in value_list]
        distinct_rows, starts = np.unique(nonzero_rows, return_index=True)
        boundaries = starts.tolist() + [len(nonzero_rows)]
        rows = result._rows
        for position, i in enumerate(distinct_rows.tolist()):
            begin, end = boundaries[position], boundaries[position + 1]
            rows[row_order[i]] = dict(
                zip(entry_labels[begin:end].tolist(), value_list[begin:end])
            )
        result._nnz = int(len(values))
        distinct_columns, per_column = np.unique(nonzero_columns, return_counts=True)
        result._col_counts = {
            column_order[j]: int(count)
            for j, count in zip(distinct_columns.tolist(), per_column.tolist())
        }
        return result

    @classmethod
    def from_csr(
        cls,
        matrix: "CsrMatrix",
        row_order: Sequence[Label],
        column_order: Optional[Sequence[Label]] = None,
    ) -> "CountMatrix":
        """Build a label-keyed matrix from a positional :class:`CsrMatrix`.

        ``row_order[i]``/``column_order[j]`` name position ``i``/``j``
        (``column_order`` defaults to ``row_order``).  Rows are promoted one
        ``dict(zip(...))`` per non-empty row, mirroring :meth:`from_dense` —
        this is how the CSR kernels' products cross back into the counters'
        representation without per-entry ``add`` overhead.  The input's
        invariants (coalesced, no explicit zeros) are assumed.
        """
        if column_order is None:
            column_order = row_order
        if not matrix.nnz:
            return cls()
        if _has_duplicates(row_order) or _has_duplicates(column_order):
            # Degenerate duplicate labels: colliding entries must sum.
            return cls._summed(matrix, row_order, column_order)
        # One dict per non-empty row and one count per distinct column.
        column_labels = label_array(column_order)
        result = cls._promoted(matrix, row_order, column_labels)
        per_column = np.bincount(matrix.cols, minlength=matrix.num_cols)
        present = np.flatnonzero(per_column)
        result._col_counts = dict(
            zip(column_labels[present].tolist(), per_column[present].tolist())
        )
        result._version += 1
        return result


class SymmetricCountMatrix(_LabelRows):
    """A label-keyed integer matrix for symmetric tables, stored in both
    orientations so a row read is a dict lookup either way.

    The wedge and path tables of the general-graph counters are symmetric:
    Appendix A's wedge counts, the Section 8 ``W = A·diag(S)·A`` that
    Claim 5.3 maintains, and [HHH22]'s ``W_low``, ``W_hh`` and ``P_LL``.  An
    edge update adds one vertex's star to them: :meth:`add_star` writes
    ``[center, x]`` and ``[x, center]`` for every ``x`` in one pass, where a
    :class:`CountMatrix` takes a row add and a separate column add.  There
    are no column counts to keep, because the column labels are the row
    labels.

    :meth:`add` keeps its single-entry meaning.  Symmetry is the callers'
    invariant: :meth:`add_star` and :meth:`add_square` keep it, and point
    writes come in mirrored pairs or on the diagonal.
    """

    __slots__ = ()

    def add(self, row: Label, column: Label, delta: int) -> None:
        """Add ``delta`` to the one entry ``(row, column)``."""
        if delta == 0:
            return
        rows = self._rows
        row_map = rows.get(row)
        if row_map is None:
            rows[row] = {column: delta}
            self._nnz += 1
            return
        updated = row_map.get(column, 0) + delta
        if updated == 0:
            del row_map[column]
            self._nnz -= 1
            if not row_map:
                del rows[row]
        else:
            if updated == delta:
                self._nnz += 1
            row_map[column] = updated

    def add_star(self, center: Label, others: Iterable[Label], delta: int) -> None:
        """``W += delta·(e_center·1_X^T + 1_X·e_center^T)`` over ``X =
        others``: ``[center, x]`` and ``[x, center]`` gain ``delta`` for every
        ``x``, in one pass.  An ``x`` equal to ``center`` adds ``2·delta`` to
        the diagonal entry, which is both of its orientations."""
        if not others or delta == 0:
            return
        rows = self._rows
        center_row = rows.get(center)
        if center_row is None:
            center_row = rows[center] = {}
        get = center_row.get
        row_of = rows.get
        nnz_delta = 0
        for x in others:
            value = get(x)
            if value is None:
                center_row[x] = delta
                nnz_delta += 1
            elif value + delta:
                center_row[x] = value + delta
            else:
                del center_row[x]
                nnz_delta -= 1
            row_map = row_of(x)
            if row_map is None:
                rows[x] = {center: delta}
                nnz_delta += 1
                continue
            value = row_map.get(center)
            if value is None:
                row_map[center] = delta
                nnz_delta += 1
            elif value + delta:
                row_map[center] = value + delta
            else:
                del row_map[center]
                nnz_delta -= 1
                # The center's row may empty mid-pass and refill; it is
                # dropped once, after the pass.
                if not row_map and x != center:
                    del rows[x]
        self._nnz += nnz_delta
        if not center_row:
            del rows[center]

    def add_square(self, members: Iterable[Label], delta: int) -> None:
        """``[a, b] += delta`` for every ordered pair of ``members``, the
        diagonal included: every wedge through one middle vertex, whose
        neighbourhood ``members`` is."""
        members = list(members)
        for index, center in enumerate(members):
            self.add(center, center, delta)
            self.add_star(center, members[index + 1:], delta)

    @classmethod
    def from_csr(cls, matrix: CsrMatrix, labels: Sequence[Label]) -> "SymmetricCountMatrix":
        """Name a symmetric positional matrix's rows and columns
        ``labels[i]``, promoting one row dict per non-empty row."""
        if not matrix.nnz:
            return cls()
        if _has_duplicates(labels):
            return cls._summed(matrix, labels, labels)
        return cls._promoted(matrix, labels, label_array(labels))

    @classmethod
    def from_dense(cls, dense: np.ndarray, labels: Sequence[Label]) -> "SymmetricCountMatrix":
        """:meth:`from_csr` over the non-zero entries of a dense array."""
        return cls.from_csr(CsrMatrix.from_dense(dense), labels)


def aligned_left_operand(left_csr: CountMatrixCSR, right_csr: CountMatrixCSR) -> CsrMatrix:
    """The left operand of ``left · right`` with columns renumbered into
    right-row positions.

    Only distinct labels are remapped; left columns with no matching right
    row multiply an all-zero row, so their entries are dropped outright.
    When the label orders coincide (the common case inside a product chain)
    the identity mapping short-circuits everything.  Rows keep the left
    export's order.
    """
    middles = len(right_csr.row_order)
    if left_csr.col_order == right_csr.row_order:
        return CsrMatrix.from_parts(left_csr.indptr, left_csr.col_ids, left_csr.data, middles)
    right_rows = {label: position for position, label in enumerate(right_csr.row_order)}
    mapping = np.fromiter(
        (right_rows.get(label, -1) for label in left_csr.col_order),
        dtype=np.int64,
        count=len(left_csr.col_order),
    )
    mapped = mapping[left_csr.col_ids]
    keep = mapped >= 0
    if keep.all():
        # The remap permutes column positions within each row; the kernel
        # never relies on column order in its *left* operand (it only
        # gathers right rows per entry), so no re-sort is needed.
        return CsrMatrix.from_parts(left_csr.indptr, mapped, left_csr.data, middles)
    rows = expand_csr_rows(left_csr.indptr)[keep]
    indptr = _indptr_from_rows(rows, len(left_csr.row_order))
    return CsrMatrix.from_parts(indptr, mapped[keep], left_csr.data[keep], middles)


def right_operand(right_csr: CountMatrixCSR) -> CsrMatrix:
    """The right operand of ``left · right`` as the kernel reads it: rows in
    the export's order, columns numbered by ``right_csr.col_order``."""
    return CsrMatrix.from_parts(
        right_csr.indptr, right_csr.col_ids, right_csr.data, len(right_csr.col_order)
    )


def multiply(
    left: CountMatrix | CountMatrixCSR, right: CountMatrix | CountMatrixCSR
) -> tuple[CountMatrix, int]:
    """The exact product ``left · right`` of two label-keyed matrices.

    Returns ``(product, work)``, where ``work`` is the SpGEMM expansion size:
    one unit per multiply-add, ``sum over stored entries (i, k) of left of
    nnz(row k of right)``.  Both operands are read through their cached CSR
    exports and multiplied by :func:`csr_spgemm`; the product's rows keep the
    left export's order and its columns the right export's.
    """
    left_csr = left.csr()
    right_csr = right.csr()
    product, work = csr_spgemm(aligned_left_operand(left_csr, right_csr), right_operand(right_csr))
    return CountMatrix.from_csr(product, left_csr.row_order, right_csr.col_order), work


#: Shared immutable empty mapping returned for absent rows.
_EMPTY_DICT: Dict[Label, int] = {}
