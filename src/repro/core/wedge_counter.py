"""The simple wedge-based counter of Appendix A.

Maintains the number of wedges (2-paths) between every pair of vertices.  An
edge update touches ``deg(u) + deg(v) = O(n)`` wedge counts, and a query sums
``deg(u) = O(n)`` stored counts, giving the ``O(n)`` worst-case update time of
Lemma A.1.  The distinctness argument of Claim A.3 — every 3-walk counted is a
genuine 3-path because the updated edge is absent at query time — is inherited
from the base-class ordering.

Batched windows take one of three fast paths, chosen by cost estimates:

* **incremental** — the wedge delta ``ΔW = ΔA·A_new + A_old·ΔA`` is computed
  over only the rows the batch touches (``ΔA`` extracted from the normalized
  batch through the interner) and merged into the maintained matrix in place;
* **CSR rebuild** — one sparse ``A @ A`` through the Gustavson SpGEMM kernel;
* **dense rebuild** — one BLAS ``A @ A`` over the interned adjacency matrix.

All three end bit-identical to the per-update path; the dispatch is pure
performance.
"""

from __future__ import annotations

from typing import Hashable, Optional

import numpy as np

from repro.core.base import DynamicFourCycleCounter
from repro.graph.updates import UpdateBatch
from repro.kernels import CsrMatrix, csr_linear_combination, exact_integer_matmul
from repro.matmul.engine import CountMatrix
from repro.matmul.omega import CSR_OP_COST, DICT_OP_COST, VECTORIZED_PRODUCT_OVERHEAD

Vertex = Hashable


class WedgeCounter(DynamicFourCycleCounter):
    """Appendix A: all-pairs wedge counts, ``O(n)`` worst-case update time."""

    name = "wedge"

    def __init__(
        self,
        record_metrics: bool = False,
        workers: int = 1,
        incremental: Optional[bool] = None,
    ) -> None:
        super().__init__(record_metrics=record_metrics, workers=workers)
        #: ``wedges[a][b]`` = number of common neighbors of ``a`` and ``b``;
        #: stored symmetrically (both orientations) for O(1) lookups.
        self._wedges = CountMatrix()
        #: ``None`` picks incremental versus full rebuild by cost estimate per
        #: batch; ``True``/``False`` force the choice (benchmarks and the
        #: incremental-vs-full equivalence tests pin both modes).
        self.incremental = incremental

    @property
    def wedge_matrix(self) -> CountMatrix:
        """The maintained wedge-count matrix (read-only use only)."""
        return self._wedges

    def wedges_between(self, a: Vertex, b: Vertex) -> int:
        """The maintained number of wedges between ``a`` and ``b``."""
        return self._wedges.get(a, b)

    def _batch_hook(self, batch: UpdateBatch) -> bool:
        """Batch fast path: one incremental merge or one rebuild per batch.

        The rebuild computes ``A @ A`` (off-diagonal) on whichever kernel the
        dispatcher picks, which simultaneously yields the exact 4-cycle count
        at the batch boundary: an unordered pair with ``w`` common neighbors
        spans ``C(w, 2)`` 4-cycles per diagonal, and every 4-cycle has two
        diagonals, so the ordered-pair sum of ``C(w, 2)`` counts each cycle
        four times.  When the batch is small relative to the graph the hook
        instead merges the exact wedge delta (see
        :meth:`_apply_incremental_delta`) and updates the count from the
        modified entries alone.
        """
        if len(batch) < self.batch_fast_path_threshold:
            return False
        self._graph.apply_batch(batch)
        decision = self._adjacency_product_decision()
        if self._choose_incremental(batch, decision):
            self._apply_incremental_delta(batch)
        elif decision.backend == "dense":
            matrix, order = self._graph.interned_adjacency_matrix()
            self._rebuild_dense(matrix, order)
        else:
            self._rebuild_csr()
        return True

    def _choose_incremental(self, batch: UpdateBatch, decision) -> bool:
        """Whether to merge ``ΔW`` instead of rebuilding ``A @ A``.

        The incremental cost has two parts: the ``ΔA``-row expansions
        (``sum over ΔA entries of deg`` plus the tiny ``ΔA·ΔA``) at the CSR
        per-operation constant, and the per-entry dict merge of ``ΔW`` into
        the maintained matrix at interpreter constants (``ΔW``'s size is
        bounded by the expansion).  The full-rebuild side also rebuilds the
        wedge ``CountMatrix`` from scratch, charged per stored entry.  The
        incremental path wins exactly when the batch touches a small fraction
        of the graph's wedge mass.
        """
        if self.incremental is not None:
            return self.incremental
        indptr, indices = self._graph.csr_view()
        degrees = np.diff(indptr)
        touched = [
            vid
            for vertex in batch.touched_vertices
            if (vid := self._graph.interner.get_id(vertex)) is not None
        ]
        delta_nnz = 2 * len(batch)
        expansion = int(degrees[touched].sum()) * 2 + delta_nnz
        incremental_cost = (
            expansion * (CSR_OP_COST + DICT_OP_COST) + VECTORIZED_PRODUCT_OVERHEAD
        )
        # A rebuild repopulates the whole wedge matrix; its row dicts hold at
        # most one entry per expansion unit of A @ A (usually far fewer).
        rebuild_cost = decision.cost + self._wedges.nnz * CSR_OP_COST
        return incremental_cost < rebuild_cost

    def _apply_incremental_delta(self, batch: UpdateBatch) -> None:
        """Merge ``ΔW = ΔA·A_new + A_old·ΔA`` into the maintained matrix.

        Called with the graph already in its post-batch state.  Both ``ΔA``
        and the adjacency are symmetric, so ``A_old·ΔA = (ΔA·A_old)^T`` and
        ``ΔA·A_old = ΔA·A_new - ΔA·ΔA`` — two small SpGEMMs whose left
        operand has non-empty rows only for the batch's touched vertices.
        The count moves by ``sum of C(w + d, 2) - C(w, 2)`` over the modified
        off-diagonal entries, divided by the 4 ordered diagonal orientations.
        """
        graph = self._graph
        delta = graph.interned_update_delta(batch)
        adjacency = graph.csr_matrix()
        n = adjacency.num_rows
        touched_rows, work_new = self._spgemm(delta, adjacency)    # ΔA · A_new
        delta_square, work_delta = self._spgemm(delta, delta)      # ΔA · ΔA
        mirrored = csr_linear_combination(                         # ΔA · A_old
            [(1, touched_rows), (-1, delta_square)], n, n
        )
        wedge_delta = CsrMatrix.from_coo(
            np.concatenate((touched_rows.row_ids(), mirrored.cols)),
            np.concatenate((touched_rows.cols, mirrored.row_ids())),
            np.concatenate((touched_rows.data, mirrored.data)),
            n,
            n,
        ).without_diagonal()
        label_array = np.empty(n, dtype=object)
        label_array[:] = graph.interner.labels
        entry_labels = label_array[wedge_delta.cols].tolist()
        entry_deltas = wedge_delta.data.tolist()
        indptr = wedge_delta.indptr
        wedges = self._wedges
        pair_delta = 0
        for position in np.nonzero(np.diff(indptr))[0].tolist():
            begin, end = int(indptr[position]), int(indptr[position + 1])
            columns = entry_labels[begin:end]
            deltas = entry_deltas[begin:end]
            get_old = wedges.row(label_array[position]).get
            # C(w + d, 2) - C(w, 2) = d (2 w + d - 1) / 2, entrywise.
            pair_delta += sum(
                delta * (2 * get_old(column, 0) + delta - 1)
                for column, delta in zip(columns, deltas)
            )
            wedges.add_row(label_array[position], columns, deltas)
        if pair_delta % 8 != 0:
            # Explicit raise (not a bare assert) so the exactness gate
            # survives `python -O`, matching four_cycles_from_csr_square.
            raise AssertionError(
                f"incremental wedge delta is not a multiple of 8 ({pair_delta}); "
                "a diagonal orientation was lost"
            )
        self._count += pair_delta // 8
        self.cost.charge(
            "batch_incremental", work_new + work_delta + wedge_delta.nnz
        )

    def _rebuild_csr(self) -> None:
        """Full rebuild through the sparse SpGEMM kernel (no dense n x n)."""
        adjacency = self._graph.csr_matrix()
        wedge, work = self._spgemm(adjacency, adjacency)
        wedge = wedge.without_diagonal()
        self._wedges = CountMatrix.from_csr(wedge, self._graph.interner.labels)
        pairs = wedge.data * (wedge.data - 1) // 2
        self._count = int(pairs.sum()) // 4
        self.cost.charge("batch_rebuild", work)

    def _rebuild_dense(self, matrix: np.ndarray, order) -> None:
        """Full rebuild through one dense BLAS product."""
        n = matrix.shape[0]
        wedge = exact_integer_matmul(matrix, matrix)
        np.fill_diagonal(wedge, 0)
        # One dense n x n product: ~n^3 multiply-adds, charged so the ops
        # columns stay comparable with the per-update structure_update path.
        self.cost.charge("batch_rebuild", n * n * n)
        self._wedges = CountMatrix.from_dense(wedge, order)
        pairs = wedge * (wedge - 1) // 2
        self._count = int(pairs.sum()) // 4

    def _three_paths(self, u: Vertex, v: Vertex) -> int:
        # Sum wedges(x, v) over x in N(u).  The wedge matrix is symmetric, so
        # the sum can be aggregated from whichever side is smaller: the
        # neighborhood of u or the non-zero wedge row of v (the row is what a
        # high-degree neighborhood scan used to probe entry by entry).
        neighbors = self._graph.neighbors(u)
        row = self._wedges.row(v)
        total = 0
        if len(row) < len(neighbors):
            self.cost.charge("structure_lookup", len(row))
            for x, value in row.items():
                if x in neighbors:
                    total += value
        else:
            self.cost.charge("structure_lookup", len(neighbors))
            for x in neighbors:
                total += row.get(x, 0)
        return total

    def _apply_structure_delta(self, u: Vertex, v: Vertex, sign: int) -> None:
        # New wedges created (or destroyed) by the edge {u, v} are exactly the
        # wedges centered at u (paired with v) and centered at v (paired with
        # u); the edge itself is absent from the graph here, so the neighbor
        # sets never contain the opposite endpoint.  The matrix is symmetric:
        # each endpoint's neighbors change one row and one column.
        wedges = self._wedges
        neighbors_u = self._graph.neighbors(u)
        if neighbors_u:
            self.cost.charge("structure_update", 2 * len(neighbors_u))
            wedges.add_row(v, neighbors_u, sign)
            wedges.add_column(neighbors_u, v, sign)
        neighbors_v = self._graph.neighbors(v)
        if neighbors_v:
            self.cost.charge("structure_update", 2 * len(neighbors_v))
            wedges.add_row(u, neighbors_v, sign)
            wedges.add_column(neighbors_v, u, sign)
