"""Base classes for fully dynamic 4-cycle counters.

Every counter in :mod:`repro.core` follows the same scheme the paper uses
(Section 2.2 and Appendix A):

* the maintained answer is the total number of 4-cycles;
* an update ``{u, v}`` changes the answer by the number of 4-cycles *through*
  the updated edge, which equals the number of 3-paths between ``u`` and ``v``
  in the graph **without** that edge;
* therefore, on an insertion the query is answered first and the data
  structures are updated afterwards, and on a deletion the data structures are
  updated first and the query answered afterwards (Claim A.3's ordering).

:class:`DynamicFourCycleCounter` implements that template once; concrete
counters supply

* :meth:`DynamicFourCycleCounter._three_paths` — the query, and
* :meth:`DynamicFourCycleCounter._apply_structure_delta` — maintenance of the
  auxiliary structures, always called while the updated edge is *absent* from
  the internal graph (for insertions just before the edge is added, for
  deletions just after it is removed), so maintenance code never needs to
  special-case the updated edge.

A hook :meth:`DynamicFourCycleCounter._post_update` runs after the graph
reflects the new state; counters use it for degree-class transitions and phase
bookkeeping.

Batched updates.  :meth:`DynamicFourCycleCounter.apply_batch` consumes a whole
window of updates at once.  The window is first *normalized*
(:func:`repro.graph.updates.normalize_batch`): insert/delete pairs on the same
edge cancel, consistency is validated once per distinct edge against the live
graph, and the surviving net updates are ordered deletions-first.  The batch
semantics are:

* **counts are exact at batch boundaries** — after ``apply_batch`` returns,
  :attr:`DynamicFourCycleCounter.count` equals the number of 4-cycles of the
  graph obtained by replaying the raw window update-by-update (normalization
  preserves the final graph, and the final graph determines the count);
* **Claim A.3's ordering is preserved within a batch** — the default
  implementation replays the normalized updates through the same
  query-before/after-maintenance sequencing as :meth:`apply`, so every
  per-update delta is still a count of genuine 3-paths;
* intermediate counts *within* a batch are not reported; the harness
  measures the whole window as one entry of its per-update metrics.

Concrete counters can amortize work across the window by overriding
:meth:`DynamicFourCycleCounter._batch_hook` (replace the replay entirely, e.g.
one recount or one vectorized rebuild per batch) or
:meth:`DynamicFourCycleCounter._begin_batch` /
:meth:`DynamicFourCycleCounter._end_batch` (defer degree-class and phase
rebuild checks to the batch boundary while keeping the per-update replay).
"""

from __future__ import annotations

import abc
from typing import Hashable, Iterable, List, Union

import numpy as np

from repro.exceptions import (
    CounterStateError,
    DuplicateEdgeError,
    MissingEdgeError,
    SelfLoopError,
)
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.static_counts import count_four_cycles_trace
from repro.graph.updates import (
    EdgeUpdate,
    UpdateBatch,
    UpdateKind,
    UpdateStream,
    normalize_batch,
)
from repro.instrumentation.cost_model import CostModel
from repro.matmul.engine import CsrMatrix
from repro.matmul.scheduler import ProductDispatcher
from repro.matmul.sharding import ShardExecutor

Vertex = Hashable


class DynamicFourCycleCounter(abc.ABC):
    """Maintains the exact number of 4-cycles in a fully dynamic simple graph."""

    #: Short machine-readable name used by the registry and benchmarks.
    name: str = "abstract"

    #: Minimum net batch size before the brute-force, wedge and hhh22
    #: `_batch_hook` fast paths are taken; below it the per-update replay is
    #: typically cheaper (their rebuilds pay a fixed per-batch kernel cost).
    #: The oracle-backed counters price both paths instead and ignore it.
    batch_fast_path_threshold: int = 32

    def __init__(self, workers: int = 1) -> None:
        #: The batched ``_batch_hook`` fast paths build their vectorized
        #: kernels on the graph's interned representation; the per-update
        #: paths read its label adjacency.
        self._graph = DynamicGraph()
        self._count = 0
        self._updates_processed = 0
        self.cost = CostModel()
        #: Density-aware dense-BLAS vs CSR-SpGEMM choice for the batch hooks'
        #: whole-graph products, decided per product from cost estimates.
        self.product_dispatcher = ProductDispatcher(workers=workers)
        #: Shard-parallel SpGEMM executor for the batch hooks' CSR products.
        #: ``workers=1`` (the default) is an exact pass-through to the serial
        #: kernel; more workers row-partition each product into
        #: column-compressed shards and fan them out on the vehicle the
        #: executor picks per product (results are bit-identical either way —
        #: see :mod:`repro.matmul.sharding`).
        self.shard_executor = ShardExecutor(workers=workers)

    @property
    def workers(self) -> int:
        """The configured shard-parallel worker count (1 = serial kernels)."""
        return self.shard_executor.workers

    def _spgemm(self, left: CsrMatrix, right: CsrMatrix) -> tuple[CsrMatrix, int]:
        """``left @ right`` through the counter's shard executor.

        Batch hooks route their CSR products here instead of calling
        :func:`repro.matmul.engine.csr_spgemm` directly, so one constructor
        knob parallelizes every rebuild.  Bit-identical to the serial kernel
        for every worker count.
        """
        return self.shard_executor.spgemm(left, right)

    def _adjacency_product_decision(self):
        """Dispatch the square adjacency self-product ``A @ A``.

        The expansion size of ``A @ A`` is ``sum over vertices of deg^2``,
        computed from the (warm) CSR view without running the product.
        """
        indptr, indices = self._graph.csr_view()
        degrees = np.diff(indptr)
        work = int(degrees[indices].sum()) if len(indices) else 0
        return self.product_dispatcher.decide_square(len(indptr) - 1, work)

    # -- public API ----------------------------------------------------------
    @property
    def count(self) -> int:
        """The current number of 4-cycles."""
        return self._count

    @property
    def num_edges(self) -> int:
        """The current number of edges ``m``."""
        return self._graph.num_edges

    @property
    def num_vertices(self) -> int:
        return self._graph.num_vertices

    @property
    def updates_processed(self) -> int:
        return self._updates_processed

    @property
    def graph(self) -> DynamicGraph:
        """The maintained graph (read-only use only)."""
        return self._graph

    def insert_edge(self, u: Vertex, v: Vertex) -> int:
        """Insert ``{u, v}`` and return the new 4-cycle count."""
        return self.apply(EdgeUpdate.insert(u, v))

    def delete_edge(self, u: Vertex, v: Vertex) -> int:
        """Delete ``{u, v}`` and return the new 4-cycle count."""
        return self.apply(EdgeUpdate.delete(u, v))

    def apply(self, update: EdgeUpdate) -> int:
        """Process one update and return the new 4-cycle count."""
        self._apply_update_core(update)
        self._updates_processed += 1
        return self._count

    def apply_batch(self, updates: Union[UpdateBatch, Iterable[EdgeUpdate]]) -> int:
        """Process a window of updates as one batch and return the new count.

        Raw windows are normalized first (insert/delete pairs cancel,
        consistency is validated once against the live graph); an
        already-normalized :class:`~repro.graph.updates.UpdateBatch` is
        consumed as-is.  The count is exact at the batch boundary.
        """
        if isinstance(updates, UpdateBatch):
            batch = updates
        else:
            batch = normalize_batch(updates, self._graph.has_edge)
        if not batch.is_empty:
            self._begin_batch(batch)
            try:
                if not self._batch_hook(batch):
                    self._register_touched(batch)
                    for update in batch:
                        self._apply_update_core(update)
            finally:
                self._end_batch(batch)
        else:
            self._register_touched(batch)
        self._updates_processed += batch.raw_size
        return self._count

    def apply_all(self, updates: Iterable[EdgeUpdate]) -> int:
        """Process every update in order and return the final count."""
        for update in updates:
            self.apply(update)
        return self._count

    def process_stream(self, stream: UpdateStream) -> list[int]:
        """Process a stream and return the count after every update."""
        return [self.apply(update) for update in stream]

    def process_stream_batched(self, stream: UpdateStream, batch_size: int) -> List[int]:
        """Process a stream in windows of ``batch_size`` updates.

        Returns the count at every batch boundary (exact there by the batch
        contract); the last entry is the final count.
        """
        return [self.apply_batch(window) for window in stream.batched(batch_size)]

    def load_state(
        self,
        vertices: Iterable[Vertex],
        edges: Iterable[tuple[Vertex, Vertex]],
        updates_processed: int = 0,
    ) -> int:
        """Load a snapshotted graph state into a freshly constructed counter.

        Registers ``vertices`` (in order, so isolated vertices and interner id
        assignment are reproduced), bulk-inserts ``edges`` through the exact
        batched pipeline — which rebuilds every auxiliary structure — and then
        resets the bookkeeping (update total, cost model) so the restore
        itself leaves no trace in measurements.  Returns the count.
        Used by :meth:`repro.api.engine.FourCycleEngine.restore`.
        """
        if self._updates_processed or self.num_edges:
            raise CounterStateError(
                "load_state requires a freshly constructed counter "
                f"(updates={self._updates_processed}, m={self.num_edges})"
            )
        for vertex in vertices:
            self._graph.add_vertex(vertex)
        inserts = [EdgeUpdate.insert(u, v) for u, v in edges]
        if inserts:
            self.apply_batch(inserts)
        self._updates_processed = updates_processed
        self.cost.reset()
        return self._count

    def recount(self) -> int:
        """Recompute the 4-cycle count from scratch (for validation)."""
        return count_four_cycles_trace(self._graph)

    def is_consistent(self) -> bool:
        """Whether the maintained count matches a from-scratch recount."""
        return self._count == self.recount()

    # -- update core -----------------------------------------------------------
    def _apply_update_core(self, update: EdgeUpdate) -> None:
        """Apply one update (Claim A.3 ordering); the callers count it."""
        u, v = update.u, update.v
        if update.kind is UpdateKind.INSERT:
            self._validate_insert(u, v)
            delta = self._three_paths(u, v)
            self._apply_structure_delta(u, v, +1)
            self._graph.insert_edge(u, v)
            self._post_update(u, v, +1)
            self._count += delta
        else:
            self._validate_delete(u, v)
            self._graph.delete_edge(u, v)
            self._apply_structure_delta(u, v, -1)
            delta = self._three_paths(u, v)
            self._post_update(u, v, -1)
            self._count -= delta

    def _register_touched(self, batch: UpdateBatch) -> None:
        """Register every vertex the raw window touched (cancelled pairs
        included) so the graph matches a per-update replay exactly.  The
        replay path calls this itself; fast-path hooks get it for free from
        :meth:`DynamicGraph.apply_batch`."""
        for vertex in batch.touched_vertices:
            self._graph.add_vertex(vertex)

    # -- hooks for subclasses --------------------------------------------------
    def _batch_hook(self, batch: UpdateBatch) -> bool:
        """Amortized fast path for a whole normalized batch.

        Called with the graph still in its pre-batch state.  Return ``True``
        after fully applying the batch (graph, auxiliary structures, *and*
        :attr:`count`); return ``False`` without touching any state to fall
        back to the exact per-update replay.  The default always falls back.
        Hooks should mutate the graph via :meth:`DynamicGraph.apply_batch`,
        which also registers the window's touched vertices (the replay path
        registers them itself via :meth:`_register_touched`).
        """
        return False

    def _begin_batch(self, batch: UpdateBatch) -> None:
        """Hook called before a batch is applied (fast path or replay).

        Counters use it to start deferring degree-class and phase rebuild
        checks to the batch boundary.
        """

    def _end_batch(self, batch: UpdateBatch) -> None:
        """Hook called after a batch is applied; flush deferred checks here."""

    @abc.abstractmethod
    def _three_paths(self, u: Vertex, v: Vertex) -> int:
        """Number of 3-paths between ``u`` and ``v``; the edge ``{u, v}`` is
        guaranteed to be absent from :attr:`graph` when this is called."""

    def _apply_structure_delta(self, u: Vertex, v: Vertex, sign: int) -> None:
        """Update auxiliary structures for the (signed) edge ``{u, v}``.

        Called while the edge is absent from :attr:`graph`: just before the
        graph insertion (``sign = +1``) or just after the graph deletion
        (``sign = -1``).  The default does nothing.
        """

    def _post_update(self, u: Vertex, v: Vertex, sign: int) -> None:
        """Hook called after the graph reflects the new state."""

    # -- validation ------------------------------------------------------------
    def _validate_insert(self, u: Vertex, v: Vertex) -> None:
        if u == v:
            raise SelfLoopError(f"cannot insert self-loop at {u!r}")
        if self._graph.has_edge(u, v):
            raise DuplicateEdgeError(f"edge ({u!r}, {v!r}) is already present")

    def _validate_delete(self, u: Vertex, v: Vertex) -> None:
        if not self._graph.has_edge(u, v):
            raise MissingEdgeError(f"edge ({u!r}, {v!r}) is not present")

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(count={self._count}, m={self.num_edges}, "
            f"updates={self._updates_processed})"
        )
