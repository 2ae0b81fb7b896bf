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
* intermediate counts *within* a batch are not reported; the harness
  measures the whole window as one entry of its per-update metrics.

Every counter is exact after every update, so a window has two exact paths:
replay the normalized updates through :meth:`apply`'s Claim A.3 ordering (so
every per-update delta is still a count of genuine 3-paths), or apply them to
the graph in bulk and recompute the structures and the count from it
(:meth:`DynamicFourCycleCounter._rebuild`).
:meth:`DynamicFourCycleCounter._replay_is_cheaper` is the one decision between
them, from the counter's prices for both (``_replay_cost``,
``_rebuild_cost``; a counter without a bulk path prices its rebuild at
infinity) and an O(1) bound on the first (``_replay_bound``) that settles
small windows without pricing their updates.  ``_begin_batch``/``_end_batch``
bracket either path, so counters can defer degree-class and phase checks to
the batch boundary.
"""

from __future__ import annotations

import abc
import math
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
from repro.matmul.omega import DICT_OP_COST, VECTORIZED_PRODUCT_OVERHEAD
from repro.matmul.scheduler import ProductDispatcher
from repro.matmul.sharding import ShardExecutor

Vertex = Hashable

# Prices of the two batch paths, in the units of repro.matmul.omega.  A
# label-keyed operation (a query's lookup or probe, a stored entry) costs
# DICT_OP_COST.  The constants below were fitted on 256-update windows over
# uniform graphs (n = 10^4 / m = 5,000, n = 2,000 / m = 20,000,
# n = 1,000 / m = 2,000) and E10's 24-vertex graph, timed on 2 vCPUs under
# CPython 3.11, where a label-keyed operation took 0.1-0.5 µs; the counters'
# own terms were checked on E10-E12's windows and on uniform and Zipf graphs
# of 2,000-20,000 vertices.
#: One replayed update besides the counter's own operations: validation, the
#: graph mutation and the counter's calls (15-25 µs).
REPLAY_UPDATE_COST = 100 * DICT_OP_COST
#: One bulk rebuild's fixed part: its kernel launches and set-up (0.4 ms).
REBUILD_OVERHEAD = 60 * VECTORIZED_PRODUCT_OVERHEAD
#: A bulk rebuild's cost per vertex and per edge: the CSR export, the degree
#: vector, the per-row arrays and the count (about 1 µs).
REBUILD_ELEMENT_COST = 5 * DICT_OP_COST


def rebuild_base_cost(vertices: int, edges: int) -> float:
    """The part of any bulk rebuild's price that only the graph's size sets:
    its fixed part and its per-vertex and per-edge export."""
    return REBUILD_OVERHEAD + (vertices + edges) * REBUILD_ELEMENT_COST


def _rebuild_is_settled(size: int, rebuild: float) -> bool:
    """Whether ``size`` updates, each replayed at no less than
    :data:`REPLAY_UPDATE_COST`, already cost ``rebuild``."""
    return size * REPLAY_UPDATE_COST >= rebuild


class DynamicFourCycleCounter(abc.ABC):
    """Maintains the exact number of 4-cycles in a fully dynamic simple graph."""

    #: Short machine-readable name used by the registry and benchmarks.
    name: str = "abstract"

    def __init__(self, workers: int = 1) -> None:
        #: The bulk :meth:`_rebuild` paths build their vectorized kernels on
        #: the graph's interned representation; the per-update paths read
        #: its label adjacency.
        self._graph = DynamicGraph()
        self._count = 0
        self._updates_processed = 0
        self.cost = CostModel()
        #: Density-aware dense-BLAS vs CSR-SpGEMM choice for the rebuilds'
        #: whole-graph products, decided per product from cost estimates.
        self.product_dispatcher = ProductDispatcher(workers=workers)
        #: Shard-parallel SpGEMM executor for the rebuilds' CSR products.
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

        Rebuilds route their CSR products here instead of calling
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
        consumed as-is.  The window is replayed or rebuilt, whichever
        :meth:`_replay_is_cheaper` picks; the count is exact at the batch
        boundary either way.
        """
        if isinstance(updates, UpdateBatch):
            batch = updates
        else:
            batch = normalize_batch(updates, self._graph.has_edge)
        if batch.is_empty:
            self._register_touched(batch)
        else:
            self._begin_batch()
            try:
                if self._replay_is_cheaper(batch):
                    self._register_touched(batch)
                    for update in batch:
                        self._apply_update_core(update)
                else:
                    self._graph.apply_batch(batch)
                    self._rebuild()
            finally:
                self._end_batch()
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
        assignment are reproduced) and inserts ``edges`` — in one bulk call
        and one :meth:`_rebuild` when their number alone settles the batch
        decision, else through :meth:`apply_batch` — then resets the
        bookkeeping (update total, cost model) so the restore itself leaves
        no trace in measurements.  A self-loop or a repeated edge raises.
        Returns the count.  Used by
        :meth:`repro.api.engine.FourCycleEngine.restore`.
        """
        if self._updates_processed or self.num_edges:
            raise CounterStateError(
                "load_state requires a freshly constructed counter "
                f"(updates={self._updates_processed}, m={self.num_edges})"
            )
        graph = self._graph
        graph.add_vertices(vertices)
        edges = list(edges)
        if _rebuild_is_settled(len(edges), self._rebuild_cost(graph.num_vertices, len(edges))):
            graph.insert_edges(edges)
            self._begin_batch()
            try:
                self._rebuild()
            finally:
                self._end_batch()
        else:
            self.apply_batch([EdgeUpdate.insert(u, v) for u, v in edges])
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
        replay path calls this itself; the rebuild path gets it for free from
        :meth:`DynamicGraph.apply_batch`."""
        self._graph.add_vertices(batch.touched_vertices)

    # -- the batch-path decision ------------------------------------------------
    def _replay_is_cheaper(self, batch: UpdateBatch) -> bool:
        """Whether replaying ``batch`` is estimated to cost less than the bulk
        rebuild, both priced by the counter from sizes it already holds (no
        price exports the CSR view).  Two O(1) tests decide most windows
        without pricing their updates: one that is large against the graph
        after it (set-up, a restore, a merged WAL-recovery window) rebuilds,
        and one whose :meth:`_replay_bound` stays below the rebuild's price
        replays.  Otherwise the replay's price is summed update by update
        until it passes the rebuild's.

        The bound is first tested against the rebuild priced at the current
        vertex count, which settles a small window without counting the
        vertices it brings.  That takes the same path: a window only adds
        vertices, a counter that keeps a bound prices its rebuild no lower
        for more of them, and the bound is at least
        ``len(batch)·REPLAY_UPDATE_COST``, so a window it settles never has a
        settled rebuild."""
        graph = self._graph
        edges = graph.num_edges + batch.net_edge_delta()
        bound = self._replay_bound(batch)
        if bound < math.inf and bound < self._rebuild_cost(graph.num_vertices, edges):
            return True
        rebuild = self._rebuild_cost(
            graph.num_vertices + len(batch.touched_vertices.difference(graph.adjacency)), edges
        )
        if _rebuild_is_settled(len(batch), rebuild):
            return False
        if bound < rebuild:
            return True
        return self._replay_cost(batch, rebuild) < rebuild

    def _rebuild_cost(self, vertices: int, edges: int) -> float:
        """The estimated cost of :meth:`_rebuild` over a graph of ``vertices``
        and ``edges``.  The default counter has no bulk path: infinity."""
        return math.inf

    def _replay_cost(self, batch: UpdateBatch, limit: float) -> float:
        """The estimated cost of replaying ``batch`` update by update,
        queries included; the sum may stop once it reaches ``limit``."""
        return len(batch) * REPLAY_UPDATE_COST

    def _replay_bound(self, batch: UpdateBatch) -> float:
        """An upper bound on :meth:`_replay_cost`, read in O(1) from sizes the
        counter holds; infinity where it keeps none.  A counter whose rebuild
        price can fall as the vertex count grows must keep none (the oracle
        counters keep none: their product estimate reads the average degree
        ``2m/n``), because :meth:`_replay_is_cheaper` tests a finite bound
        against the rebuild priced before the window's new vertices."""
        return math.inf

    def _rebuild(self) -> None:
        """The bulk path: recompute the auxiliary structures and the count
        from the graph, which has already applied the window.  Called only
        when :meth:`_rebuild_cost` is finite; it returns nothing and never
        declines."""
        raise NotImplementedError(f"{type(self).__name__} has no bulk rebuild")

    # -- hooks for subclasses --------------------------------------------------
    def _begin_batch(self) -> None:
        """Hook called before a batch is applied (replay or rebuild).

        Counters use it to start deferring degree-class and phase rebuild
        checks to the batch boundary.
        """

    def _end_batch(self) -> None:
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
