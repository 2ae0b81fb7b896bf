"""The warm-up algorithm of Section 3: ``A`` and ``C`` fixed, updates in ``B``.

The warm-up algorithm assumes (Assumption 3) that only the middle relation
``B`` changes.  Updates to ``B`` are grouped into *chunks* of (roughly)
``m^{2/3 - eps1}`` updates.  The two most recent chunks are evaluated lazily at
query time (a linear scan of their signed edges), while older chunks are folded
into aggregate data structures computed with (rectangular) fast matrix
multiplication when a chunk is sealed:

* ``W_AB = A · B_old``  — wedge counts from ``L1`` to ``L3``;
* ``W_BC = B_old · C``  — wedge counts from ``L2`` to ``L4``;
* ``P_HH = A^{H*} · B_old · C^{*H}`` — 3-path counts stored explicitly for
  pairs of *high* endpoints (the paper's Eq. (1) structure), because neither
  endpoint's neighborhood can be scanned within the time bound.

Queries route exactly as in Lemma 3.8: high/high pairs read ``P_HH``;
otherwise the endpoint with the smaller (non-high) degree is scanned and the
opposite wedge table is used.  Deleting an edge that was inserted in an older
chunk simply appears as a *negative edge* in the current chunk (the remark at
the end of Section 3.3); the signed arithmetic makes the aggregates cancel.

Fidelity note: the paper additionally splits the per-chunk structures by the
endpoint classes (``H``/``M``/``L``) and by per-chunk density (``D``/``S``) so
that every individual structure fits the ``O(m^{2/3-eps1})`` update budget; we
fold whole chunks with one (fast) matrix product instead, which preserves the
chunk/FMM architecture and exactness while keeping the bookkeeping tractable.
The per-class machinery that the split exists for is exercised by
:mod:`repro.core.assadi_shah`.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.core.oracles import ThreePathOracle
from repro.exceptions import ConfigurationError, InvalidUpdateError
from repro.instrumentation.cost_model import CostModel
from repro.matmul.engine import CountMatrix, multiply
from repro.theory.parameters import solve_warmup_parameters

Vertex = Hashable


class WarmupThreePathOracle(ThreePathOracle):
    """Section 3 oracle: fixed ``A`` and ``C``, chunked dynamic ``B``."""

    name = "warmup-oracle"

    def __init__(
        self,
        a_edges: Iterable[Tuple[Vertex, Vertex]],
        c_edges: Iterable[Tuple[Vertex, Vertex]],
        chunk_size: Optional[int] = None,
        eps1: Optional[float] = None,
        high_threshold: Optional[float] = None,
        cost: Optional[CostModel] = None,
    ) -> None:
        super().__init__(cost=cost)
        for left, right in a_edges:
            self.relation(1).apply(left, right, +1)
        for left, right in c_edges:
            self.relation(3).apply(left, right, +1)
        fixed_m = max(self.relation(1).size + self.relation(3).size, 1)
        if eps1 is None:
            eps1 = solve_warmup_parameters(eps=0.0098109).eps1
        self._eps1 = eps1
        if chunk_size is None:
            chunk_size = max(4, int(math.ceil(float(fixed_m) ** (2.0 / 3.0 - eps1))))
        if chunk_size <= 0:
            raise ConfigurationError(f"chunk_size must be positive, got {chunk_size}")
        self._chunk_size = chunk_size
        if high_threshold is None:
            high_threshold = float(fixed_m) ** (2.0 / 3.0 - eps1)
        self._high_threshold = high_threshold
        # Endpoint classes are fixed because A and C are fixed (Section 7 notes
        # the warm-up algorithm has no class transitions).
        self._high_left: Set[Vertex] = {
            vertex
            for vertex, neighbors in self.relation(1).forward.items()
            if len(neighbors) >= high_threshold
        }
        self._high_right: Set[Vertex] = {
            vertex
            for vertex, neighbors in self.relation(3).backward.items()
            if len(neighbors) >= high_threshold
        }
        # Cached fixed matrices for the chunk folds.
        self._matrix_a = self.relation(1).to_count_matrix()
        self._matrix_c = self.relation(3).to_count_matrix()
        self._matrix_a_high = _restrict(self._matrix_a, rows=self._high_left)
        self._matrix_c_high = _restrict(self._matrix_c, columns=self._high_right)
        # Aggregated structures over the old (folded) chunks.
        self._wedges_ab = CountMatrix()
        self._wedges_bc = CountMatrix()
        self._paths_hh = CountMatrix()
        self._b_old: Dict[Tuple[Vertex, Vertex], int] = {}
        # The two most recent chunks, evaluated lazily.
        self._previous_chunk: List[Tuple[Vertex, Vertex, int]] = []
        self._current_chunk: List[Tuple[Vertex, Vertex, int]] = []
        self._chunks_sealed = 0

    # -- introspection -----------------------------------------------------------
    @property
    def chunk_size(self) -> int:
        return self._chunk_size

    @property
    def chunks_sealed(self) -> int:
        return self._chunks_sealed

    @property
    def high_threshold(self) -> float:
        return self._high_threshold

    def is_high_left(self, vertex: Vertex) -> bool:
        return vertex in self._high_left

    def is_high_right(self, vertex: Vertex) -> bool:
        return vertex in self._high_right

    # -- updates -------------------------------------------------------------------
    def _before_relation_update(self, position: int, left: Vertex, right: Vertex, sign: int) -> None:
        if position != 2:
            raise InvalidUpdateError(
                "the warm-up oracle only accepts updates to the middle relation B "
                "(Assumption 3: A and C are fixed)"
            )

    def _after_relation_update(self, position: int, left: Vertex, right: Vertex, sign: int) -> None:
        self.cost.charge("structure_update")
        self._current_chunk.append((left, right, sign))
        if len(self._current_chunk) >= self._chunk_size:
            self._seal_chunk()

    def _seal_chunk(self) -> None:
        """Fold the *previous* chunk into the aggregates and rotate chunks.

        While the freshly sealed chunk was being filled, the previous one was
        evaluated lazily; its aggregates are computed now (in the paper this
        work is spread over the chunk that just finished).
        """
        if self._previous_chunk:
            self._fold_chunk(self._previous_chunk)
        self._previous_chunk = self._current_chunk
        self._current_chunk = []
        self._chunks_sealed += 1

    def _fold_chunk(self, chunk: List[Tuple[Vertex, Vertex, int]]) -> None:
        chunk_matrix = CountMatrix()
        for left, right, sign in chunk:
            chunk_matrix.add(left, right, sign)
            key = (left, right)
            value = self._b_old.get(key, 0) + sign
            if value == 0:
                self._b_old.pop(key, None)
            else:
                self._b_old[key] = value
        if not chunk_matrix:
            return
        product_ab, work_ab = multiply(self._matrix_a, chunk_matrix)
        product_bc, work_bc = multiply(chunk_matrix, self._matrix_c)
        product_ah_b, work_ah_b = multiply(self._matrix_a_high, chunk_matrix)
        product_hh, work_hh = multiply(product_ah_b, self._matrix_c_high)
        self.cost.charge("matmul_ops", work_ab + work_bc + work_ah_b + work_hh)
        self._wedges_ab.add_matrix(product_ab)
        self._wedges_bc.add_matrix(product_bc)
        self._paths_hh.add_matrix(product_hh)

    # -- query ------------------------------------------------------------------------
    def count_three_paths(self, u: Vertex, v: Vertex) -> int:
        total = self._lazy_recent_paths(u, v)
        total += self._old_paths(u, v)
        return total

    def _lazy_recent_paths(self, u: Vertex, v: Vertex) -> int:
        """Paths whose B edge lies in the two most recent chunks (lazy scan)."""
        a_forward = self.relation(1).forward.get(u, _EMPTY_SET)
        c_backward = self.relation(3).backward.get(v, _EMPTY_SET)
        total = 0
        for chunk in (self._previous_chunk, self._current_chunk):
            for left, right, sign in chunk:
                self.cost.charge("adjacency_probe")
                if left in a_forward and right in c_backward:
                    total += sign
        return total

    def _old_paths(self, u: Vertex, v: Vertex) -> int:
        """Paths whose B edge lies in an already-folded chunk."""
        u_high = u in self._high_left
        v_high = v in self._high_right
        if u_high and v_high:
            self.cost.charge("structure_lookup")
            return self._paths_hh.get(u, v)
        total = 0
        if not v_high:
            for y in self.relation(3).backward.get(v, _EMPTY_SET):
                self.cost.charge("structure_lookup")
                total += self._wedges_ab.get(u, y)
            return total
        for x in self.relation(1).forward.get(u, _EMPTY_SET):
            self.cost.charge("structure_lookup")
            total += self._wedges_bc.get(x, v)
        return total


def _restrict(
    matrix: CountMatrix, rows: Optional[Set[Vertex]] = None, columns: Optional[Set[Vertex]] = None
) -> CountMatrix:
    """The submatrix of ``matrix`` with rows/columns limited to the given sets;
    ``None`` keeps every row/column (the paper's ``*``, as in ``A^{H*}``)."""
    result = CountMatrix()
    for row, column, value in matrix.items():
        if (rows is None or row in rows) and (columns is None or column in columns):
            result.add(row, column, value)
    return result


#: Shared immutable empty set.
_EMPTY_SET: frozenset = frozenset()
