"""One-pass symmetric maintenance against the per-pair reference.

The functions below are the wedge counter's and hhh22's per-update
maintenance in their per-pair form: two ``SymmetricCountMatrix.add`` calls
and one ``CostModel.charge`` per wedge or path.  Patched into the counters
they are the reference that the one-pass ``add_star`` writes are compared
against: the same count after every update, the same cost totals in every
category and the same stored tables.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import pytest

from repro.core.hhh22 import HHH22Counter
from repro.core.wedge_counter import WedgeCounter
from repro.graph.updates import EdgeUpdate

from tests.conftest import random_dynamic_stream


def per_pair_wedge_delta(self, u, v, sign) -> None:
    for center, other in ((u, v), (v, u)):
        for x in self._graph.neighbors(center):
            self.cost.charge("structure_update", 2)
            self._wedges.add(other, x, sign)
            self._wedges.add(x, other, sign)


def per_pair_update_wedges(self, center, other, sign) -> None:
    if center in self._high:
        if other not in self._high:
            return
        for b in self._high_neighbors(center):
            self.cost.charge("structure_update", 2)
            self._wedges_high.add(other, b, sign)
            self._wedges_high.add(b, other, sign)
    else:
        for b in self._graph.neighbors(center):
            self.cost.charge("structure_update", 2)
            self._wedges_low.add(other, b, sign)
            self._wedges_low.add(b, other, sign)


def per_pair_update_paths_middle_edge(self, u, v, sign) -> None:
    if u in self._high or v in self._high:
        return
    for a in self._graph.neighbors(u):
        for b in self._graph.neighbors(v):
            self.cost.charge("structure_update")
            if a != b:
                self._paths_ll.add(a, b, sign)
                self._paths_ll.add(b, a, sign)


def per_pair_update_paths_end_edge(self, endpoint, middle, sign) -> None:
    if middle in self._high:
        return
    for y in self._graph.neighbors(middle):
        self.cost.charge("neighborhood_scan")
        if y in self._high:
            continue
        for b in self._graph.neighbors(y):
            self.cost.charge("structure_update")
            if b != endpoint and b != middle:
                self._paths_ll.add(endpoint, b, sign)
                self._paths_ll.add(b, endpoint, sign)


REFERENCES = {
    "wedge": (WedgeCounter, [("_apply_structure_delta", per_pair_wedge_delta)]),
    "hhh22": (
        HHH22Counter,
        [
            ("_update_wedges", per_pair_update_wedges),
            ("_update_paths_middle_edge", per_pair_update_paths_middle_edge),
            ("_update_paths_end_edge", per_pair_update_paths_end_edge),
        ],
    ),
}


@contextlib.contextmanager
def per_pair_reference(name: str):
    counter_class, patches = REFERENCES[name]
    with contextlib.ExitStack() as stack:
        for method, function in patches:
            stack.enter_context(mock.patch.object(counter_class, method, function))
        yield


def tables(counter) -> tuple:
    if isinstance(counter, WedgeCounter):
        matrices = (counter.wedge_matrix,)
    else:
        matrices = (counter._wedges_low, counter._wedges_high, counter._paths_ll)
    return tuple(
        ({row: dict(matrix.row(row)) for row in matrix.row_labels()}, matrix.nnz)
        for matrix in matrices
    )


def hub_stream() -> list:
    """A hub that grows past hhh22's high threshold and shrinks back below
    it, twice, over a background of short paths."""
    updates = [EdgeUpdate.insert(f"a{i}", f"b{i}") for i in range(6)]
    updates += [EdgeUpdate.insert(f"b{i}", f"a{i + 1}") for i in range(5)]
    for _ in range(2):
        updates += [EdgeUpdate.insert("hub", f"a{i}") for i in range(6)]
        updates += [EdgeUpdate.insert("hub", f"x{i}") for i in range(10)]
        updates += [EdgeUpdate.insert(f"x{i}", f"b{i % 6}") for i in range(10)]
        updates += [EdgeUpdate.delete("hub", f"x{i}") for i in range(10)]
        updates += [EdgeUpdate.delete(f"x{i}", f"b{i % 6}") for i in range(10)]
        updates += [EdgeUpdate.delete("hub", f"a{i}") for i in range(6)]
    return updates


STREAMS = {
    "random": lambda: list(
        random_dynamic_stream(num_vertices=14, num_updates=300, seed=5, delete_fraction=0.35)
    ),
    "hub": hub_stream,
}


@pytest.mark.parametrize("stream", list(STREAMS))
@pytest.mark.parametrize("name", list(REFERENCES))
def test_one_pass_maintenance_matches_the_per_pair_reference(name, stream):
    updates = STREAMS[stream]()

    def run() -> tuple:
        counter = REFERENCES[name][0]()
        counts, snapshots = [], []
        for index, update in enumerate(updates):
            counts.append(counter.apply(update))
            if index % 25 == 0:
                snapshots.append(tables(counter))
        assert counter.is_consistent()
        return counts, snapshots, tables(counter), counter.cost.as_dict()

    counts, snapshots, final, costs = run()
    with per_pair_reference(name):
        reference = run()
    assert (counts, snapshots, final, costs) == reference
    assert costs["structure_update"] > 0
    if name == "hhh22" and stream == "hub":
        assert costs["rebuild_ops"] > 0  # classes moved both ways
