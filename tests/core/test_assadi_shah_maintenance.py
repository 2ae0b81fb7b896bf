"""Bulk Claim 5.3 maintenance against the per-wedge reference.

The functions below are the Eq. (12) maintenance and the Section 7 class
transition patches in their per-wedge form: one ``CountMatrix.add`` and one
``CostModel.charge`` per wedge.  Patched into the oracle they are the
reference that the bulk row and column adds are compared against: same
counts after every update, same cost totals in every category.  The counters
maintain their one mirrored ``W`` per graph edge
(:meth:`AssadiShahThreePathOracle.update_edge`); a layered oracle maintains
its two structures per tuple (``_maintain_sparse_wedges``).
"""

from __future__ import annotations

import contextlib
import functools
from unittest import mock

import pytest

from repro.core.assadi_shah import AssadiShahCounter, AssadiShahThreePathOracle
from repro.core.layered import LayeredFourCycleCounter
from repro.core.oracles import PhaseThreePathOracle
from repro.graph.static_counts import count_four_cycles_edge_list
from repro.graph.updates import EdgeUpdate
from repro.matmul.engine import CountMatrixCSR

from tests.conftest import pin_kernel, random_dynamic_stream
from tests.core.test_phase_endpoints import random_layered_stream

_EMPTY_SET: frozenset = frozenset()


def per_wedge_update_edge(self, u, v, sign) -> None:
    neighbors = self.relation(2).forward
    for middle, endpoint in ((v, u), (u, v)):
        if middle not in self._dense_l2:
            for y in neighbors.get(middle, _EMPTY_SET):
                self.cost.charge("structure_update")
                self._wedges_a_sparse_b.add(endpoint, y, sign)
                self.cost.charge("structure_update")
                self._wedges_a_sparse_b.add(y, endpoint, sign)
            self.cost.charge("structure_update")
            self._wedges_a_sparse_b.add(endpoint, endpoint, sign)
    PhaseThreePathOracle.update_edge(self, u, v, sign)


def per_wedge_maintain_sparse_wedges(self, position, left, right, sign) -> None:
    if position == 1:
        u, x = left, right
        if x not in self._dense_l2:
            for y in self.relation(2).forward.get(x, _EMPTY_SET):
                self.cost.charge("structure_update")
                self._wedges_a_sparse_b.add(u, y, sign)
    elif position == 2:
        x, y = left, right
        if x not in self._dense_l2:
            for u in self.relation(1).backward.get(x, _EMPTY_SET):
                self.cost.charge("structure_update")
                self._wedges_a_sparse_b.add(u, y, sign)
        if y not in self._dense_l3:
            for v in self.relation(3).forward.get(y, _EMPTY_SET):
                self.cost.charge("structure_update")
                self._wedges_b_sparse_c.add(x, v, sign)
    else:
        y, v = left, right
        if y not in self._dense_l3:
            for x in self.relation(2).backward.get(y, _EMPTY_SET):
                self.cost.charge("structure_update")
                self._wedges_b_sparse_c.add(x, v, sign)


def per_wedge_patch_transition(self, layer, middle, sign) -> None:
    if layer == 2:
        into, out, wedges = self.relation(1), self.relation(2), self._wedges_a_sparse_b
    else:
        into, out, wedges = self.relation(2), self.relation(3), self._wedges_b_sparse_c
    for u in into.backward.get(middle, _EMPTY_SET):
        for w in out.forward.get(middle, _EMPTY_SET):
            self.cost.charge("rebuild_ops")
            wedges.add(u, w, sign)


@contextlib.contextmanager
def per_wedge_reference():
    with contextlib.ExitStack() as stack:
        for name, function in (
            ("update_edge", per_wedge_update_edge),
            ("_maintain_sparse_wedges", per_wedge_maintain_sparse_wedges),
            ("_patch_transition", per_wedge_patch_transition),
        ):
            stack.enter_context(mock.patch.object(AssadiShahThreePathOracle, name, function))
        yield


@contextlib.contextmanager
def recording_calls(names, calls: list):
    """Record ``(name, first argument, sign)`` of every call of the named
    oracle methods (a transition patch's first argument is its layer, and
    its sign is ``-1`` from sparse to dense)."""
    def recorder(name, original):
        def patched(self, *args, **kwargs):
            calls.append((name, args[0], kwargs.get("sign", args[-1])))
            return original(self, *args, **kwargs)

        return patched

    with contextlib.ExitStack() as stack:
        for name in names:
            original = getattr(AssadiShahThreePathOracle, name)
            stack.enter_context(
                mock.patch.object(AssadiShahThreePathOracle, name, recorder(name, original))
            )
        yield


def products(counter: AssadiShahCounter) -> tuple:
    oracle = counter.main_oracle
    return (oracle._product_ab, oracle._product_bc, oracle._product_abc)


@pytest.mark.parametrize("kernel", ["dense", "csr"])
def test_bulk_maintenance_matches_the_per_wedge_reference(kernel):
    """Counts match brute force after every update, every cost category
    matches the per-wedge run exactly, and the old-phase products stay
    positional across phase ends and a mirrored batch rebuild (``kernel``
    is the rebuild's, pinned through the test-side dispatcher)."""
    stream = random_dynamic_stream(num_vertices=12, num_updates=150, seed=2, delete_fraction=0.35)
    # A window past the batch fast-path threshold: the mirrored rebuild.
    window = [EdgeUpdate.insert(f"w{i}", f"w{i + 1}") for i in range(40)]

    def run() -> tuple:
        counter = pin_kernel(AssadiShahCounter(phase_length=60, eps=0.45), kernel)
        live = set()
        for update in stream:
            edge = (update.u, update.v)
            if update.is_insert:
                live.add(edge)
            else:
                live.discard(edge)
            counter.apply(update)
            assert counter.count == count_four_cycles_edge_list(live)
        after_phase_ends = (counter.phases_completed, products(counter))
        counter.apply_batch(window)
        live.update((update.u, update.v) for update in window)
        assert counter.count == count_four_cycles_edge_list(live)
        return counter.cost.as_dict(), after_phase_ends, products(counter)

    calls: list = []
    names = ("update_edge", "_maintain_sparse_wedges", "_patch_transition")
    with recording_calls(names, calls):
        costs, (phases, phase_products), rebuilt_products = run()
    with per_wedge_reference():
        reference_costs, _, _ = run()
    assert costs == reference_costs
    assert costs["query_ops"] > 0  # high/high queries read the products
    assert costs["batch_rebuild"] > 0
    assert phases >= 3
    # One maintenance call per graph update, none per tuple, and classes
    # move both ways.
    assert sum(name == "update_edge" for name, _, _ in calls) == len(stream)
    assert not any(name == "_maintain_sparse_wedges" for name, _, _ in calls)
    transitions = {(layer, sign) for name, layer, sign in calls if name == "_patch_transition"}
    assert transitions == {(2, -1), (2, +1)}
    for product in phase_products + rebuilt_products:
        assert isinstance(product, CountMatrixCSR)


def test_layered_per_tuple_maintenance_matches_the_per_wedge_reference():
    """Four unmirrored copies keep two Eq. (12) structures and two class
    splits each, maintained per tuple: same counts after every update and
    same cost totals as the per-wedge reference."""
    factory = functools.partial(AssadiShahThreePathOracle, phase_length=7, eps=0.3)
    stream = random_layered_stream(seed=4, steps=400)

    def run() -> tuple:
        counter = LayeredFourCycleCounter(oracle_factory=factory)
        counts = [counter.apply(update) for update in stream]
        assert counter.is_consistent()
        return counts, counter.cost.as_dict()

    calls: list = []
    with recording_calls(("_patch_transition",), calls):
        counts, costs = run()
    with per_wedge_reference():
        reference_counts, reference_costs = run()
    assert counts == reference_counts
    assert costs == reference_costs
    assert costs["structure_update"] > 0
    assert {layer for _, layer, _ in calls} == {2, 3}
