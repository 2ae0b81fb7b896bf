"""Bulk Claim 5.3 maintenance against the per-wedge reference.

The functions below are the Eq. (12) maintenance and the Section 7 class
transition patches in their per-wedge form: one ``CountMatrix.add`` and one
``CostModel.charge`` per wedge.  Patched into the oracle they are the
reference that the bulk row and column adds are compared against: same
counts after every update, same cost totals in every category.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import pytest

from repro.core.assadi_shah import AssadiShahCounter, AssadiShahThreePathOracle
from repro.graph.static_counts import count_four_cycles_edge_list
from repro.graph.updates import EdgeUpdate
from repro.matmul.engine import CountMatrixCSR

from tests.conftest import pin_kernel, random_dynamic_stream

_EMPTY_SET: frozenset = frozenset()


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


def per_wedge_patch_l2_transition(self, x, sign) -> None:
    a_side = self.relation(1).backward.get(x, _EMPTY_SET)
    b_side = self.relation(2).forward.get(x, _EMPTY_SET)
    for u in a_side:
        for y in b_side:
            self.cost.charge("rebuild_ops")
            self._wedges_a_sparse_b.add(u, y, sign)


def per_wedge_patch_l3_transition(self, y, sign) -> None:
    b_side = self.relation(2).backward.get(y, _EMPTY_SET)
    c_side = self.relation(3).forward.get(y, _EMPTY_SET)
    for x in b_side:
        for v in c_side:
            self.cost.charge("rebuild_ops")
            self._wedges_b_sparse_c.add(x, v, sign)


@contextlib.contextmanager
def per_wedge_reference():
    with contextlib.ExitStack() as stack:
        for name, function in (
            ("_maintain_sparse_wedges", per_wedge_maintain_sparse_wedges),
            ("_patch_l2_transition", per_wedge_patch_l2_transition),
            ("_patch_l3_transition", per_wedge_patch_l3_transition),
        ):
            stack.enter_context(mock.patch.object(AssadiShahThreePathOracle, name, function))
        yield


@contextlib.contextmanager
def recording_transitions(signs: list):
    """Record the sign of every class transition (``-1``: sparse to dense)."""
    originals = {
        name: getattr(AssadiShahThreePathOracle, name)
        for name in ("_patch_l2_transition", "_patch_l3_transition")
    }

    def recorder(original):
        def patched(self, vertex, sign):
            signs.append(sign)
            return original(self, vertex, sign)

        return patched

    with contextlib.ExitStack() as stack:
        for name, original in originals.items():
            stack.enter_context(
                mock.patch.object(AssadiShahThreePathOracle, name, recorder(original))
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

    signs: list = []
    with recording_transitions(signs):
        costs, (phases, phase_products), rebuilt_products = run()
    with per_wedge_reference():
        reference_costs, _, _ = run()
    assert costs == reference_costs
    assert costs["query_ops"] > 0  # high/high queries read the products
    assert costs["batch_rebuild"] > 0
    assert phases >= 3
    assert -1 in signs and +1 in signs
    for product in phase_products + rebuilt_products:
        assert isinstance(product, CountMatrixCSR)
