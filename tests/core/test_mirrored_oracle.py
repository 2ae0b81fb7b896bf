"""The Section 8 counters' mirrored oracle: one adjacency, one call per edge.

``OracleBackedCounter`` hands its graph to the oracle once
(``ThreePathOracle.mirror``): the three chain relations are the graph's label
adjacency, each graph update is one ``update_edge`` (edge absent) and one
``end_edge`` (graph updated), and assadi-shah keeps one dense set and one
symmetric ``W = A·diag(S)·A``.  Counts must equal brute force after every
update and at every batch boundary, and equal what the layered oracles (one
``update`` per tuple) answer for the same stream expanded by the reduction.
"""

from __future__ import annotations

import functools
from collections import Counter

import pytest

from repro.core.assadi_shah import AssadiShahCounter, AssadiShahThreePathOracle
from repro.core.layered import LayeredFourCycleCounter
from repro.core.oracles import OracleBackedCounter, PhaseThreePathOracle
from repro.core.phase_fmm import PhaseFMMCounter
from repro.exceptions import CounterStateError
from repro.graph.reduction import expand_general_update
from repro.graph.updates import EdgeUpdate
from repro.workloads.generators import hub_adversarial_stream

from tests.conftest import pin_kernel, random_dynamic_stream
from tests.core.test_phase_endpoints import BATCH_SIZES, crossing_stream, replay_exactly

#: Small thresholds and short phases, so classes move and phases end often.
COUNTERS = {
    "phase-fmm": (PhaseFMMCounter, PhaseThreePathOracle, {"phase_length": 5}),
    "assadi-shah": (
        AssadiShahCounter, AssadiShahThreePathOracle, {"phase_length": 11, "eps": 0.45}
    ),
}

STREAMS = {
    "random": lambda: list(random_dynamic_stream(num_vertices=12, num_updates=220, seed=8)),
    "hubs": lambda: list(hub_adversarial_stream(num_vertices=30, num_updates=240, num_hubs=3, seed=2)),
    "crossing": crossing_stream,
}


def make_counter(name: str):
    counter_class, _, options = COUNTERS[name]
    return counter_class(**options)


def wedges_from_scratch(oracle: AssadiShahThreePathOracle) -> dict:
    """``A·diag(S)·A`` entry by entry, diagonal included, from the graph."""
    adjacency = oracle.relation(2).forward
    wedges: Counter = Counter()
    for middle, neighbors in adjacency.items():
        if middle not in oracle.dense_l2:
            for a in neighbors:
                for b in neighbors:
                    wedges[a, b] += 1
    return dict(wedges)


def maintained_wedges(oracle: AssadiShahThreePathOracle) -> dict:
    return {(row, column): value for row, column, value in oracle.sparse_wedges_ab.items()}


def assert_one_adjacency(counter) -> None:
    oracle = counter.oracle
    for position in (1, 2, 3):
        relation = oracle.relation(position)
        assert relation.forward is counter.graph.adjacency
        assert relation.backward is counter.graph.adjacency
    assert oracle.num_edges == 6 * counter.num_edges
    if isinstance(oracle, AssadiShahThreePathOracle):
        assert oracle.sparse_wedges_ab is oracle.sparse_wedges_bc
        assert oracle.dense_l2 is oracle.dense_l3


@pytest.mark.parametrize("stream", list(STREAMS))
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("name", list(COUNTERS))
def test_exact_at_every_boundary(name, batch_size, stream):
    counter = make_counter(name)
    phases = []
    replay_exactly(
        counter, STREAMS[stream](), batch_size,
        lambda counter: phases.append(counter.phases_completed),
    )
    assert_one_adjacency(counter)
    assert phases[-1] > 0


@pytest.mark.parametrize("stream", list(STREAMS))
@pytest.mark.parametrize("name", list(COUNTERS))
def test_counts_equal_the_layered_oracle_on_the_reduction(name, stream):
    """The general count is the signed sum of the ``D``-relation query
    answers (Claim 8.1): here, the change of the layered count at each
    update's ``D`` tuple ``(u, v)``, answered while ``A, B, C`` lack the
    edge."""
    _, oracle_class, options = COUNTERS[name]
    counter = make_counter(name)
    layered = LayeredFourCycleCounter(oracle_factory=functools.partial(oracle_class, **options))
    general = 0
    for update in STREAMS[stream]():
        counter.apply(update)
        for layered_update in expand_general_update(update):
            before = layered.count
            layered.apply(layered_update)
            if layered_update.relation == "D" and (layered_update.left, layered_update.right) == (
                update.u, update.v
            ):
                general += layered.count - before
        assert counter.count == general
    assert layered.is_consistent()


@pytest.mark.parametrize("stream", list(STREAMS))
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_the_maintained_w_is_a_diag_s_a(batch_size, stream):
    """No query reads ``W``'s diagonal, so exactness alone cannot see a lost
    ``ΔA·S·ΔA`` term: compare every entry after every window."""
    counter = make_counter("assadi-shah")
    dense_seen = []

    def check(counter):
        oracle = counter.main_oracle
        assert maintained_wedges(oracle) == wedges_from_scratch(oracle)
        dense_seen.append(bool(oracle.dense_l2))

    replay_exactly(counter, STREAMS[stream](), batch_size, check)
    assert_one_adjacency(counter)
    if stream == "hubs":
        assert any(dense_seen)


def test_update_on_a_mirrored_oracle_raises():
    counter = make_counter("assadi-shah")
    counter.insert_edge(1, 2)
    oracle = counter.main_oracle
    with pytest.raises(CounterStateError):
        oracle.update(2, 2, 3, +1)
    with pytest.raises(CounterStateError):
        oracle.insert(1, 3, 4)
    assert counter.graph.adjacency == {1: {2}, 2: {1}}
    assert oracle.num_edges == 6
    assert counter.is_consistent()


def test_mirror_needs_an_empty_oracle():
    oracle = PhaseThreePathOracle(phase_length=5)
    oracle.insert(1, "a", "b")
    with pytest.raises(CounterStateError):
        OracleBackedCounter(oracle)


@pytest.mark.parametrize("name", list(COUNTERS))
def test_a_phase_that_runs_out_mid_edge_ends_at_that_edges_end_edge(name):
    """Phase length 4 runs out after four of an edge's six relation
    updates; the phase still ends only once the graph holds the update."""
    counter_class, _, options = COUNTERS[name]
    counter = counter_class(**{**options, "phase_length": 4})
    oracle = counter.oracle
    ends = []
    original = oracle._end_phase

    def end_phase():
        ends.append((counter.num_edges, frozenset(map(frozenset, counter.graph.edges()))))
        original()

    oracle._end_phase = end_phase
    model = set()
    for update in random_dynamic_stream(num_vertices=8, num_updates=60, seed=3):
        phases = oracle.phases_completed
        counter.apply(update)
        edge = frozenset((update.u, update.v))
        if update.is_insert:
            model.add(edge)
        else:
            model.discard(edge)
        assert oracle.phases_completed == phases + 1
        assert ends[-1] == (len(model), frozenset(model))
    assert len(ends) == 60


def test_one_call_per_edge():
    counter = make_counter("assadi-shah")
    calls = Counter()
    oracle = counter.main_oracle
    for method in ("update_edge", "end_edge", "update"):
        original = getattr(oracle, method)

        def counted(*args, method=method, original=original):
            calls[method] += 1
            return original(*args)

        setattr(oracle, method, counted)
    for update in [EdgeUpdate.insert(1, 2), EdgeUpdate.insert(2, 3), EdgeUpdate.delete(1, 2)]:
        counter.apply(update)
    assert calls == {"update_edge": 3, "end_edge": 3}


@pytest.mark.parametrize("kernel", ["dense", "csr"])
@pytest.mark.parametrize("name", list(COUNTERS))
def test_a_batch_that_empties_the_graph(name, kernel):
    """The batch hook takes its dispatched path down to ``m = 0`` (no dense
    ``n x n`` export for an empty graph) and leaves a state that later
    updates count exactly from."""
    counter = pin_kernel(make_counter(name), kernel)
    edges = [(i, i + 1) for i in range(40)] + [(i, i + 2) for i in range(40)]
    counter.apply_batch([EdgeUpdate.insert(u, v) for u, v in edges])
    assert counter.count == counter.recount() > 0
    counter.apply_batch([EdgeUpdate.delete(u, v) for u, v in edges])
    assert (counter.count, counter.num_edges) == (0, 0)
    assert_one_adjacency(counter)
    for u, v in [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)]:
        counter.insert_edge(u, v)
        assert counter.is_consistent()
    assert counter.count == 1
