"""Old-phase products for high endpoints only (assadi-shah).

``AssadiShahThreePathOracle`` fixes ``H_L = {u : |A(u)| >= t}`` and
``H_R = {v : |C(v)| >= t}`` (``t`` the high threshold) when a phase starts,
multiplies ``A[H_L,:]·B``, ``B·C[:,H_R]`` and their chain, and sleeps (no
snapshot, no job, no delta) while either set is empty.  A query takes the
phase decomposition only for a pair in the active products' sets, and only
when that costs less than the class split; every other query, including one
at a vertex that turned high mid-phase, takes the split.  Counts must equal
brute force on every path.
"""

from __future__ import annotations

import contextlib
import functools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.assadi_shah import AssadiShahCounter, AssadiShahThreePathOracle
from repro.core.layered import LayeredFourCycleCounter
from repro.core.oracles import ALL_VERTICES, NaiveThreePathOracle, PhaseThreePathOracle
from repro.core.phase_fmm import PhaseFMMCounter
from repro.graph.static_counts import count_four_cycles_wedges
from repro.graph.updates import EdgeUpdate, LayeredEdgeUpdate
from repro.matmul.scheduler import PhaseScheduler
from repro.workloads.generators import hub_adversarial_stream

from tests.conftest import AdjacencyModel, pin_kernel, random_dynamic_stream
from tests.property.test_property_counters import consistent_streams

BATCH_SIZES = (1, 7, 64)
ASLEEP = (frozenset(), frozenset())


def replay_exactly(counter, updates, batch_size: int, observe=lambda counter: None) -> None:
    """Replay ``updates`` in windows of ``batch_size`` (one ``apply`` each
    at size 1), checking the count against brute force and calling
    ``observe`` after every window."""
    model = AdjacencyModel()
    updates = list(updates)
    for start in range(0, len(updates), batch_size):
        window = updates[start:start + batch_size]
        if batch_size == 1:
            counter.apply(window[0])
        else:
            counter.apply_batch(window)
        for update in window:
            model.apply(update)
        assert counter.count == count_four_cycles_wedges(model), f"diverged after {start}"
        observe(counter)


@contextlib.contextmanager
def counting_submits(calls: list):
    original = PhaseScheduler.submit

    def submit(self, job):
        calls.append(job.name)
        return original(self, job)

    with mock.patch.object(PhaseScheduler, "submit", submit):
        yield


def crossing_stream() -> list:
    """Sparse background edges, then a star around vertex 0 grown one leaf
    at a time between background updates: vertex 0 crosses the high
    threshold somewhere inside a phase."""
    rng = random.Random(5)
    live = set()
    updates = []

    def background():
        while True:
            u, v = sorted(rng.sample(range(10, 40), 2))
            if (u, v) not in live:
                live.add((u, v))
                return EdgeUpdate.insert(u, v)

    updates.extend(background() for _ in range(40))
    for leaf in range(1, 30):
        updates.append(EdgeUpdate.insert(0, leaf))
        updates.append(background())
    updates.extend(background() for _ in range(60))
    return updates


class TestExactAtEveryBoundary:
    @pytest.mark.parametrize("kernel", ["dense", "csr"])
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_no_high_vertex_keeps_the_phase_machinery_asleep(self, batch_size, kernel):
        stream = random_dynamic_stream(num_vertices=14, num_updates=260, seed=11)
        counter = pin_kernel(AssadiShahCounter(phase_length=7), kernel)
        submitted: list = []

        def asleep(counter):
            oracle = counter.main_oracle
            assert oracle.endpoints == ASLEEP
            assert not list(oracle.scheduler.jobs())
            assert oracle.new_edge_count() == 0

        with counting_submits(submitted):
            replay_exactly(counter, stream, batch_size, asleep)
        assert submitted == []
        assert counter.cost.get("matmul_ops") == 0
        assert counter.cost.get("query_ops") == 0
        assert counter.phases_completed > 0

    @pytest.mark.parametrize("kernel", ["dense", "csr"])
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_planted_hubs_are_the_endpoint_sets(self, batch_size, kernel):
        stream = hub_adversarial_stream(num_vertices=40, num_updates=300, num_hubs=3, seed=1)
        counter = pin_kernel(AssadiShahCounter(eps=0.3, phase_length=30), kernel)
        seen = set()

        def hubs_only(counter):
            rows, columns = counter.main_oracle.endpoints
            assert rows == columns and rows <= {0, 1, 2}
            seen.update(rows)

        replay_exactly(counter, stream, batch_size, hubs_only)
        assert seen
        if batch_size < 64:
            assert counter.cost.get("matmul_ops") > 0

    @pytest.mark.parametrize("kernel", ["dense", "csr"])
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_a_vertex_crossing_the_threshold_mid_phase(self, batch_size, kernel):
        counter = pin_kernel(AssadiShahCounter(eps=0.3, phase_length=6 * 20), kernel)
        states = []

        def record(counter):
            oracle = counter.main_oracle
            states.append((oracle.is_high_left(0), 0 in oracle.endpoints[0]))

        replay_exactly(counter, crossing_stream(), batch_size, record)
        if batch_size < 64:
            # High but not yet in the active products' H: answered by the
            # class split until a phase start fixes it and a phase end
            # promotes that phase's products.
            assert (True, False) in states
            assert (True, True) in states


class TestQueryRouting:
    def test_a_large_new_phase_b_takes_the_class_split(self):
        oracle = AssadiShahThreePathOracle(phase_length=200, eps=0.45)
        for x in range(6):
            oracle.insert(1, "u", f"x{x}")
            oracle.insert(3, f"y{x}", "v")
            oracle.insert(2, f"x{x}", f"y{x}")
        filler = 0
        while "u" not in oracle.endpoints[0]:
            oracle.insert(2, f"a{filler}", f"b{filler}")
            filler += 1
        assert "v" in oracle.endpoints[1]
        # A long run of B updates inside the phase that follows.
        for index in range(150):
            oracle.insert(2, f"c{index}", f"d{index}")
        assert len(oracle._delta_b) >= 150 and not oracle.dense_l2
        before = oracle.cost.get("query_ops")
        for _ in range(2):
            oracle.insert(2, "x0", "y1")
            assert oracle.count_three_paths("u", "v") == oracle.count_three_paths_naive("u", "v")
            oracle.delete(2, "x0", "y1")
            assert oracle.count_three_paths("u", "v") == oracle.count_three_paths_naive("u", "v")
        assert oracle.cost.get("query_ops") == before

    def test_a_small_new_phase_b_with_dense_middles_takes_the_phase_path(self):
        oracle = AssadiShahThreePathOracle(phase_length=1, eps=0.45)
        for x in range(8):
            oracle.insert(1, "u", f"x{x}")
            oracle.insert(3, f"y{x}", "v")
        for x in range(8):
            for y in range(8):
                oracle.insert(2, f"x{x}", f"y{y}")
        assert oracle.dense_l2 and oracle.dense_l3
        assert "u" in oracle.endpoints[0] and "v" in oracle.endpoints[1]
        assert len(oracle._delta_b) <= 1
        before = oracle.cost.get("query_ops")
        assert oracle.count_three_paths("u", "v") == oracle.count_three_paths_naive("u", "v") == 64
        oracle.delete(2, "x0", "y0")
        assert oracle.count_three_paths("u", "v") == oracle.count_three_paths_naive("u", "v") == 63
        assert oracle.cost.get("query_ops") == before + 2


class TestMirroredRebuild:
    @pytest.mark.parametrize("kernel", ["dense", "csr"])
    def test_products_are_the_square_sliced_at_the_hubs(self, kernel):
        stream = hub_adversarial_stream(num_vertices=40, num_updates=300, num_hubs=3, seed=1)
        counter = pin_kernel(AssadiShahCounter(eps=0.3), kernel)
        counter.apply_batch(list(stream))
        oracle = counter.main_oracle
        matrix, labels = counter.graph.interned_adjacency_matrix()
        high = {labels[i] for i in np.flatnonzero(matrix.sum(axis=1) >= oracle._high_threshold())}
        assert high and high <= {0, 1, 2}
        assert oracle.endpoints == (high, high)
        square = matrix @ matrix
        cube = square @ matrix
        index = {label: i for i, label in enumerate(labels)}
        expected = {
            "ab": {(u, w): int(square[index[u], j]) for u in high for j, w in enumerate(labels)},
            "bc": {(w, v): int(square[j, index[v]]) for v in high for j, w in enumerate(labels)},
            "abc": {(u, v): int(cube[index[u], index[v]]) for u in high for v in high},
        }
        for name, product in (
            ("ab", oracle._product_ab), ("bc", oracle._product_bc), ("abc", oracle._product_abc)
        ):
            entries = {(row, column): value for row, column, value in product.items()}
            assert entries == {key: value for key, value in expected[name].items() if value}

    @pytest.mark.parametrize("kernel", ["dense", "csr"])
    def test_an_empty_h_skips_the_cube(self, kernel):
        counter = pin_kernel(AssadiShahCounter(), kernel)
        stream = random_dynamic_stream(num_vertices=30, num_updates=120, seed=3, delete_fraction=0)
        calls = []
        original = AssadiShahThreePathOracle._spgemm

        def spgemm(self, left, right):
            calls.append(left.num_rows)
            return original(self, left, right)

        with mock.patch.object(AssadiShahThreePathOracle, "_spgemm", spgemm):
            counter.apply_batch(list(stream))
        oracle = counter.main_oracle
        assert oracle.endpoints == ASLEEP
        assert not list(oracle.scheduler.jobs())
        assert oracle._product_abc.nnz == 0
        # Only the Eq. (12) wedge product runs, and only on the CSR path.
        assert len(calls) == (1 if kernel == "csr" else 0)

    def test_phase_fmm_keeps_whole_products(self):
        counter = PhaseFMMCounter(phase_length=7)
        stream = random_dynamic_stream(num_vertices=12, num_updates=80, seed=4)
        replay_exactly(counter, stream, 7)
        assert counter.phase_oracle.endpoints == (ALL_VERTICES, ALL_VERTICES)
        assert counter.cost.get("matmul_ops") > 0


HIGH_H = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@given(
    stream=consistent_streams(max_vertices=10, max_updates=80),
    phase_length=st.sampled_from([1, 3, 7]),
    batch_size=st.sampled_from(BATCH_SIZES),
)
@HIGH_H
def test_large_h_is_exact_at_every_boundary(stream, phase_length, batch_size):
    """``eps = 0.45`` drops the high threshold to ``m^0.22``, so most
    endpoints are high and the phase products serve large sets."""
    counter = AssadiShahCounter(phase_length=phase_length, eps=0.45)
    replay_exactly(counter, stream, batch_size)


def random_layered_stream(seed: int, steps: int, domain: int = 6) -> list:
    rng = random.Random(seed)
    live = {relation: set() for relation in "ABCD"}
    updates = []
    while len(updates) < steps:
        relation = rng.choice("ABCD")
        if live[relation] and rng.random() < 0.3:
            left, right = rng.choice(sorted(live[relation]))
            live[relation].discard((left, right))
            updates.append(LayeredEdgeUpdate.delete(relation, left, right))
        else:
            left, right = rng.randrange(domain), rng.randrange(domain)
            if (left, right) not in live[relation]:
                live[relation].add((left, right))
                updates.append(LayeredEdgeUpdate.insert(relation, left, right))
    return updates


@pytest.mark.parametrize("phase_length", [1, 5, 23])
def test_layered_assadi_shah_matches_the_naive_oracle(phase_length):
    """Four unmirrored oracle copies: ``A``, ``B`` and ``C`` differ, so the
    row-restricted ``A`` and column-restricted ``C`` snapshots differ too."""
    factory = functools.partial(AssadiShahThreePathOracle, phase_length=phase_length, eps=0.45)
    counter = LayeredFourCycleCounter(oracle_factory=factory)
    reference = LayeredFourCycleCounter(oracle_factory=NaiveThreePathOracle)
    awake = False
    for update in random_layered_stream(seed=phase_length, steps=400):
        assert counter.apply(update) == reference.apply(update)
        awake = awake or any(
            counter.oracle_for(relation).endpoints != ASLEEP for relation in "ABCD"
        )
    assert awake
    assert counter.is_consistent()
    assert isinstance(counter.oracle_for("A"), PhaseThreePathOracle)
