"""Tests for the 3-path oracles (naive and phase/FMM) and the oracle-backed counter."""

from __future__ import annotations

import math
import random

import pytest

from repro.core.oracles import (
    NaiveThreePathOracle,
    OracleBackedCounter,
    PhaseThreePathOracle,
)
from repro.exceptions import ConfigurationError, InvalidUpdateError
from repro.instrumentation.harness import run_validated

from tests.conftest import random_dynamic_stream


def drive_oracle_randomly(oracle, seed: int, steps: int = 250, domain: int = 9) -> None:
    """Apply random consistent chain updates, validating every query."""
    rng = random.Random(seed)
    live = {1: set(), 2: set(), 3: set()}
    for step in range(steps):
        position = rng.choice((1, 2, 3))
        if live[position] and rng.random() < 0.35:
            left, right = rng.choice(sorted(live[position]))
            live[position].discard((left, right))
            oracle.delete(position, left, right)
        else:
            left, right = rng.randrange(domain), rng.randrange(domain)
            if (left, right) in live[position]:
                continue
            live[position].add((left, right))
            oracle.insert(position, left, right)
        u, v = rng.randrange(domain), rng.randrange(domain)
        assert oracle.count_three_paths(u, v) == oracle.count_three_paths_naive(u, v), (
            f"divergence at step {step} for query ({u}, {v})"
        )


class TestChainRelationValidation:
    def test_duplicate_insert_rejected(self):
        oracle = NaiveThreePathOracle()
        oracle.insert(1, "a", "b")
        with pytest.raises(InvalidUpdateError):
            oracle.insert(1, "a", "b")

    def test_missing_delete_rejected(self):
        oracle = NaiveThreePathOracle()
        with pytest.raises(InvalidUpdateError):
            oracle.delete(2, "a", "b")

    def test_invalid_position_rejected(self):
        oracle = NaiveThreePathOracle()
        with pytest.raises(ConfigurationError):
            oracle.insert(4, "a", "b")

    def test_invalid_sign_rejected(self):
        oracle = NaiveThreePathOracle()
        with pytest.raises(InvalidUpdateError):
            oracle.update(1, "a", "b", 0)

    def test_edge_and_update_counts(self):
        oracle = NaiveThreePathOracle()
        oracle.insert(1, "a", "b")
        oracle.insert(2, "b", "c")
        assert oracle.num_edges == 2
        assert oracle.updates_processed == 2


class TestNaiveOracle:
    def test_single_path(self):
        oracle = NaiveThreePathOracle()
        oracle.insert(1, "u", "x")
        oracle.insert(2, "x", "y")
        oracle.insert(3, "y", "v")
        assert oracle.count_three_paths("u", "v") == 1
        assert oracle.count_three_paths("u", "w") == 0

    def test_multiplicity(self):
        oracle = NaiveThreePathOracle()
        for x in ("x1", "x2"):
            oracle.insert(1, "u", x)
            for y in ("y1", "y2", "y3"):
                oracle.insert(3, y, "v") if x == "x1" else None
                try:
                    oracle.insert(2, x, y)
                except InvalidUpdateError:
                    pass
        # 2 choices of x, 3 choices of y, all edges present => 6 paths.
        assert oracle.count_three_paths("u", "v") == 6


class TestPhaseOracle:
    @pytest.mark.parametrize("phase_length", [1, 3, 7, 50])
    def test_exact_for_any_phase_length(self, phase_length):
        oracle = PhaseThreePathOracle(phase_length=phase_length)
        drive_oracle_randomly(oracle, seed=phase_length, steps=200)

    def test_phases_advance(self):
        oracle = PhaseThreePathOracle(phase_length=5)
        rng = random.Random(0)
        for index in range(40):
            oracle.insert(2, f"x{index}", f"y{rng.randrange(5)}")
        assert oracle.phases_completed >= 7

    def test_old_products_populated_after_phases(self):
        oracle = PhaseThreePathOracle(phase_length=4)
        oracle.insert(1, "u", "x")
        oracle.insert(2, "x", "y")
        oracle.insert(3, "y", "v")
        oracle.insert(1, "u", "x2")
        # Two phases later the first snapshot's products are active.
        for index in range(8):
            oracle.insert(2, f"fx{index}", f"fy{index}")
        assert oracle.count_three_paths("u", "v") == 1
        assert oracle._product_abc.get("u", "v") in (0, 1)

    def test_new_edge_count_bounded_by_two_phases(self):
        oracle = PhaseThreePathOracle(phase_length=10)
        for index in range(45):
            oracle.insert(2, f"x{index}", f"y{index}")
        assert oracle.new_edge_count() <= 2 * 10

    def test_dynamic_phase_length_grows_with_m(self):
        oracle = PhaseThreePathOracle(min_phase_length=4)
        initial = oracle.phase_length
        for index in range(200):
            oracle.insert(2, f"x{index}", f"y{index % 11}")
        assert oracle.phase_length >= initial

    def test_invalid_phase_length(self):
        with pytest.raises(ConfigurationError):
            PhaseThreePathOracle(phase_length=0)

    def test_deletions_cancel_in_deltas(self):
        oracle = PhaseThreePathOracle(phase_length=100)
        oracle.insert(2, "x", "y")
        oracle.delete(2, "x", "y")
        assert oracle.new_edge_count() == 0

    def test_budget_is_the_hand_computed_estimate(self):
        oracle = PhaseThreePathOracle(phase_length=6)
        for position in (1, 2, 3):
            oracle.insert(position, "a", "b")
            oracle.insert(position, "c", "d")
        # The sixth update ended the first phase, so the pending jobs multiply
        # a snapshot of two tuples per relation and none has advanced yet.
        assert oracle.phases_completed == 1
        assert not any(job.operations_done for job in oracle.scheduler.jobs())
        # nnz products: A*B 2*2, B*C 2*2, A*B*C 2*2 + 2*2.
        estimate = 4 + 4 + 8
        expected = math.ceil(2 * estimate / 6)
        assert oracle._compute_budget() == expected == 6
        assert oracle.scheduler.budget_per_update == expected


class TestOracleBackedCounter:
    def test_validated_on_random_stream(self):
        counter = OracleBackedCounter(PhaseThreePathOracle(phase_length=9))
        stream = random_dynamic_stream(num_vertices=10, num_updates=110, seed=31)
        assert run_validated(counter, stream).validated

    def test_naive_oracle_also_exact(self):
        counter = OracleBackedCounter(NaiveThreePathOracle())
        stream = random_dynamic_stream(num_vertices=10, num_updates=90, seed=32)
        assert run_validated(counter, stream).validated

    def test_cost_model_shared_with_oracle(self):
        oracle = PhaseThreePathOracle(phase_length=5)
        counter = OracleBackedCounter(oracle)
        counter.insert_edge(1, 2)
        assert oracle.cost is counter.cost
        assert counter.cost.total() > 0
