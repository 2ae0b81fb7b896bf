"""Tests for the Section 3 warm-up oracle (A and C fixed, chunked B)."""

from __future__ import annotations

import random

import pytest

from repro.analysis import dict_product
from repro.core.warmup import WarmupThreePathOracle, _restrict
from repro.exceptions import ConfigurationError, InvalidUpdateError
from repro.matmul.engine import CountMatrix, multiply


def fixed_relations(seed: int, n: int = 9, density: float = 0.35):
    rng = random.Random(seed)
    a = [(i, j) for i in range(n) for j in range(n) if rng.random() < density]
    c = [(j, k) for j in range(n) for k in range(n) if rng.random() < density]
    return a, c


def drive_b_updates(oracle: WarmupThreePathOracle, seed: int, steps: int, domain: int = 9) -> None:
    rng = random.Random(seed)
    live = set()
    for step in range(steps):
        if live and rng.random() < 0.35:
            x, y = rng.choice(sorted(live))
            live.discard((x, y))
            oracle.delete(2, x, y)
        else:
            x, y = rng.randrange(domain), rng.randrange(domain)
            if (x, y) in live:
                continue
            live.add((x, y))
            oracle.insert(2, x, y)
        u, v = rng.randrange(domain), rng.randrange(domain)
        assert oracle.count_three_paths(u, v) == oracle.count_three_paths_naive(u, v), (
            f"divergence at step {step}"
        )


def sample_matrix() -> CountMatrix:
    return CountMatrix(
        {
            ("h1", "x"): 1,
            ("h1", "y"): 2,
            ("l1", "x"): 3,
            ("l2", "z"): 4,
        }
    )


def dict_fold_charge(a_edges, c_edges, updates, chunk_size, high_left, high_right) -> int:
    """The ``matmul_ops`` that ``updates`` should charge, recomputed with the
    dict reference: the expansion work of the four products of every folded
    chunk (every sealed chunk but the most recent one)."""
    a = CountMatrix({edge: 1 for edge in a_edges})
    c = CountMatrix({edge: 1 for edge in c_edges})
    a_high = CountMatrix({(x, y): 1 for x, y in a_edges if x in high_left})
    c_high = CountMatrix({(x, y): 1 for x, y in c_edges if y in high_right})
    total = 0
    for start in range(0, (len(updates) // chunk_size - 1) * chunk_size, chunk_size):
        chunk = CountMatrix()
        for left, right, sign in updates[start : start + chunk_size]:
            chunk.add(left, right, sign)
        ah_b, ah_b_work = dict_product(a_high, chunk)
        total += dict_product(a, chunk)[1] + dict_product(chunk, c)[1]
        total += ah_b_work + dict_product(ah_b, c_high)[1]
    return total


class TestConstruction:
    def test_fixed_relations_loaded(self):
        a, c = fixed_relations(0)
        oracle = WarmupThreePathOracle(a, c, chunk_size=5)
        assert oracle.relation(1).size == len(a)
        assert oracle.relation(3).size == len(c)
        assert oracle.chunk_size == 5

    def test_invalid_chunk_size(self):
        with pytest.raises(ConfigurationError):
            WarmupThreePathOracle([], [], chunk_size=0)

    def test_default_chunk_size_from_m(self):
        a, c = fixed_relations(1)
        oracle = WarmupThreePathOracle(a, c)
        assert oracle.chunk_size >= 4

    def test_high_classes_fixed(self):
        a = [("hub", f"x{i}") for i in range(40)] + [("small", "x0")]
        c = [(f"x{i}", "sink") for i in range(40)]
        oracle = WarmupThreePathOracle(a, c, chunk_size=5, high_threshold=10)
        assert oracle.is_high_left("hub")
        assert not oracle.is_high_left("small")
        assert oracle.is_high_right("sink")


class TestAssumptionThree:
    def test_updates_outside_b_rejected(self):
        oracle = WarmupThreePathOracle([], [], chunk_size=4)
        with pytest.raises(InvalidUpdateError):
            oracle.insert(1, "u", "x")
        with pytest.raises(InvalidUpdateError):
            oracle.insert(3, "y", "v")


class TestExactness:
    @pytest.mark.parametrize("chunk_size", [1, 3, 8, 1000])
    def test_exact_for_any_chunk_size(self, chunk_size):
        a, c = fixed_relations(2)
        oracle = WarmupThreePathOracle(a, c, chunk_size=chunk_size)
        drive_b_updates(oracle, seed=chunk_size, steps=220)

    def test_exact_with_high_degree_endpoints(self):
        """Force the P_HH (high/high) query path."""
        a = [("hub", f"x{i}") for i in range(12)]
        c = [(f"y{i}", "sink") for i in range(12)]
        oracle = WarmupThreePathOracle(a, c, chunk_size=4, high_threshold=5)
        rng = random.Random(9)
        live = set()
        for step in range(150):
            x = f"x{rng.randrange(12)}"
            y = f"y{rng.randrange(12)}"
            if (x, y) in live:
                live.discard((x, y))
                oracle.delete(2, x, y)
            else:
                live.add((x, y))
                oracle.insert(2, x, y)
            assert oracle.count_three_paths("hub", "sink") == oracle.count_three_paths_naive(
                "hub", "sink"
            )
        assert oracle.chunks_sealed > 0

    def test_negative_edge_across_chunks(self):
        """Insert in one chunk, delete in a later one: contributions cancel
        (the Section 3.3 remark)."""
        a = [("u", "x")]
        c = [("y", "v")]
        oracle = WarmupThreePathOracle(a, c, chunk_size=2)
        oracle.insert(2, "x", "y")
        # Pad out the chunk so the insertion is folded into the aggregates.
        oracle.insert(2, "p1", "q1")
        oracle.insert(2, "p2", "q2")
        oracle.insert(2, "p3", "q3")
        oracle.insert(2, "p4", "q4")
        assert oracle.count_three_paths("u", "v") == 1
        oracle.delete(2, "x", "y")
        assert oracle.count_three_paths("u", "v") == 0
        for index in range(6):
            oracle.insert(2, f"r{index}", f"s{index}")
        assert oracle.count_three_paths("u", "v") == 0

    def test_chunks_sealed_counter(self):
        a, c = fixed_relations(3)
        oracle = WarmupThreePathOracle(a, c, chunk_size=3)
        for index in range(10):
            oracle.insert(2, f"x{index}", f"y{index}")
        assert oracle.chunks_sealed == 3


class TestFoldCharge:
    def test_fold_charges_the_expansion_work_of_all_four_products(self):
        """``matmul_ops`` is one unit per multiply-add: a fold charges the
        expansion work of ``A·B``, ``B·C``, ``A^{H*}·B`` and
        ``(A^{H*}·B)·C^{*H}``, not the products' output sizes."""
        a = [("hub", "x0"), ("hub", "x1"), ("hub", "x2"), ("small", "x0")]
        c = [("y0", "sink"), ("y1", "sink"), ("y2", "sink"), ("y0", "other")]
        oracle = WarmupThreePathOracle(a, c, chunk_size=2, high_threshold=3)
        assert oracle.is_high_left("hub") and oracle.is_high_right("sink")
        for x, y in (("x0", "y0"), ("x1", "y0"), ("p1", "q1")):
            oracle.insert(2, x, y)
        assert oracle.cost.get("matmul_ops") == 0
        oracle.insert(2, "p2", "q2")  # seals the second chunk, folding the first
        # A·B: 1 + 1 + 0 + 1; B·C: 2 + 2; A^{H*}·B: 1 + 1 + 0;
        # (A^{H*}·B)·C^{*H}: 1.  The output sizes sum to only 2 + 4 + 1.
        assert oracle.cost.get("matmul_ops") == 3 + 4 + 2 + 1
        assert oracle.count_three_paths("hub", "sink") == 2

    @pytest.mark.parametrize("chunk_size", [1, 3, 8])
    def test_charge_matches_the_dict_reference_over_many_folds(self, chunk_size):
        a, c = fixed_relations(4)
        oracle = WarmupThreePathOracle(a, c, chunk_size=chunk_size, high_threshold=4)
        high_left = {x for x, _ in a if oracle.is_high_left(x)}
        high_right = {y for _, y in c if oracle.is_high_right(y)}
        assert high_left and high_right  # the P_HH products are not empty
        rng = random.Random(chunk_size)
        live, updates = set(), []
        for _ in range(120):
            if live and rng.random() < 0.35:
                edge = rng.choice(sorted(live))
                live.discard(edge)
                oracle.delete(2, *edge)
                updates.append((*edge, -1))
            else:
                edge = (rng.randrange(9), rng.randrange(9))
                if edge in live:
                    continue
                live.add(edge)
                oracle.insert(2, *edge)
                updates.append((*edge, +1))
        assert oracle.chunks_sealed == len(updates) // chunk_size >= 2
        expected = dict_fold_charge(a, c, updates, chunk_size, high_left, high_right)
        assert expected > 0
        assert oracle.cost.get("matmul_ops") == expected

    def test_a_chunk_that_cancels_out_is_not_multiplied(self):
        oracle = WarmupThreePathOracle([("u", "x")], [("y", "v")], chunk_size=2, high_threshold=10)
        oracle.insert(2, "x", "y")
        oracle.delete(2, "x", "y")  # the first chunk cancels to nothing
        oracle.insert(2, "x", "y")
        oracle.insert(2, "p", "q")  # seals the second chunk, folding the first
        assert oracle.chunks_sealed == 2
        assert oracle.cost.get("matmul_ops") == 0
        oracle.insert(2, "r", "s")
        oracle.insert(2, "t", "w")  # seals the third chunk, folding the second
        # A·B and B·C each expand the one live path through (x, y).
        assert oracle.cost.get("matmul_ops") == 1 + 1
        assert oracle.count_three_paths("u", "v") == 1


class TestRestrict:
    """``_restrict`` cuts the class-restricted operands ``A^{H*}`` and
    ``C^{*H}`` the folds multiply by."""

    def test_restrict_rows(self):
        restricted = _restrict(sample_matrix(), rows={"h1"})
        assert restricted.row_labels() == {"h1"}
        assert restricted.get("h1", "y") == 2
        assert restricted.get("l1", "x") == 0

    def test_restrict_columns(self):
        restricted = _restrict(sample_matrix(), columns={"x"})
        assert restricted.column_labels() == {"x"}
        assert restricted.nnz == 2

    def test_restrict_none_keeps_everything(self):
        assert _restrict(sample_matrix()) == sample_matrix()

    def test_restrict_to_an_empty_set_keeps_nothing(self):
        assert _restrict(sample_matrix(), rows=set()).nnz == 0
        empty_columns = _restrict(sample_matrix(), columns=set())
        assert multiply(empty_columns, sample_matrix()) == (CountMatrix(), 0)

    def test_row_restriction_is_the_high_class_submatrix(self):
        """The ``A^{H*} · B`` pattern: only high-class rows participate."""
        a = CountMatrix({("high", "m"): 1, ("low", "m"): 1})
        b = CountMatrix({("m", "t"): 1})
        product, work = multiply(_restrict(a, rows={"high"}), b)
        assert product.get("high", "t") == 1
        assert product.get("low", "t") == 0
        assert work == 1

    def test_inner_restriction(self):
        """The ``A^{*S} · B^{S*}`` pattern: only the kept middle vertices
        participate."""
        a = CountMatrix({("u", "sparse"): 1, ("u", "dense"): 1})
        b = CountMatrix({("sparse", "v"): 1, ("dense", "v"): 1})
        product, work = multiply(_restrict(a, columns={"sparse"}), _restrict(b, rows={"sparse"}))
        assert product.get("u", "v") == 1
        assert work == 1
