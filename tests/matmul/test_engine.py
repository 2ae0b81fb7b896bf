"""Tests for the label-keyed product :func:`multiply` against the dict-of-dicts
reference on random rectangular operands."""

from __future__ import annotations

import random

import pytest

from repro.analysis import dict_product
from repro.matmul.engine import CountMatrix, multiply


def random_count_matrix(
    rng: random.Random, rows: int, columns: int, density: float, prefixes=("r", "c")
) -> CountMatrix:
    matrix = CountMatrix()
    for i in range(rows):
        for j in range(columns):
            if rng.random() < density:
                matrix.add(f"{prefixes[0]}{i}", f"{prefixes[1]}{j}", rng.randint(-2, 3) or 1)
    return matrix


class TestMultiply:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("density", [0.1, 0.4, 0.9])
    def test_matches_reference(self, seed, density):
        rng = random.Random(seed)
        left = random_count_matrix(rng, 6, 5, density)
        # Right matrix rows use the left matrix's column labels.
        right = random_count_matrix(rng, 5, 7, density, prefixes=("c", "z"))
        assert multiply(left, right) == dict_product(left, right)

    def test_chain(self):
        a = CountMatrix({("u", "x"): 1})
        b = CountMatrix({("x", "y"): 1})
        c = CountMatrix({("y", "v"): 1})
        ab, first_work = multiply(a, b)
        abc, second_work = multiply(ab, c)
        assert abc.get("u", "v") == 1
        assert first_work == second_work == 1

    def test_orders_follow_the_operand_exports(self):
        left = CountMatrix({("b", "m"): 1, ("a", "m"): 1})
        right = CountMatrix({("m", "z"): 1, ("m", "y"): 1})
        product, work = multiply(left, right)
        assert list(product.csr().row_order) == ["b", "a"]
        assert list(product.row("b")) == ["z", "y"]
        assert work == 4
