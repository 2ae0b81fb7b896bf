"""Tests for the operation-count cost model."""

from __future__ import annotations

from repro.instrumentation.cost_model import CostModel


class TestCostModel:
    def test_charge_and_total(self):
        cost = CostModel()
        cost.charge("adjacency_probe")
        cost.charge("adjacency_probe", 4)
        cost.charge("matmul_ops", 10)
        assert cost.get("adjacency_probe") == 5
        assert cost.total() == 15

    def test_charge_zero_is_noop(self):
        cost = CostModel()
        cost.charge("x", 0)
        assert cost.total() == 0
        assert cost.as_dict() == {}

    def test_reset(self):
        cost = CostModel()
        cost.charge("x", 3)
        cost.reset()
        assert cost.total() == 0

    def test_disable_drops_later_charges(self):
        cost = CostModel()
        cost.charge("a", 2)
        cost.disable()
        cost.charge("a", 5)
        cost.charge("b", 1)
        assert cost.as_dict() == {"a": 2}
        assert cost.total() == 2
