"""Tests for per-update metrics and summary statistics."""

from __future__ import annotations

import pytest

from repro.instrumentation.metrics import UpdateMetrics, fit_power_law, percentile


class TestPercentile:
    def test_empty(self):
        assert percentile([], 0.5) == 0.0

    def test_single_value(self):
        assert percentile([7], 0.99) == 7.0

    def test_median_and_extremes(self):
        values = [1, 2, 3, 4, 5]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 0.5) == 3.0
        assert percentile(values, 1.0) == 5.0

    def test_interpolation(self):
        assert percentile([0, 10], 0.25) == pytest.approx(2.5)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            percentile([1], 1.5)


class TestUpdateMetrics:
    def test_summary(self):
        metrics = UpdateMetrics()
        for operations in [1, 2, 3, 4, 100]:
            metrics.record(operations, operations * 0.001)
        summary = metrics.summary()
        assert len(metrics) == 5
        assert summary.max_operations == 100
        assert summary.mean_operations == pytest.approx(22.0)
        assert summary.p99_operations == pytest.approx(percentile([1, 2, 3, 4, 100], 0.99))
        assert summary.total_seconds == pytest.approx(0.11)
        assert summary.mean_seconds == pytest.approx(0.022)

    def test_worst_case_vs_mean(self):
        metrics = UpdateMetrics()
        for index in range(10):
            metrics.record(1000 if index == 5 else 1, 0.0)
        summary = metrics.summary()
        assert summary.max_operations == 1000
        assert summary.mean_operations == pytest.approx((9 + 1000) / 10)

    def test_empty_metrics(self):
        metrics = UpdateMetrics()
        summary = metrics.summary()
        assert len(metrics) == 0
        assert (summary.mean_operations, summary.p99_operations, summary.max_operations) == (0.0, 0.0, 0)
        assert (summary.total_seconds, summary.mean_seconds) == (0.0, 0.0)


class TestPowerLawFit:
    def test_recovers_exponent(self):
        edge_counts = [10, 100, 1000, 10_000]
        costs = [m ** 0.66 for m in edge_counts]
        assert fit_power_law(edge_counts, costs) == pytest.approx(0.66, abs=1e-9)

    def test_linear_growth(self):
        edge_counts = [10, 100, 1000]
        costs = [5.0 * m for m in edge_counts]
        assert fit_power_law(edge_counts, costs) == pytest.approx(1.0, abs=1e-9)

    def test_insufficient_points(self):
        assert fit_power_law([10], [3.0]) is None
        assert fit_power_law([], []) is None
        assert fit_power_law([10, 10], [1.0, 2.0]) is None
