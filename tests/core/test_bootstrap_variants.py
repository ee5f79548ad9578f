"""Tests for the basic (reflected) bootstrap interval variant."""

import pytest

from repro.core.bootstrap import bootstrap_accuracy_info
from repro.errors import AccuracyError


class TestBasicInterval:
    def test_reflection_identity(self, rng):
        values = rng.normal(10, 2, 400)
        percentile = bootstrap_accuracy_info(values, 20, 0.9)
        basic = bootstrap_accuracy_info(values, 20, 0.9, interval="basic")
        theta = float(values.mean())
        assert basic.mean.low == pytest.approx(
            2 * theta - percentile.mean.high
        )
        assert basic.mean.high == pytest.approx(
            2 * theta - percentile.mean.low
        )

    def test_same_length_for_mean(self, rng):
        values = rng.exponential(1.0, 600)
        percentile = bootstrap_accuracy_info(values, 20, 0.9)
        basic = bootstrap_accuracy_info(values, 20, 0.9, interval="basic")
        assert basic.mean.length == pytest.approx(percentile.mean.length)

    def test_variance_interval_clamped_non_negative(self, rng):
        # Strong reflection on a right-skewed variance distribution can
        # push the lower bound negative; the implementation clamps it.
        values = rng.exponential(1.0, 100)
        basic = bootstrap_accuracy_info(values, 10, 0.99, interval="basic")
        assert basic.variance.low >= 0.0

    def test_bins_always_percentile(self, rng):
        values = rng.normal(0, 1, 400)
        edges = [-4, 0, 4]
        percentile = bootstrap_accuracy_info(values, 20, 0.9, edges)
        basic = bootstrap_accuracy_info(
            values, 20, 0.9, edges, interval="basic"
        )
        assert [b.interval for b in basic.bins] == [
            b.interval for b in percentile.bins
        ]

    def test_rejects_unknown_interval(self, rng):
        with pytest.raises(AccuracyError):
            bootstrap_accuracy_info(
                rng.normal(0, 1, 100), 10, 0.9, interval="studentized"
            )

    def test_basic_coverage_on_skewed_mean(self, rng):
        """Reflection corrects bootstrap bias; coverage stays sane."""
        misses = 0
        trials = 200
        for _ in range(trials):
            sample = rng.exponential(1.0, 20)
            values = rng.choice(sample, size=100 * 20, replace=True)
            info = bootstrap_accuracy_info(
                values, 20, 0.9, interval="basic"
            )
            misses += not info.mean.contains(1.0)
        assert misses / trials < 0.3
