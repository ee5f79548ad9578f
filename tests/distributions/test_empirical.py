"""Tests for the sample-backed empirical distribution."""

import numpy as np
import pytest

from repro.distributions.empirical import EmpiricalDistribution
from repro.errors import DistributionError


class TestBasics:
    def test_moments(self):
        e = EmpiricalDistribution([1.0, 2.0, 3.0])
        assert e.mean() == pytest.approx(2.0)
        assert e.variance() == pytest.approx(2.0 / 3.0)  # population
        assert e.sample_variance() == pytest.approx(1.0)  # unbiased

    def test_size_and_len(self):
        e = EmpiricalDistribution([5.0, 6.0])
        assert e.size == 2
        assert len(e) == 2

    def test_single_value(self):
        e = EmpiricalDistribution([4.0])
        assert e.mean() == 4.0
        assert e.variance() == 0.0
        assert e.sample_variance() == 0.0

    def test_rejects_empty(self):
        with pytest.raises(DistributionError):
            EmpiricalDistribution([])

    def test_rejects_non_finite(self):
        with pytest.raises(DistributionError):
            EmpiricalDistribution([1.0, float("inf")])


class TestCdfAndQuantiles:
    def test_cdf_step_function(self):
        e = EmpiricalDistribution([1.0, 2.0, 3.0, 4.0])
        assert e.cdf(0.5) == 0.0
        assert e.cdf(1.0) == 0.25
        assert e.cdf(2.5) == 0.5
        assert e.cdf(4.0) == 1.0

    def test_quantile_endpoints(self):
        e = EmpiricalDistribution([3.0, 1.0, 2.0])
        assert e.quantile(0.0) == 1.0
        assert e.quantile(1.0) == 3.0

    def test_quantile_rejects_out_of_range(self):
        e = EmpiricalDistribution([1.0])
        with pytest.raises(DistributionError):
            e.quantile(1.1)

    def test_prob_greater(self):
        e = EmpiricalDistribution([1, 2, 3, 4, 5])
        assert e.prob_greater(3.0) == pytest.approx(0.4)


class TestSampling:
    def test_samples_come_from_values(self, rng):
        e = EmpiricalDistribution([1.0, 2.0, 3.0])
        samples = e.sample(rng, 100)
        assert set(np.unique(samples)).issubset({1.0, 2.0, 3.0})

    def test_resample_same_size_by_default(self, rng):
        e = EmpiricalDistribution([1.0, 2.0, 3.0, 4.0])
        r = e.resample(rng)
        assert r.size == 4

    def test_resample_explicit_size(self, rng):
        e = EmpiricalDistribution([1.0, 2.0])
        assert e.resample(rng, 10).size == 10

    def test_sampling_mean_converges(self, rng):
        e = EmpiricalDistribution(rng.normal(7, 2, 500))
        samples = e.sample(rng, 100_000)
        assert samples.mean() == pytest.approx(e.mean(), abs=0.05)


class TestStrictLowerTail:
    def test_prob_less_excludes_ties(self):
        d = EmpiricalDistribution([1.0, 2.0, 2.0, 4.0])
        assert d.prob_less(2.0) == 0.25
        assert d.cdf(2.0) == 0.75
        assert d.prob_less(1.0) == 0.0
        assert d.prob_less(5.0) == 1.0
