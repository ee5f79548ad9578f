"""Tests for finite discrete distributions."""

import numpy as np
import pytest

from repro.distributions.discrete import DiscreteDistribution
from repro.errors import DistributionError


class TestConstruction:
    def test_sorted_and_normalised(self):
        d = DiscreteDistribution([3.0, 1.0], [2.0, 6.0])
        assert np.allclose(d.support, [1.0, 3.0])
        assert np.allclose(d.probabilities, [0.75, 0.25])

    def test_duplicate_support_merged(self):
        d = DiscreteDistribution([1.0, 1.0, 2.0], [0.25, 0.25, 0.5])
        assert np.allclose(d.support, [1.0, 2.0])
        assert np.allclose(d.probabilities, [0.5, 0.5])

    def test_rejects_length_mismatch(self):
        with pytest.raises(DistributionError):
            DiscreteDistribution([1.0], [0.5, 0.5])

    def test_rejects_negative_probability(self):
        with pytest.raises(DistributionError):
            DiscreteDistribution([1.0, 2.0], [-0.5, 1.5])

    def test_rejects_empty(self):
        with pytest.raises(DistributionError):
            DiscreteDistribution([], [])


class TestMomentsAndCdf:
    def test_moments(self):
        d = DiscreteDistribution([0.0, 10.0], [0.5, 0.5])
        assert d.mean() == 5.0
        assert d.variance() == 25.0

    def test_cdf_steps(self):
        d = DiscreteDistribution([1.0, 2.0, 3.0], [0.2, 0.3, 0.5])
        assert d.cdf(0.9) == 0.0
        assert d.cdf(1.0) == pytest.approx(0.2)
        assert d.cdf(2.5) == pytest.approx(0.5)
        assert d.cdf(3.0) == pytest.approx(1.0)

    def test_prob_of(self):
        d = DiscreteDistribution([1.0, 2.0], [0.3, 0.7])
        assert d.prob_of(2.0) == pytest.approx(0.7)
        assert d.prob_of(5.0) == 0.0


class TestBernoulli:
    def test_construction(self):
        b = DiscreteDistribution.bernoulli(0.3)
        assert b.mean() == pytest.approx(0.3)
        assert b.variance() == pytest.approx(0.21)

    def test_rejects_bad_p(self):
        with pytest.raises(DistributionError):
            DiscreteDistribution.bernoulli(1.5)


class TestSampling:
    def test_frequencies(self, rng):
        d = DiscreteDistribution([0.0, 1.0], [0.25, 0.75])
        samples = d.sample(rng, 40_000)
        assert samples.mean() == pytest.approx(0.75, abs=0.01)


class TestStrictLowerTail:
    def test_prob_less_excludes_the_point_mass(self):
        d = DiscreteDistribution([1.0, 2.0, 3.0], [0.2, 0.3, 0.5])
        assert d.prob_less(1.0) == 0.0
        assert d.prob_less(2.0) == pytest.approx(0.2)
        assert d.cdf(2.0) == pytest.approx(0.5)
        assert d.prob_less(2.5) == d.cdf(2.5)
        assert d.prob_less(9.0) == 1.0
