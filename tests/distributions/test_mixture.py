"""Tests for finite mixture distributions."""

import numpy as np
import pytest

from repro.distributions.base import Deterministic
from repro.distributions.gaussian import GaussianDistribution
from repro.distributions.mixture import MixtureDistribution
from repro.errors import DistributionError


class TestConstruction:
    def test_default_equal_weights(self):
        m = MixtureDistribution(
            [GaussianDistribution(0, 1), GaussianDistribution(10, 1)]
        )
        assert np.allclose(m.weights, [0.5, 0.5])

    def test_weights_normalised(self):
        m = MixtureDistribution(
            [GaussianDistribution(0, 1), GaussianDistribution(1, 1)],
            [1.0, 3.0],
        )
        assert np.allclose(m.weights, [0.25, 0.75])

    def test_rejects_empty(self):
        with pytest.raises(DistributionError):
            MixtureDistribution([])

    def test_rejects_weight_mismatch(self):
        with pytest.raises(DistributionError):
            MixtureDistribution([GaussianDistribution(0, 1)], [0.5, 0.5])

    def test_rejects_negative_weights(self):
        with pytest.raises(DistributionError):
            MixtureDistribution(
                [GaussianDistribution(0, 1), GaussianDistribution(1, 1)],
                [-1.0, 2.0],
            )


class TestMoments:
    def test_mean_is_weighted(self):
        m = MixtureDistribution(
            [GaussianDistribution(0, 1), GaussianDistribution(10, 1)],
            [0.3, 0.7],
        )
        assert m.mean() == pytest.approx(7.0)

    def test_variance_law_of_total_variance(self):
        m = MixtureDistribution(
            [GaussianDistribution(0, 1), GaussianDistribution(10, 4)],
            [0.5, 0.5],
        )
        expected = 0.5 * 1 + 0.5 * 4 + 0.5 * 25 + 0.5 * 25
        assert m.variance() == pytest.approx(expected)

    def test_single_component_passthrough(self):
        g = GaussianDistribution(3, 2)
        m = MixtureDistribution([g])
        assert m.mean() == g.mean()
        assert m.variance() == g.variance()
        assert m.cdf(3.5) == pytest.approx(g.cdf(3.5))


class TestCdfAndSampling:
    def test_cdf_is_weighted_sum(self):
        a = GaussianDistribution(0, 1)
        b = GaussianDistribution(5, 1)
        m = MixtureDistribution([a, b], [0.4, 0.6])
        assert m.cdf(2.0) == pytest.approx(0.4 * a.cdf(2.0) + 0.6 * b.cdf(2.0))

    def test_bimodal_sampling(self, rng):
        m = MixtureDistribution(
            [GaussianDistribution(0, 0.01), GaussianDistribution(10, 0.01)],
            [0.5, 0.5],
        )
        samples = m.sample(rng, 10_000)
        near_zero = np.mean(np.abs(samples) < 1)
        near_ten = np.mean(np.abs(samples - 10) < 1)
        assert near_zero == pytest.approx(0.5, abs=0.03)
        assert near_ten == pytest.approx(0.5, abs=0.03)

    def test_sampling_moments(self, rng):
        m = MixtureDistribution(
            [GaussianDistribution(0, 1), GaussianDistribution(4, 2)],
            [0.25, 0.75],
        )
        samples = m.sample(rng, 100_000)
        assert samples.mean() == pytest.approx(m.mean(), abs=0.05)
        assert samples.var() == pytest.approx(m.variance(), rel=0.05)


class TestStrictLowerTail:
    def test_prob_less_weights_component_point_masses(self):
        mixture = MixtureDistribution(
            [Deterministic(1.0), GaussianDistribution(1.0, 4.0)], [0.5, 0.5]
        )
        assert mixture.prob_less(1.0) == pytest.approx(0.25)
        assert mixture.cdf(1.0) == pytest.approx(0.75)
