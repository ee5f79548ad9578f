"""Tests for the Gaussian distribution and its closed-form arithmetic."""

import pytest
from scipy import stats

from repro.distributions.gaussian import GaussianDistribution
from repro.errors import DistributionError


class TestBasics:
    def test_moments(self):
        g = GaussianDistribution(3.0, 4.0)
        assert g.mean() == 3.0
        assert g.variance() == 4.0
        assert g.std() == 2.0

    def test_cdf_matches_scipy(self):
        g = GaussianDistribution(1.0, 2.25)
        for x in (-2.0, 0.0, 1.0, 3.5):
            assert g.cdf(x) == pytest.approx(
                float(stats.norm.cdf(x, 1.0, 1.5))
            )

    def test_quantile_inverts_cdf(self):
        g = GaussianDistribution(5.0, 9.0)
        for q in (0.05, 0.5, 0.95):
            assert g.cdf(g.quantile(q)) == pytest.approx(q)

    def test_zero_variance_degenerates(self):
        g = GaussianDistribution(2.0, 0.0)
        assert g.cdf(1.9) == 0.0
        assert g.cdf(2.0) == 1.0

    def test_sampling_moments(self, rng):
        g = GaussianDistribution(-1.0, 4.0)
        samples = g.sample(rng, 100_000)
        assert samples.mean() == pytest.approx(-1.0, abs=0.05)
        assert samples.var() == pytest.approx(4.0, rel=0.05)

    def test_rejects_negative_variance(self):
        with pytest.raises(DistributionError):
            GaussianDistribution(0.0, -1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(DistributionError):
            GaussianDistribution(float("nan"), 1.0)

    def test_quantile_rejects_out_of_range(self):
        with pytest.raises(DistributionError):
            GaussianDistribution(0, 1).quantile(1.5)


class TestArithmetic:
    def test_shift(self):
        g = GaussianDistribution(1.0, 2.0).shifted(3.0)
        assert g == GaussianDistribution(4.0, 2.0)

    def test_scale(self):
        g = GaussianDistribution(1.0, 2.0).scaled(-2.0)
        assert g == GaussianDistribution(-2.0, 8.0)

    def test_plus_independent(self):
        a = GaussianDistribution(1.0, 2.0)
        b = GaussianDistribution(3.0, 4.0)
        assert a.plus(b) == GaussianDistribution(4.0, 6.0)

    def test_minus_adds_variances(self):
        a = GaussianDistribution(1.0, 2.0)
        b = GaussianDistribution(3.0, 4.0)
        assert a.minus(b) == GaussianDistribution(-2.0, 6.0)

    def test_average(self):
        gs = [GaussianDistribution(2.0, 1.0), GaussianDistribution(4.0, 3.0)]
        avg = GaussianDistribution.average(gs)
        assert avg.mu == pytest.approx(3.0)
        assert avg.sigma2 == pytest.approx(1.0)  # (1+3)/4

    def test_average_single(self):
        g = GaussianDistribution(5.0, 2.0)
        assert GaussianDistribution.average([g]) == g

    def test_average_empty_rejected(self):
        with pytest.raises(DistributionError):
            GaussianDistribution.average([])

    def test_sum_matches_sampling(self, rng):
        a = GaussianDistribution(1.0, 2.0)
        b = GaussianDistribution(-2.0, 0.5)
        combined = a.plus(b)
        samples = a.sample(rng, 50_000) + b.sample(rng, 50_000)
        assert combined.mean() == pytest.approx(samples.mean(), abs=0.05)
        assert combined.variance() == pytest.approx(samples.var(), rel=0.05)
