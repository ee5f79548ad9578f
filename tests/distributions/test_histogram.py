"""Tests for the histogram distribution."""

import numpy as np
import pytest

from repro.distributions.histogram import HistogramDistribution
from repro.errors import DistributionError


@pytest.fixture
def simple() -> HistogramDistribution:
    """Three buckets on [0, 30) with probabilities .2, .5, .3."""
    return HistogramDistribution([0, 10, 20, 30], [0.2, 0.5, 0.3])


class TestConstruction:
    def test_probabilities_normalised(self):
        h = HistogramDistribution([0, 1, 2], [2.0, 2.0])
        assert np.allclose(h.probabilities, [0.5, 0.5])

    def test_from_counts(self):
        h = HistogramDistribution.from_counts([0, 1, 2], [30, 10])
        assert np.allclose(h.probabilities, [0.75, 0.25])

    def test_zero_probability_bucket_allowed(self):
        h = HistogramDistribution([0, 1, 2, 3], [0.5, 0.0, 0.5])
        assert h.probabilities[1] == 0.0

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(DistributionError):
            HistogramDistribution([0, 1], [0.5, 0.5])

    def test_rejects_non_increasing_edges(self):
        with pytest.raises(DistributionError):
            HistogramDistribution([0, 0, 1], [0.5, 0.5])
        with pytest.raises(DistributionError):
            HistogramDistribution([1, 0], [1.0])

    def test_rejects_negative_probabilities(self):
        with pytest.raises(DistributionError):
            HistogramDistribution([0, 1, 2], [-0.5, 1.5])

    def test_rejects_all_zero(self):
        with pytest.raises(DistributionError):
            HistogramDistribution([0, 1, 2], [0.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(DistributionError):
            HistogramDistribution([0], [])

    def test_rejects_negative_counts(self):
        with pytest.raises(DistributionError):
            HistogramDistribution.from_counts([0, 1], [-1])

    @pytest.mark.parametrize(
        "edges",
        [
            [0.0, float("nan"), 2.0],
            [float("nan"), 1.0, 2.0],
            [0.0, 1.0, float("inf")],
            [-float("inf"), 1.0, 2.0],
            [0.0, float("inf"), 2.0],
        ],
    )
    def test_rejects_non_finite_edges(self, edges):
        with pytest.raises(DistributionError):
            HistogramDistribution(edges, [0.5, 0.5])

    @pytest.mark.parametrize(
        "probabilities",
        [
            [float("nan"), 0.5],
            [0.5, float("inf")],
            [float("nan"), float("nan")],
            [-float("inf"), 1.0],
        ],
    )
    def test_rejects_non_finite_probabilities(self, probabilities):
        with pytest.raises(DistributionError):
            HistogramDistribution([0.0, 1.0, 2.0], probabilities)


class TestMoments:
    def test_mean_is_weighted_midpoint(self, simple):
        expected = 5 * 0.2 + 15 * 0.5 + 25 * 0.3
        assert simple.mean() == pytest.approx(expected)

    def test_variance_matches_monte_carlo(self, simple, rng):
        samples = simple.sample(rng, 200_000)
        assert simple.variance() == pytest.approx(
            float(samples.var()), rel=0.02
        )

    def test_single_bucket_is_uniform(self):
        h = HistogramDistribution([0, 12], [1.0])
        assert h.mean() == pytest.approx(6.0)
        assert h.variance() == pytest.approx(12.0**2 / 12.0)


class TestCdf:
    def test_boundaries(self, simple):
        assert simple.cdf(-1) == 0.0
        assert simple.cdf(0) == 0.0
        assert simple.cdf(30) == 1.0
        assert simple.cdf(100) == 1.0

    def test_bucket_interiors_interpolate(self, simple):
        assert simple.cdf(5) == pytest.approx(0.1)
        assert simple.cdf(10) == pytest.approx(0.2)
        assert simple.cdf(15) == pytest.approx(0.45)
        assert simple.cdf(20) == pytest.approx(0.7)

    def test_monotone(self, simple):
        xs = np.linspace(-5, 35, 200)
        cdfs = [simple.cdf(float(x)) for x in xs]
        assert all(a <= b + 1e-12 for a, b in zip(cdfs, cdfs[1:]))

    def test_prob_greater_complement(self, simple):
        assert simple.prob_greater(15) == pytest.approx(1 - simple.cdf(15))


class TestSampling:
    def test_samples_within_support(self, simple, rng):
        samples = simple.sample(rng, 1000)
        assert samples.min() >= 0.0
        assert samples.max() < 30.0

    def test_bucket_frequencies_match(self, simple, rng):
        samples = simple.sample(rng, 50_000)
        counts, _ = np.histogram(samples, bins=simple.edges)
        assert np.allclose(counts / 50_000, simple.probabilities, atol=0.01)


class TestBucketHelpers:
    def test_bucket_bounds(self, simple):
        assert simple.bucket_bounds(0) == (0.0, 10.0)
        assert simple.bucket_bounds(2) == (20.0, 30.0)

    def test_bucket_index(self, simple):
        assert simple.bucket_index(0.0) == 0
        assert simple.bucket_index(9.99) == 0
        assert simple.bucket_index(10.0) == 1
        assert simple.bucket_index(29.9) == 2

    def test_bucket_index_clamps_out_of_range(self, simple):
        assert simple.bucket_index(-5.0) == 0
        assert simple.bucket_index(35.0) == 2

    def test_bucket_count(self, simple):
        assert simple.bucket_count == 3

    def test_equality(self, simple):
        same = HistogramDistribution([0, 10, 20, 30], [0.2, 0.5, 0.3])
        assert simple == same
        different = HistogramDistribution([0, 10, 20, 30], [0.3, 0.4, 0.3])
        assert simple != different
