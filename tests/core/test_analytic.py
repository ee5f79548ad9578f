"""Tests for the analytical accuracy methods (Lemmas 1 & 2, Theorem 1).

The paper's worked Examples 2, 3, and 5 are encoded as exact regression
tests — the implementation must reproduce the numbers printed in the
paper to the stated precision.
"""

import numpy as np
import pytest
from scipy import stats

from repro.core.analytic import (
    SMALL_SAMPLE_MEAN_CUTOFF,
    accuracy_from_sample,
    accuracy_from_stats,
    bin_height_interval,
    distribution_accuracy,
    histogram_accuracy,
    mean_interval,
    proportion_interval_wald,
    proportion_interval_wilson,
    tuple_probability_interval,
    variance_interval,
)
from repro.distributions.gaussian import GaussianDistribution
from repro.distributions.histogram import HistogramDistribution
from repro.errors import AccuracyError


class TestPaperExample2:
    """Example 2: n=20, four buckets with 3, 4, 8, 5 observations, c=0.9."""

    def test_bucket_1_uses_wilson(self):
        # n*p1 = 3 < 4 -> Wilson score interval (0.062, 0.322).
        ci = bin_height_interval(0.15, 20, 0.9)
        assert ci.low == pytest.approx(0.062, abs=0.002)
        assert ci.high == pytest.approx(0.322, abs=0.002)

    def test_bucket_2_uses_wald(self):
        # n*p2 = 4 >= 4 -> Wald interval 0.2 +/- 0.15.
        ci = bin_height_interval(0.2, 20, 0.9)
        assert ci.low == pytest.approx(0.05, abs=0.005)
        assert ci.high == pytest.approx(0.35, abs=0.005)

    def test_bucket_3(self):
        ci = bin_height_interval(0.4, 20, 0.9)
        assert ci.low == pytest.approx(0.22, abs=0.005)
        assert ci.high == pytest.approx(0.58, abs=0.005)

    def test_bucket_4(self):
        ci = bin_height_interval(0.25, 20, 0.9)
        assert ci.low == pytest.approx(0.09, abs=0.005)
        assert ci.high == pytest.approx(0.41, abs=0.005)


class TestPaperExample3:
    """Example 3: 10 delay observations, 90% intervals."""

    def test_mean_interval(self, paper_example3_sample):
        info = accuracy_from_sample(paper_example3_sample, 0.9)
        assert info.mean.low == pytest.approx(65.97, abs=0.02)
        assert info.mean.high == pytest.approx(76.23, abs=0.02)

    def test_variance_interval(self, paper_example3_sample):
        info = accuracy_from_sample(paper_example3_sample, 0.9)
        assert info.variance.low == pytest.approx(41.66, abs=0.05)
        assert info.variance.high == pytest.approx(211.99, abs=0.5)

    def test_sample_statistics(self, paper_example3_sample):
        arr = np.asarray(paper_example3_sample, dtype=float)
        assert arr.mean() == pytest.approx(71.1)
        assert arr.std(ddof=1) == pytest.approx(8.85, abs=0.01)


class TestPaperExample5:
    """Example 5: tuple probability 0.6 with n=20 -> [0.42, 0.78] @90%."""

    def test_tuple_probability_interval(self):
        tpi = tuple_probability_interval(0.6, 20, 0.9)
        assert tpi.interval.low == pytest.approx(0.42, abs=0.005)
        assert tpi.interval.high == pytest.approx(0.78, abs=0.005)


class TestWaldInterval:
    def test_matches_closed_form(self):
        z = stats.norm.isf(0.05)
        ci = proportion_interval_wald(0.3, 50, 0.9)
        half = z * np.sqrt(0.3 * 0.7 / 50)
        assert ci.low == pytest.approx(0.3 - half)
        assert ci.high == pytest.approx(0.3 + half)

    def test_clamped_to_unit_interval(self):
        ci = proportion_interval_wald(0.99, 10, 0.99)
        assert ci.high <= 1.0
        ci = proportion_interval_wald(0.01, 10, 0.99)
        assert ci.low >= 0.0

    def test_degenerate_proportions_give_zero_width(self):
        assert proportion_interval_wald(0.0, 20, 0.9).length == 0.0
        assert proportion_interval_wald(1.0, 20, 0.9).length == 0.0

    def test_narrows_with_n(self):
        wide = proportion_interval_wald(0.5, 10, 0.9)
        narrow = proportion_interval_wald(0.5, 1000, 0.9)
        assert narrow.length < wide.length

    def test_rejects_bad_inputs(self):
        with pytest.raises(AccuracyError):
            proportion_interval_wald(1.5, 10, 0.9)
        with pytest.raises(AccuracyError):
            proportion_interval_wald(0.5, 0, 0.9)
        with pytest.raises(AccuracyError):
            proportion_interval_wald(0.5, 10, 1.0)


class TestWilsonInterval:
    def test_never_degenerate_at_zero(self):
        # Unlike Wald, Wilson has positive width even at p=0.
        ci = proportion_interval_wilson(0.0, 20, 0.9)
        assert ci.low == 0.0
        assert ci.high > 0.0

    def test_centre_pulled_toward_half(self):
        ci = proportion_interval_wilson(0.1, 10, 0.9)
        assert ci.midpoint > 0.1
        ci = proportion_interval_wilson(0.9, 10, 0.9)
        assert ci.midpoint < 0.9

    def test_stays_in_unit_interval(self):
        for p in (0.0, 0.05, 0.5, 0.95, 1.0):
            ci = proportion_interval_wilson(p, 5, 0.99)
            assert 0.0 <= ci.low <= ci.high <= 1.0


class TestLemma1Dispatch:
    def test_small_expected_count_uses_wilson(self):
        # n*p = 3 < 4: must match Wilson, not Wald.
        dispatched = bin_height_interval(0.15, 20, 0.9)
        wilson = proportion_interval_wilson(0.15, 20, 0.9)
        assert dispatched == wilson

    def test_small_complement_count_uses_wilson(self):
        # n*(1-p) = 2 < 4.
        dispatched = bin_height_interval(0.9, 20, 0.9)
        wilson = proportion_interval_wilson(0.9, 20, 0.9)
        assert dispatched == wilson

    def test_large_counts_use_wald(self):
        dispatched = bin_height_interval(0.5, 100, 0.9)
        wald = proportion_interval_wald(0.5, 100, 0.9)
        assert dispatched == wald

    def test_boundary_exactly_four_uses_wald(self):
        # n*p = 4 exactly satisfies the >= 4 rule (paper Example 2).
        dispatched = bin_height_interval(0.2, 20, 0.9)
        wald = proportion_interval_wald(0.2, 20, 0.9)
        assert dispatched == wald


class TestMeanInterval:
    def test_uses_t_below_cutoff(self):
        n = SMALL_SAMPLE_MEAN_CUTOFF - 1
        ci = mean_interval(0.0, 1.0, n, 0.9)
        t_val = stats.t.isf(0.05, df=n - 1)
        assert ci.high == pytest.approx(t_val / np.sqrt(n))

    def test_uses_z_at_cutoff(self):
        n = SMALL_SAMPLE_MEAN_CUTOFF
        ci = mean_interval(0.0, 1.0, n, 0.9)
        z_val = stats.norm.isf(0.05)
        assert ci.high == pytest.approx(z_val / np.sqrt(n))

    def test_t_wider_than_z_for_same_n(self):
        # The t-quantile exceeds the z-quantile; the regime switch makes
        # the small-sample interval appropriately wider.
        n = 29
        t_ci = mean_interval(0.0, 1.0, n, 0.9)
        z_half = stats.norm.isf(0.05) / np.sqrt(n)
        assert t_ci.high > z_half

    def test_centred_on_sample_mean(self):
        ci = mean_interval(42.0, 5.0, 25, 0.95)
        assert ci.midpoint == pytest.approx(42.0)

    def test_zero_std_gives_point_interval(self):
        ci = mean_interval(7.0, 0.0, 10, 0.9)
        assert ci.low == ci.high == 7.0

    def test_length_scales_inverse_sqrt_n(self):
        big = mean_interval(0.0, 1.0, 400, 0.9)
        small = mean_interval(0.0, 1.0, 100, 0.9)
        assert small.length == pytest.approx(2.0 * big.length, rel=1e-9)

    def test_rejects_n_below_two(self):
        with pytest.raises(AccuracyError):
            mean_interval(0.0, 1.0, 1, 0.9)

    def test_rejects_negative_std(self):
        with pytest.raises(AccuracyError):
            mean_interval(0.0, -1.0, 10, 0.9)


class TestVarianceInterval:
    def test_matches_chi_square_closed_form(self):
        n, s2, c = 10, 78.32, 0.9
        ci = variance_interval(s2, n, c)
        upper = stats.chi2.isf(0.05, df=9)
        lower = stats.chi2.ppf(0.05, df=9)
        assert ci.low == pytest.approx(9 * s2 / upper)
        assert ci.high == pytest.approx(9 * s2 / lower)

    def test_interval_contains_s2(self):
        # The chi-square interval always straddles the point estimate.
        ci = variance_interval(4.0, 15, 0.9)
        assert ci.low < 4.0 < ci.high

    def test_asymmetric_about_s2(self):
        ci = variance_interval(1.0, 10, 0.9)
        assert (ci.high - 1.0) > (1.0 - ci.low)

    def test_zero_variance_gives_point_interval(self):
        ci = variance_interval(0.0, 10, 0.9)
        assert ci.low == ci.high == 0.0

    def test_narrows_with_n(self):
        wide = variance_interval(1.0, 5, 0.9)
        narrow = variance_interval(1.0, 500, 0.9)
        assert narrow.length < wide.length

    def test_rejects_bad_inputs(self):
        with pytest.raises(AccuracyError):
            variance_interval(-1.0, 10, 0.9)
        with pytest.raises(AccuracyError):
            variance_interval(1.0, 1, 0.9)


class TestHistogramAccuracy:
    def test_one_interval_per_bucket(self):
        hist = HistogramDistribution([0, 1, 2, 3], [0.2, 0.5, 0.3])
        bins = histogram_accuracy(hist, 50, 0.9)
        assert len(bins) == 3
        assert bins[0].lower_edge == 0 and bins[0].upper_edge == 1

    def test_intervals_cover_learned_heights(self):
        hist = HistogramDistribution([0, 1, 2], [0.4, 0.6])
        for bin_interval, p in zip(
            histogram_accuracy(hist, 40, 0.9), hist.probabilities
        ):
            assert bin_interval.interval.contains(float(p))

    @pytest.mark.parametrize("bin_eps", [0.0, 1e-3, 0.05, 0.4, 1.0])
    @pytest.mark.parametrize("n", [3, 40, 5000])
    def test_bin_eps_matches_widened(self, bin_eps, n):
        """Array-form widening equals AccuracyInfo.widened bit for bit."""
        # Heights near 0 and 1 make the [0, 1] clamp bind on both sides.
        hist = HistogramDistribution(
            [0, 1, 2, 3, 4, 5], [0.001, 0.3, 0.0, 0.098, 0.601]
        )
        base = accuracy_from_stats(
            1.0, 2.0, n, 0.9, hist
        ).widened(0.0, bin_eps=bin_eps)
        assert histogram_accuracy(hist, n, 0.9, bin_eps=bin_eps) == base.bins

    def test_negative_bin_eps_rejected(self):
        hist = HistogramDistribution([0, 1, 2], [0.4, 0.6])
        with pytest.raises(AccuracyError):
            histogram_accuracy(hist, 40, 0.9, bin_eps=-0.1)


class TestDistributionAccuracy:
    def test_gaussian_uses_own_moments(self):
        dist = GaussianDistribution(10.0, 4.0)
        info = distribution_accuracy(dist, 25, 0.9)
        assert info.mean.midpoint == pytest.approx(10.0)
        assert info.sample_size == 25
        assert info.method == "analytic"
        assert not info.has_bins

    def test_histogram_gets_bins_too(self):
        hist = HistogramDistribution([0, 1, 2], [0.5, 0.5])
        info = distribution_accuracy(hist, 30, 0.9)
        assert info.has_bins
        assert len(info.bins) == 2

    def test_sample_variance_override(self):
        dist = GaussianDistribution(0.0, 1.0)
        default = distribution_accuracy(dist, 20, 0.9)
        overridden = distribution_accuracy(
            dist, 20, 0.9, sample_variance=4.0
        )
        assert overridden.variance.high == pytest.approx(
            4.0 * default.variance.high
        )

    def test_rejects_tiny_samples(self):
        with pytest.raises(AccuracyError):
            distribution_accuracy(GaussianDistribution(0, 1), 1, 0.9)


class TestAccuracyFromSample:
    def test_includes_bins_when_histogram_given(self, rng):
        sample = rng.normal(0, 1, 40)
        hist = HistogramDistribution([-3, 0, 3], [0.5, 0.5])
        info = accuracy_from_sample(sample, 0.9, histogram=hist)
        assert info.has_bins
        assert info.sample_size == 40

    def test_interval_length_decreases_with_n(self, rng):
        sample = rng.normal(0, 1, 400)
        small = accuracy_from_sample(sample[:20], 0.9)
        large = accuracy_from_sample(sample, 0.9)
        assert large.mean.length < small.mean.length

    def test_rejects_single_observation(self):
        with pytest.raises(AccuracyError):
            accuracy_from_sample([1.0], 0.9)


class TestCoverageProperties:
    """Statistical sanity: the intervals cover at roughly nominal rates."""

    def test_mean_interval_coverage_on_normal_data(self, rng):
        misses = 0
        trials = 400
        for _ in range(trials):
            sample = rng.normal(5.0, 2.0, 20)
            ci = mean_interval(
                float(sample.mean()), float(sample.std(ddof=1)), 20, 0.9
            )
            misses += not ci.contains(5.0)
        # Nominal miss rate is 10%; allow generous slack for 400 trials.
        assert misses / trials < 0.16
        assert misses / trials > 0.04

    def test_variance_interval_coverage_on_normal_data(self, rng):
        misses = 0
        trials = 400
        for _ in range(trials):
            sample = rng.normal(0.0, 3.0, 25)
            ci = variance_interval(float(sample.var(ddof=1)), 25, 0.9)
            misses += not ci.contains(9.0)
        assert misses / trials < 0.16

    def test_bin_interval_coverage_binomial(self, rng):
        misses = 0
        trials = 400
        p_true = 0.3
        for _ in range(trials):
            count = rng.binomial(30, p_true)
            ci = bin_height_interval(count / 30, 30, 0.9)
            misses += not ci.contains(p_true)
        assert misses / trials < 0.16
