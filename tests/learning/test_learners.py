"""Tests for the distribution learners."""

import pickle
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions.gaussian import GaussianDistribution
from repro.distributions.histogram import HistogramDistribution
from repro.errors import DistributionError, LearningError
from repro.learning.base import LearnedDistribution
from repro.learning.empirical_learner import EmpiricalLearner
from repro.learning.gaussian_learner import GaussianLearner
from repro.learning.histogram_learner import (
    HistogramLearner,
    equi_depth_edges,
    equi_width_edges,
)


class TestLearnedDistribution:
    def test_keeps_sample(self, rng):
        sample = rng.normal(0, 1, 25)
        fitted = GaussianLearner().learn(sample)
        assert fitted.sample_size == 25
        assert np.array_equal(fitted.sample, sample)

    def test_as_dfsized(self, rng):
        fitted = GaussianLearner().learn(rng.normal(0, 1, 30))
        value = fitted.as_dfsized()
        assert value.sample_size == 30
        assert value.distribution is fitted.distribution

    def test_accuracy_from_backing_sample(self, paper_example3_sample):
        fitted = GaussianLearner().learn(paper_example3_sample)
        info = fitted.accuracy(0.9)
        # Must match the paper's Example 3 (driven by the raw sample).
        assert info.mean.low == pytest.approx(65.97, abs=0.02)
        assert info.mean.high == pytest.approx(76.23, abs=0.02)

    def test_accuracy_includes_bins_for_histograms(self, rng):
        fitted = HistogramLearner(bucket_count=4).learn(rng.normal(0, 1, 50))
        info = fitted.accuracy(0.9)
        assert len(info.bins) == 4

    def test_accuracy_rejects_single_observation(self):
        fitted = EmpiricalLearner().learn([1.0])
        with pytest.raises(LearningError):
            fitted.accuracy()

    def test_accuracy_from_distribution_moments(self, rng):
        fitted = GaussianLearner().learn(rng.normal(5, 1, 40))
        info = fitted.accuracy_from_distribution(0.9)
        assert info.mean.contains(fitted.distribution.mean())

    def test_rejects_empty_sample(self):
        with pytest.raises(LearningError):
            LearnedDistribution(GaussianDistribution(0, 1), np.array([]))


class TestGaussianLearner:
    def test_fits_sample_moments(self, rng):
        sample = rng.normal(10, 3, 100)
        fitted = GaussianLearner().learn(sample)
        dist = fitted.distribution
        assert isinstance(dist, GaussianDistribution)
        assert dist.mean() == pytest.approx(float(sample.mean()))
        assert dist.variance() == pytest.approx(float(sample.var(ddof=1)))

    def test_needs_two_observations(self):
        with pytest.raises(LearningError):
            GaussianLearner().learn([1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(LearningError):
            GaussianLearner().learn([1.0, float("nan")])


class TestEmpiricalLearner:
    def test_distribution_is_the_sample(self, rng):
        sample = rng.normal(0, 1, 20)
        fitted = EmpiricalLearner().learn(sample)
        assert fitted.distribution.mean() == pytest.approx(
            float(sample.mean())
        )
        assert fitted.sample_size == 20


class TestEquiWidthEdges:
    def test_spans_sample_range(self, rng):
        sample = rng.uniform(3, 9, 100)
        edges = equi_width_edges(sample, 5)
        assert edges[0] == pytest.approx(sample.min())
        assert edges[-1] == pytest.approx(sample.max())
        assert len(edges) == 6
        assert np.allclose(np.diff(edges), np.diff(edges)[0])

    def test_explicit_range(self, rng):
        edges = equi_width_edges(rng.uniform(0, 1, 10), 4, (0.0, 100.0))
        assert edges[0] == 0.0 and edges[-1] == 100.0

    def test_degenerate_range_widened(self):
        edges = equi_width_edges(np.array([5.0, 5.0]), 2)
        assert edges[-1] > edges[0]

    def test_rejects_zero_buckets(self, rng):
        with pytest.raises(LearningError):
            equi_width_edges(rng.normal(0, 1, 10), 0)


class TestEquiDepthEdges:
    def test_buckets_hold_equal_mass(self, rng):
        sample = rng.exponential(1.0, 10_000)
        edges = equi_depth_edges(sample, 4)
        counts, _ = np.histogram(sample, bins=edges)
        assert np.allclose(counts / counts.sum(), 0.25, atol=0.02)

    def test_heavy_ties_collapse(self):
        edges = equi_depth_edges(np.array([1.0] * 50), 4)
        assert len(edges) >= 2
        assert edges[-1] > edges[0]


class TestHistogramLearner:
    def test_learns_frequencies(self, rng):
        learner = HistogramLearner(edges=[0, 1, 2, 3])
        fitted = learner.learn([0.5, 0.6, 1.5, 2.5])
        hist = fitted.distribution
        assert isinstance(hist, HistogramDistribution)
        assert np.allclose(hist.probabilities, [0.5, 0.25, 0.25])

    def test_out_of_range_clamped_into_boundary_buckets(self):
        learner = HistogramLearner(edges=[0, 1, 2])
        fitted = learner.learn([-5.0, 0.5, 5.0])
        hist = fitted.distribution
        assert hist.probabilities[0] == pytest.approx(2 / 3)
        assert hist.probabilities[1] == pytest.approx(1 / 3)

    def test_equi_depth_strategy(self, rng):
        learner = HistogramLearner(bucket_count=4, strategy="equi_depth")
        fitted = learner.learn(rng.exponential(1, 400))
        hist = fitted.distribution
        assert np.allclose(hist.probabilities, 0.25, atol=0.05)

    def test_rejects_unknown_strategy(self):
        with pytest.raises(LearningError):
            HistogramLearner(strategy="magic")

    def test_value_range_shares_bucketisation(self, rng):
        learner = HistogramLearner(bucket_count=4, value_range=(0.0, 8.0))
        a = learner.learn(rng.uniform(0, 8, 50))
        b = learner.learn(rng.uniform(0, 8, 70))
        assert np.array_equal(a.distribution.edges, b.distribution.edges)

    def test_explicit_edges_are_checked(self):
        for edges in ([0.0], [0.0, 0.0], [1.0, 0.0], [0.0, np.inf], [[0, 1]]):
            with pytest.raises(LearningError, match="explicit edges"):
                HistogramLearner(edges=edges)


# -- the learner before ``np.histogram`` left it --------------------------


def _numpy_histogram_learn(learner, sample):
    """``HistogramLearner.learn`` as it was: clip, then ``np.histogram``."""
    arr = np.asarray(sample, dtype=float).ravel()
    if learner.edges is not None:
        edges = learner.edges
    elif learner.strategy == "equi_width":
        if learner.value_range is None:
            lo, hi = float(arr.min()), float(arr.max())
        else:
            lo, hi = learner.value_range
        if hi <= lo:
            lo, hi = lo - 0.5, lo + 0.5
        edges = np.linspace(lo, hi, learner.bucket_count + 1)
    else:
        edges = equi_depth_edges(arr, learner.bucket_count)
    counts, _ = np.histogram(np.clip(arr, edges[0], edges[-1]), bins=edges)
    return HistogramDistribution.from_counts(edges, counts)


def _assert_same_field(got, want):
    """Equal pickles, and equal ``sys.getsizeof`` of the three arrays."""
    assert pickle.dumps(got) == pickle.dumps(want)
    for name in ("edges", "probabilities", "_cum"):
        assert sys.getsizeof(getattr(got.distribution, name)) == (
            sys.getsizeof(getattr(want.distribution, name))
        ), name


def _assert_learn_many_equals_learn(learner, samples):
    try:
        want = [learner.learn(sample).as_dfsized() for sample in samples]
    except (LearningError, DistributionError) as exc:
        with pytest.raises(type(exc)) as info:
            learner.learn_many(samples)
        assert str(info.value) == str(exc)
        return
    got = learner.learn_many(samples)
    assert len(got) == len(want)
    for one, other in zip(got, want):
        _assert_same_field(one, other)


LEARNERS = [
    HistogramLearner(bucket_count=8),
    HistogramLearner(bucket_count=1),
    HistogramLearner(bucket_count=3),
    HistogramLearner(bucket_count=5, strategy="equi_depth"),
    HistogramLearner(edges=[0.0, 1.0, 2.5, 4.0]),
    HistogramLearner(bucket_count=6, value_range=(-1.0, 3.0)),
]

_values = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, 2.5, 4.0, -1.0, 3.0]),
    st.integers(-3, 6).map(float),
    st.floats(-1e-300, 1e-300, allow_nan=False),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(
    learner=st.sampled_from(LEARNERS),
    samples=st.lists(st.lists(_values, min_size=1, max_size=30), max_size=12),
)
def test_learn_many_equals_learn(learner, samples):
    _assert_learn_many_equals_learn(learner, samples)


@settings(max_examples=300, deadline=None)
@given(
    learner=st.sampled_from(LEARNERS),
    sample=st.lists(_values, min_size=1, max_size=40),
)
def test_learn_equals_numpy_histogram_learner(learner, sample):
    try:
        want = _numpy_histogram_learn(learner, sample)
    except (ValueError, DistributionError):
        # Edges that are not finite and strictly increasing: equi-width
        # edges now raise LearningError, equi-depth ones as before.
        with pytest.raises((LearningError, DistributionError)):
            learner.learn(sample)
        return
    got = learner.learn(sample).distribution
    assert pickle.dumps(got) == pickle.dumps(want)


SUBNORMAL = 5e-324


@pytest.mark.parametrize("learner", LEARNERS)
@pytest.mark.parametrize(
    "samples",
    [
        [[7.0]],
        [[2.0, 2.0, 2.0], [1.0], [3.0, 3.0]],
        [[0.0, 1.0, 2.5, 4.0], [0.0, 4.0, 2.0], [-1.0, 3.0, 1.0, 1.0]],
        [[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]],
        [[-5.0, 0.5, 5.0], [100.0, -100.0], [0.5]],
        [[0.0, 8 * SUBNORMAL], [1.0, 2.0, 3.0]],
        [[1.0, 2.0], [0.0, SUBNORMAL], [1.0, 2.0]],
        [[0.0, 2 * SUBNORMAL], [5.0]],
        [[1.0] * 40 + [2.0], [3.0] * 10, [1.0, 1.0, 2.0, 2.0, 9.0]],
        [[1.0, 2.0], [1e17] * 3, [2e17] * 2],
        [[1.0, 2.0], [1e308, -1e308]],
        [[1.0, 2.0], [], [3.0]],
        [[1.0, 2.0], [np.nan], [3.0]],
        [],
    ],
)
def test_learn_many_fixed_cases(learner, samples):
    with warnings.catch_warnings():
        if learner.strategy == "equi_width":
            # np.quantile warns on overflowing equi-depth ranges.
            warnings.simplefilter("error")
        _assert_learn_many_equals_learn(learner, samples)


class TestEquiWidthRangeErrors:
    @pytest.mark.parametrize(
        "sample, named",
        [
            ([1e17] * 3, "[1e+17, 1e+17]"),
            ([1e308, -1e308], "[-1e+308, 1e+308]"),
            ([0.0, SUBNORMAL], "[0.0, 5e-324]"),
        ],
    )
    def test_learning_error_names_the_range(self, sample, named):
        learner = HistogramLearner(bucket_count=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LearningError) as info:
                learner.learn(sample)
            assert named in str(info.value)
            with pytest.raises(LearningError) as many:
                learner.learn_many([[1.0, 2.0], sample, [1e308, -1e308]])
        assert str(many.value) == str(info.value)

    def test_bad_value_range(self):
        with pytest.raises(LearningError, match="equi-width"):
            equi_width_edges(np.empty(0), 4, (0.0, np.inf))


class TestLearnMany:
    def test_default_is_learn_per_sample(self, rng):
        samples = [rng.normal(0, 1, 5), rng.normal(3, 2, 9)]
        got = GaussianLearner().learn_many(samples)
        for field, sample in zip(got, samples):
            want = GaussianLearner().learn(sample).as_dfsized()
            assert pickle.dumps(field) == pickle.dumps(want)

    def test_accepts_an_iterator(self):
        learner = HistogramLearner(bucket_count=4)
        samples = [[1.0, 2.0], [np.nan], [3.0]]
        with pytest.raises(LearningError, match="finite"):
            learner.learn_many(iter(samples))
        got = learner.learn_many(iter(samples[:1]))
        _assert_same_field(got[0], learner.learn(samples[0]).as_dfsized())

    def test_explicit_edges_object_is_shared_as_learn_shares_it(self):
        learner = HistogramLearner(edges=[0.0, 1.0, 2.0])
        fields = learner.learn_many([[0.5], [1.5, 1.7]])
        assert all(f.distribution.edges is learner.edges for f in fields)

    def test_equi_width_edges_are_views(self, rng):
        fields = HistogramLearner(bucket_count=8).learn_many(
            [rng.normal(0, 1, 12) for _ in range(5)]
        )
        for field in fields:
            dist = field.distribution
            assert not dist.edges.flags.owndata
            assert dist.edges.flags.c_contiguous
            assert dist.probabilities.flags.owndata
            assert dist._cum.flags.owndata
