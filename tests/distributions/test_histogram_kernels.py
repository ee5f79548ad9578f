"""The stacked-histogram kernels equal the scalar methods bit for bit."""

import pickle

import numpy as np
import pytest

from repro.distributions.histogram import (
    HistogramDistribution,
    histogram_cdfs,
    histogram_means,
    histogram_tail_probabilities,
    histogram_variances,
    histograms_from_counts,
    stack_histograms,
)
from repro.errors import DistributionError
from repro.query.expressions import _tail_probability

_OPS = (">", ">=", "<", "<=")


def _histograms(rng, buckets, count=60):
    dists = []
    for _ in range(count):
        edges = np.cumsum(rng.uniform(0.01, 5.0, buckets + 1))
        edges += rng.normal(0.0, 20.0)
        probabilities = rng.uniform(0.0, 1.0, buckets)
        probabilities[rng.uniform(size=buckets) < 0.25] = 0.0
        probabilities[rng.integers(buckets)] += 0.5
        dists.append(HistogramDistribution(edges, probabilities))
    return dists


def _stack(dists):
    edges, probabilities = stack_histograms(dists)
    assert edges.tolist() == [d.edges.tolist() for d in dists]
    assert probabilities.tolist() == [d.probabilities.tolist() for d in dists]
    return edges, probabilities


def _constants(dists, rng):
    """Below, at, inside and above every histogram's edges."""
    first = dists[0]
    values = [-1e9, 1e9, float(rng.normal(0.0, 30.0))]
    values += [float(edge) for edge in first.edges]
    values += [
        float((lo + hi) / 2.0) for lo, hi in zip(first.edges, first.edges[1:])
    ]
    values += [float(np.nextafter(first.edges[0], -np.inf))]
    values += [float(np.nextafter(first.edges[-1], np.inf))]
    return values


@pytest.mark.parametrize("buckets", list(range(1, 21)))
class TestStackedHistogramKernels:
    def test_moments_equal_scalar(self, buckets):
        rng = np.random.default_rng(buckets)
        dists = _histograms(rng, buckets)
        edges, probabilities = _stack(dists)
        means = histogram_means(edges, probabilities)
        assert means.tolist() == [d.mean() for d in dists]
        assert histogram_variances(edges, probabilities).tolist() == [
            d.variance() for d in dists
        ]
        assert histogram_variances(edges, probabilities, means).tolist() == [
            d.variance() for d in dists
        ]

    def test_tails_equal_scalar(self, buckets):
        rng = np.random.default_rng(100 + buckets)
        dists = _histograms(rng, buckets)
        stacked = _stack(dists)
        for c in _constants(dists, rng):
            assert histogram_cdfs(*stacked, c).tolist() == [
                d.cdf(c) for d in dists
            ]
            for op in _OPS:
                got = histogram_tail_probabilities(*stacked, op, c)
                assert got.tolist() == [
                    _tail_probability(d, op, c) for d in dists
                ], (op, c)


def test_rejects_equality_operator():
    dist = HistogramDistribution([0.0, 1.0], [1.0])
    with pytest.raises(DistributionError):
        histogram_tail_probabilities(*_stack([dist]), "=", 0.5)


def test_zero_variance_clamp_matches_scalar():
    # A narrow bucket far from zero makes E[X^2] - E[X]^2 cancel; the
    # scalar clamps at 0.0 with max(), the kernel must too.
    dists = [
        HistogramDistribution([1e8, 1e8 + 1e-6], [1.0]),
        HistogramDistribution([3e7, 3e7 + 1e-7, 3e7 + 2e-7], [0.5, 0.5]),
    ]
    edges, probabilities = _stack(dists[:1])
    assert histogram_variances(edges, probabilities).tolist() == [
        dists[0].variance()
    ]
    edges, probabilities = _stack(dists[1:])
    assert histogram_variances(edges, probabilities).tolist() == [
        dists[1].variance()
    ]


@pytest.mark.parametrize("buckets", [1, 2, 7, 8, 9, 17])
def test_histograms_from_counts_equal_from_counts(buckets):
    rng = np.random.default_rng(buckets)
    edges = np.cumsum(rng.uniform(0.01, 5.0, (40, buckets + 1)), axis=1)
    counts = rng.integers(0, 30, (40, buckets)).astype(float)
    counts[:, 0] += 1
    counts[::3] *= rng.uniform(0.1, 3.0, (14, buckets))  # non-integer weights
    for source in (edges, list(edges)):
        batch = histograms_from_counts(source, counts)
        for row, got in zip(range(40), batch):
            want = HistogramDistribution.from_counts(edges[row], counts[row])
            assert pickle.dumps(got) == pickle.dumps(want)
            assert got._cum.tolist() == want._cum.tolist()
            assert got.edges.base is not None
            assert got.probabilities.flags.owndata and got._cum.flags.owndata


@pytest.mark.parametrize(
    "edges, counts",
    [
        ([[0.0, 1.0, 2.0]], [[1.0, -1.0]]),
        ([[0.0, 1.0, 2.0]], [[1.0, 1.0, 1.0]]),
        ([[0.0, 1.0]], [[]]),
        ([[0.0, 2.0, 1.0]], [[1.0, 1.0]]),
        ([[0.0, np.nan, 1.0]], [[1.0, 1.0]]),
        ([[-np.inf, 0.0, 1.0]], [[1.0, 1.0]]),
        ([[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]], [[1.0, 1.0], [0.0, 0.0]]),
        ([[0.0, 1.0, 2.0]], [[np.inf, 1.0]]),
        ([[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]], [[np.inf, 1.0], [0.0, 0.0]]),
    ],
)
def test_histograms_from_counts_raise_as_from_counts(edges, counts):
    rows = [np.asarray(row, dtype=float) for row in edges]
    with pytest.raises(DistributionError) as want:
        for row_edges, row_counts in zip(rows, counts):
            HistogramDistribution.from_counts(row_edges, row_counts)
    with pytest.raises(DistributionError) as got:
        histograms_from_counts(rows, np.array(counts, dtype=float))
    assert str(got.value) == str(want.value)


def test_histograms_from_counts_checks_the_batch_shape():
    with pytest.raises(DistributionError, match="one edge row per count row"):
        histograms_from_counts([[0.0, 1.0]], np.ones((2, 1)))
    with pytest.raises(DistributionError, match="one length"):
        histograms_from_counts([[0.0, 1.0], [0.0, 1.0, 2.0]], np.ones((2, 1)))
    assert histograms_from_counts([], np.empty((0, 3))) == []
