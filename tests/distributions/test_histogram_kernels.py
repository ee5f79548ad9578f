"""The stacked-histogram kernels equal the scalar methods bit for bit."""

import numpy as np
import pytest

from repro.distributions.histogram import (
    HistogramDistribution,
    histogram_cdfs,
    histogram_means,
    histogram_tail_probabilities,
    histogram_variances,
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
