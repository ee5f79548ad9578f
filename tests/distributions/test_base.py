"""Tests for the Distribution base and the Deterministic degenerate case."""

import numpy as np
import pytest

from repro.distributions.base import Deterministic, as_distribution
from repro.distributions.gaussian import GaussianDistribution
from repro.errors import DistributionError


class TestDeterministic:
    def test_moments(self):
        d = Deterministic(5.0)
        assert d.mean() == 5.0
        assert d.variance() == 0.0
        assert d.std() == 0.0

    def test_sampling_is_constant(self, rng):
        d = Deterministic(3.0)
        assert np.all(d.sample(rng, 10) == 3.0)

    def test_cdf_is_step_function(self):
        d = Deterministic(2.0)
        assert d.cdf(1.999) == 0.0
        assert d.cdf(2.0) == 1.0
        assert d.cdf(3.0) == 1.0

    def test_tail_probabilities(self):
        d = Deterministic(2.0)
        assert d.prob_greater(1.0) == 1.0
        assert d.prob_greater(2.0) == 0.0
        assert d.prob_less(3.0) == 1.0

    def test_prob_less_is_strict_at_the_atom(self):
        d = Deterministic(2.0)
        assert d.prob_less(2.0) == 0.0
        assert d.prob_less(2.001) == 1.0
        # A zero-variance Gaussian is the same point mass.
        point = GaussianDistribution(2.0, 0.0)
        assert point.prob_less(2.0) == 0.0
        assert point.prob_less(2.001) == 1.0
        assert GaussianDistribution(2.0, 1.0).prob_less(2.0) == 0.5

    def test_is_deterministic_flag(self):
        assert Deterministic(1.0).is_deterministic()
        assert not GaussianDistribution(0, 1).is_deterministic()

    def test_equality_and_hash(self):
        assert Deterministic(1.0) == Deterministic(1.0)
        assert Deterministic(1.0) != Deterministic(2.0)
        assert hash(Deterministic(1.0)) == hash(Deterministic(1.0))

    def test_rejects_non_finite(self):
        with pytest.raises(DistributionError):
            Deterministic(float("inf"))
        with pytest.raises(DistributionError):
            Deterministic(float("nan"))


class TestAsDistribution:
    def test_passes_distributions_through(self):
        g = GaussianDistribution(0, 1)
        assert as_distribution(g) is g

    def test_coerces_numbers(self):
        assert as_distribution(5) == Deterministic(5.0)
        assert as_distribution(2.5) == Deterministic(2.5)
        assert as_distribution(np.float64(1.5)) == Deterministic(1.5)

    def test_rejects_other_types(self):
        with pytest.raises(DistributionError):
            as_distribution("hello")  # type: ignore[arg-type]
        with pytest.raises(DistributionError):
            as_distribution([1, 2])  # type: ignore[arg-type]
