"""Tests for the incremental-learning hooks (partial_add/partial_evict)."""

import math

import numpy as np
import pytest

from repro.errors import LearningError
from repro.learning.base import Learner
from repro.learning.empirical_learner import EmpiricalLearner
from repro.learning.gaussian_learner import GaussianLearner
from repro.learning.histogram_learner import HistogramLearner
from repro.learning.kde_learner import KdeLearner
from repro.learning.partial import DEFAULT_RESUM_INTERVAL, PartialFitState
from repro.learning.registry import make_rolling_learner


class TestPartialFitState:
    def test_welford_add_matches_numpy(self):
        state = PartialFitState()
        values = [3.0, 1.5, 9.0, 2.25, 7.0]
        for x in values:
            state.add(x)
        assert state.mean == pytest.approx(np.mean(values), rel=1e-12)
        assert state.variance == pytest.approx(
            np.var(values, ddof=1), rel=1e-12
        )
        assert state.std == pytest.approx(math.sqrt(state.variance))
        assert len(state) == 5

    def test_evict_any_order(self):
        state = PartialFitState()
        for x in (1.0, 2.0, 3.0, 4.0):
            state.add(x)
        state.evict(3.0)  # not FIFO
        state.evict(1.0)
        assert state.count == 2
        assert state.mean == pytest.approx(3.0, rel=1e-12)
        assert state.variance == pytest.approx(2.0, rel=1e-12)

    def test_evict_unknown_value_raises(self):
        state = PartialFitState()
        state.add(1.0)
        with pytest.raises(LearningError, match="not in the window"):
            state.evict(2.0)

    def test_evict_duplicate_respects_multiplicity(self):
        state = PartialFitState()
        state.add(5.0)
        state.add(5.0)
        state.evict(5.0)
        state.evict(5.0)
        with pytest.raises(LearningError, match="not in the window"):
            state.evict(5.0)

    def test_empty_statistics_raise(self):
        state = PartialFitState()
        with pytest.raises(LearningError, match="empty"):
            state.mean
        state.add(1.0)
        with pytest.raises(LearningError, match=">= 2"):
            state.variance

    def test_count_resets_cleanly_at_zero(self):
        state = PartialFitState()
        state.add(7.5)
        state.evict(7.5)
        assert state.count == 0
        state.add(2.0)
        assert state.mean == 2.0

    def test_resum_restores_exactness(self):
        state = PartialFitState(resum_interval=4)
        window = []
        # Unique values so fsum over the mirror == fsum over the window.
        stream = [float(i) * 1e8 + 1.0 / (i + 1) for i in range(40)]
        for x in stream:
            state.add(x)
            window.append(x)
            if len(window) > 6:
                state.evict(window.pop(0))
        assert state.resums == (40 - 6) // 4
        # 34 evictions, last re-sum at the 32nd: 2 evictions since.
        state.evict(window.pop(0))
        state.evict(window.pop(0))
        assert state.resums == 35 // 4 + 1  # wrapped to the next re-sum
        assert state.mean == math.fsum(window) / len(window)

    def test_bad_resum_interval(self):
        with pytest.raises(LearningError, match="resum interval"):
            PartialFitState(resum_interval=0)

    def test_default_interval_matches_rolling_module(self):
        from repro.streams.rolling import (
            DEFAULT_RESUM_INTERVAL as STREAM_INTERVAL,
        )

        assert DEFAULT_RESUM_INTERVAL == STREAM_INTERVAL == 4096


class TestLearnerHooks:
    def test_base_learner_defaults_raise(self):
        class Minimal(Learner):
            def learn(self, sample):  # pragma: no cover - unused
                raise NotImplementedError

        learner = Minimal()
        assert learner.supports_partial is False
        # One batch emission path for every learner: no opt-in flag.
        assert not hasattr(learner, "partial_vectorizable")
        with pytest.raises(LearningError, match="incremental"):
            learner.partial_begin()
        with pytest.raises(LearningError, match="incremental"):
            learner.partial_snapshot(None)
        with pytest.raises(LearningError, match="incremental"):
            learner.partial_emissions([], 0.95)
        with pytest.raises(LearningError, match="incremental"):
            learner.partial_add(None, 1.0)
        with pytest.raises(LearningError, match="incremental"):
            learner.partial_evict(None, 1.0)
        with pytest.raises(LearningError, match="incremental"):
            learner.partial_distribution(None)
        with pytest.raises(LearningError, match="incremental"):
            learner.partial_accuracy(None)
        with pytest.raises(LearningError, match="incremental"):
            learner.partial_moments(None)

    def test_validated_observation(self):
        assert Learner._validated_observation(3) == 3.0
        with pytest.raises(LearningError):
            Learner._validated_observation(True)
        with pytest.raises(LearningError):
            Learner._validated_observation("x")
        with pytest.raises(LearningError):
            Learner._validated_observation(float("nan"))
        with pytest.raises(LearningError):
            Learner._validated_observation(float("inf"))


class TestGaussianPartial:
    def test_flags(self):
        learner = GaussianLearner()
        assert learner.supports_partial is True
        assert not hasattr(learner, "partial_vectorizable")

    def test_distribution_and_accuracy_match_learn(self):
        learner = GaussianLearner()
        state = learner.partial_begin()
        values = [4.0, 8.0, 15.0, 16.0, 23.0, 42.0]
        for x in values:
            learner.partial_add(state, x)
        ref = learner.learn(values)
        dist = learner.partial_distribution(state)
        assert dist.mu == pytest.approx(ref.distribution.mu, rel=1e-12)
        assert dist.sigma2 == pytest.approx(
            ref.distribution.sigma2, rel=1e-12
        )
        info = learner.partial_accuracy(state, confidence=0.9)
        assert info.sample_size == 6
        assert info.mean.confidence == 0.9
        mean, variance, count = learner.partial_moments(state)
        assert (mean, count) == (dist.mu, 6)
        assert variance == pytest.approx(dist.sigma2, rel=1e-12)

    def test_needs_two_observations(self):
        learner = GaussianLearner()
        state = learner.partial_begin()
        learner.partial_add(state, 1.0)
        with pytest.raises(LearningError, match="at least 2"):
            learner.partial_distribution(state)

    def test_rejects_invalid_observations(self):
        learner = GaussianLearner()
        state = learner.partial_begin()
        with pytest.raises(LearningError):
            learner.partial_add(state, float("nan"))
        with pytest.raises(LearningError):
            learner.partial_evict(state, True)


class TestHistogramPartial:
    def test_requires_fixed_edges(self):
        free = HistogramLearner()  # data-dependent equi-width
        assert free.supports_partial is False
        with pytest.raises(LearningError, match="fixed bucket edges"):
            free.partial_begin()
        depth = HistogramLearner(strategy="equi_depth")
        assert depth.supports_partial is False

    def test_value_range_pins_edges(self):
        learner = HistogramLearner(
            bucket_count=4, value_range=(0.0, 8.0)
        )
        assert learner.supports_partial is True
        state = learner.partial_begin()
        assert list(state.edges) == [0.0, 2.0, 4.0, 6.0, 8.0]

    def test_counts_and_clamping_match_learn(self):
        edges = [0.0, 1.0, 2.0, 3.0]
        learner = HistogramLearner(edges=edges)
        state = learner.partial_begin()
        values = [-5.0, 0.5, 1.0, 2.0, 3.0, 99.0]  # under/overflow clamp
        for x in values:
            learner.partial_add(state, x)
        ref = learner.learn(values).distribution
        dist = learner.partial_distribution(state)
        assert list(dist.probabilities) == list(ref.probabilities)
        assert state.counts == [2, 1, 3]

    def test_evict_updates_counts(self):
        learner = HistogramLearner(edges=[0.0, 1.0, 2.0])
        state = learner.partial_begin()
        learner.partial_add(state, 0.5)
        learner.partial_add(state, 1.5)
        learner.partial_evict(state, 0.5)
        assert state.counts == [0, 1]
        with pytest.raises(LearningError, match="not in the window"):
            learner.partial_evict(state, 0.5)

    def test_accuracy_includes_bin_intervals(self):
        learner = HistogramLearner(edges=[0.0, 5.0, 10.0])
        state = learner.partial_begin()
        for x in (1.0, 2.0, 6.0, 7.0, 9.0):
            learner.partial_add(state, x)
        info = learner.partial_accuracy(state)
        assert len(info.bins) == 2
        assert info.sample_size == 5

    def test_empty_distribution_raises(self):
        learner = HistogramLearner(edges=[0.0, 1.0])
        state = learner.partial_begin()
        with pytest.raises(LearningError, match="at least 1"):
            learner.partial_distribution(state)


class TestMakeRollingLearner:
    def test_gaussian_accepted(self):
        learner = make_rolling_learner("gaussian")
        assert isinstance(learner, GaussianLearner)

    def test_histogram_needs_edges(self):
        with pytest.raises(LearningError, match="incremental"):
            make_rolling_learner("histogram")
        learner = make_rolling_learner("histogram", edges=[0.0, 1.0, 2.0])
        assert isinstance(learner, HistogramLearner)

    def test_non_incremental_learners_rejected(self):
        for name in ("empirical", "kde"):
            with pytest.raises(LearningError, match="incremental"):
                make_rolling_learner(name)
        assert EmpiricalLearner().supports_partial is False
        assert KdeLearner().supports_partial is False

    def test_unknown_name(self):
        with pytest.raises(LearningError, match="unknown learner"):
            make_rolling_learner("nope")
