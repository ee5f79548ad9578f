"""Maximum-likelihood Gaussian learning.

§V-C's throughput workload learns a Gaussian from 20 raw points per item;
this learner is that step.  The variance uses the unbiased (ddof=1)
estimator so it agrees with the ``s^2`` statistic in Lemma 2.

The learner is also fully incremental: the ``partial_*`` hooks maintain
the fit over a sliding window with Welford add/remove in O(1) per slide
(drift-guarded — see :mod:`repro.learning.partial`), so relearn-per-slide
stream workloads no longer pay O(window) per tuple.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.accuracy import AccuracyInfo
from repro.core.analytic import accuracy_from_moments
from repro.distributions.gaussian import GaussianDistribution
from repro.errors import LearningError
from repro.learning.base import Learner, LearnedDistribution
from repro.learning.partial import DEFAULT_RESUM_INTERVAL, PartialFitState

__all__ = ["GaussianLearner"]


class GaussianLearner(Learner):
    """Fits N(sample mean, unbiased sample variance)."""

    supports_partial = True

    def learn(self, sample: "np.ndarray | list[float]") -> LearnedDistribution:
        arr = self._validated(sample, minimum=2)
        mu = float(arr.mean())
        sigma2 = float(arr.var(ddof=1))
        return LearnedDistribution(GaussianDistribution(mu, sigma2), arr)

    # -- incremental hooks ---------------------------------------------------

    def partial_begin(
        self, resum_interval: int | None = None
    ) -> PartialFitState:
        if resum_interval is None:
            resum_interval = DEFAULT_RESUM_INTERVAL
        return PartialFitState(resum_interval)

    def partial_add(self, state: PartialFitState, x: float) -> None:
        state.add(self._validated_observation(x))

    def partial_evict(self, state: PartialFitState, x: float) -> None:
        state.evict(self._validated_observation(x))

    def partial_snapshot(
        self, state: PartialFitState
    ) -> tuple[float, float, int]:
        if state.count < 2:
            raise LearningError(
                f"need at least 2 observations, got {state.count}"
            )
        return self.partial_moments(state)

    def partial_emissions(
        self,
        snapshots: Sequence[tuple[float, float, int]],
        confidence: float | None,
    ) -> tuple[list[GaussianDistribution], tuple[AccuracyInfo, ...] | None]:
        distributions = [
            GaussianDistribution(mean, variance)
            for mean, variance, _ in snapshots
        ]
        if confidence is None:
            return distributions, None
        means, variances, sizes = zip(*snapshots)
        return distributions, accuracy_from_moments(
            means, variances, sizes, confidence
        )

    def partial_moments(
        self, state: PartialFitState
    ) -> tuple[float, float, int]:
        return state.mean, state.variance, state.count
