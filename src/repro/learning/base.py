"""Learner protocol and the sample-carrying learned distribution.

The paper's central observation is that once a distribution is learned its
accuracy information is lost *unless the system keeps the link to the
sample*.  :class:`LearnedDistribution` is that link: a distribution plus
the observations it came from, with convenience accessors for the sample
statistics and the analytical accuracy info.
"""

from __future__ import annotations

import abc
import dataclasses
from collections.abc import Sequence

import numpy as np

from repro.core.accuracy import AccuracyInfo
from repro.core.analytic import accuracy_from_sample, distribution_accuracy
from repro.core.dfsample import DfSized
from repro.distributions.base import Distribution
from repro.distributions.histogram import HistogramDistribution
from repro.errors import LearningError

__all__ = ["Learner", "LearnedDistribution"]


@dataclasses.dataclass(frozen=True)
class LearnedDistribution:
    """A distribution bundled with the raw sample it was learned from."""

    distribution: Distribution
    sample: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.sample, dtype=float).ravel()
        if arr.size == 0:
            raise LearningError("learned distribution needs a non-empty sample")
        object.__setattr__(self, "sample", arr)

    @property
    def sample_size(self) -> int:
        return int(self.sample.size)

    def as_dfsized(self) -> DfSized:
        """The (distribution, sample size) pair used by query evaluation."""
        return DfSized(self.distribution, self.sample_size)

    def accuracy(self, confidence: float = 0.95) -> AccuracyInfo:
        """Analytical accuracy info (Lemmas 1 & 2) from the backing sample.

        Mean/variance intervals come from the sample statistics; per-bin
        intervals are included when the learned distribution is a
        histogram.
        """
        if self.sample_size < 2:
            # Fall back to Theorem 1 with the distribution statistics is
            # impossible too (n >= 2 required) — surface a clear error.
            raise LearningError(
                "accuracy requires a sample of size >= 2; "
                f"got {self.sample_size}"
            )
        histogram = (
            self.distribution
            if isinstance(self.distribution, HistogramDistribution)
            else None
        )
        return accuracy_from_sample(self.sample, confidence, histogram)

    def accuracy_from_distribution(
        self, confidence: float = 0.95
    ) -> AccuracyInfo:
        """Theorem-1-style accuracy using the distribution's own moments."""
        return distribution_accuracy(
            self.distribution, self.sample_size, confidence
        )


class Learner(abc.ABC):
    """Learns a distribution from an iid sample of observations.

    :meth:`learn_many` fits many samples at once and returns the
    ``(distribution, sample size)`` pairs queries read; a learner may
    override it with an array pass whose results equal :meth:`learn`'s.
    Besides the batch :meth:`learn`, a learner may support *incremental*
    fitting over a sliding window of observations through the
    ``partial_*`` hooks: :meth:`partial_begin` creates a rolling state
    (a :class:`~repro.learning.partial.PartialFitState`),
    :meth:`partial_add` / :meth:`partial_evict` maintain it in O(1)
    amortized per slide, and the current fit and its Lemma 1/2
    confidence intervals are read without refitting from scratch.
    Reads go in two steps: :meth:`partial_snapshot` detaches what one
    emission needs from the state, and :meth:`partial_emissions` builds
    the distributions and accuracy of a whole batch of snapshots at
    once.  :meth:`partial_distribution` / :meth:`partial_accuracy` are
    the one-snapshot case.  Learners that support this set
    :attr:`supports_partial`; the default hooks raise
    :class:`LearningError`.  See ``docs/ROLLING.md``.
    """

    #: Whether the ``partial_*`` incremental hooks are available.  May be
    #: a per-instance property (``HistogramLearner`` supports them only
    #: with fixed bucket edges).
    supports_partial: bool = False

    #: Whether the rolling state handles sliding-window eviction itself
    #: (bounded-memory sketch synopses: :mod:`repro.learning.sketch`).
    #: When set, the owning operator keeps only a fill counter — no
    #: O(window) value buffer — and calls ``partial_evict(state, None)``
    #: once per expiry; the evicted value is not replayed because the
    #: state expires its own oldest content (FIFO chunk expiry).
    partial_self_evicting: bool = False

    @abc.abstractmethod
    def learn(self, sample: "np.ndarray | list[float]") -> LearnedDistribution:
        """Fit a distribution to the sample; raises LearningError if unfit."""

    def learn_many(self, samples: Sequence) -> list[DfSized]:
        """``learn(sample).as_dfsized()`` of every sample, in order.

        An error is :meth:`learn`'s, raised at the first sample it
        rejects.
        """
        return [self.learn(sample).as_dfsized() for sample in samples]

    # -- incremental (sliding-window) hooks ---------------------------------

    def partial_begin(self, resum_interval: int | None = None) -> object:
        """Create an empty rolling-fit state for a sliding window."""
        raise LearningError(
            f"{type(self).__name__} does not support incremental learning"
        )

    def partial_add(self, state: object, x: float) -> None:
        """Fold one new observation into the rolling state (O(1))."""
        raise LearningError(
            f"{type(self).__name__} does not support incremental learning"
        )

    def partial_evict(self, state: object, x: float) -> None:
        """Remove one previously added observation (O(1) amortized)."""
        raise LearningError(
            f"{type(self).__name__} does not support incremental learning"
        )

    def partial_snapshot(self, state: object) -> object:
        """Detach what one emission reads from the current window.

        The snapshot must not alias anything a later
        :meth:`partial_add` / :meth:`partial_evict` mutates: a rolling
        operator slides a whole batch before it builds the batch's
        emissions from the snapshots.
        """
        raise LearningError(
            f"{type(self).__name__} does not support incremental learning"
        )

    def partial_emissions(
        self, snapshots: Sequence[object], confidence: float | None
    ) -> tuple[list[object], "tuple[AccuracyInfo, ...] | None"]:
        """Distributions and Lemma 1/2 accuracy of a batch of snapshots.

        ``snapshots`` is non-empty.  Returns ``(distributions, infos)``,
        one entry per snapshot;
        ``infos`` is ``None`` when ``confidence`` is ``None``.  Row ``i``
        depends on ``snapshots[i]`` alone, so a batch equals its rows
        read one at a time.
        """
        raise LearningError(
            f"{type(self).__name__} does not support incremental learning"
        )

    def partial_distribution(self, state: object) -> "object":
        """The distribution currently fit to the window."""
        distributions, _ = self.partial_emissions(
            [self.partial_snapshot(state)], None
        )
        return distributions[0]

    def partial_accuracy(
        self, state: object, confidence: float = 0.95
    ) -> AccuracyInfo:
        """Lemma 1/2 accuracy of the current fit (analytic intervals)."""
        _, infos = self.partial_emissions(
            [self.partial_snapshot(state)], confidence
        )
        return infos[0]

    def partial_moments(self, state: object) -> tuple[float, float, int]:
        """``(sample mean, unbiased variance, n)`` of the current window."""
        raise LearningError(
            f"{type(self).__name__} does not support incremental learning"
        )

    @staticmethod
    def _validated_observation(x: object) -> float:
        """Check one incremental observation the way ``learn`` checks many."""
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise LearningError(
                f"observations must be real numbers, got {type(x).__name__}"
            )
        value = float(x)
        if not np.isfinite(value):
            raise LearningError("observations must be finite")
        return value

    @staticmethod
    def _validated(sample: "np.ndarray | list[float]", minimum: int = 1
                   ) -> np.ndarray:
        arr = np.asarray(sample, dtype=float).ravel()
        if arr.size < minimum:
            raise LearningError(
                f"need at least {minimum} observations, got {arr.size}"
            )
        if not np.all(np.isfinite(arr)):
            raise LearningError("observations must be finite")
        return arr
