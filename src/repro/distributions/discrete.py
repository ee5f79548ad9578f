"""Finite discrete distributions over arbitrary numeric support points."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.distributions.base import Distribution
from repro.errors import DistributionError

__all__ = ["DiscreteDistribution"]


class DiscreteDistribution(Distribution):
    """P[X = v_i] = p_i over a finite set of support points.

    Support points are deduplicated and sorted; probabilities of duplicate
    points are merged, and the vector is normalised to sum to one.
    """

    __slots__ = ("support", "probabilities", "_cum")

    def __init__(
        self, support: Sequence[float], probabilities: Sequence[float]
    ) -> None:
        values = np.asarray(support, dtype=float).ravel()
        probs = np.asarray(probabilities, dtype=float).ravel()
        if values.size != probs.size:
            raise DistributionError(
                f"support and probabilities differ in length: "
                f"{values.size} vs {probs.size}"
            )
        if values.size == 0:
            raise DistributionError("discrete distribution needs >= 1 point")
        if np.any(probs < 0):
            raise DistributionError("probabilities must be >= 0")
        total = probs.sum()
        if total <= 0:
            raise DistributionError("probabilities must not all be 0")

        order = np.argsort(values)
        values = values[order]
        probs = probs[order] / total
        # Merge duplicate support points.
        uniq, inverse = np.unique(values, return_inverse=True)
        merged = np.zeros_like(uniq)
        np.add.at(merged, inverse, probs)

        self.support = uniq
        self.probabilities = merged
        self._cum = np.cumsum(merged)
        self._cum[-1] = 1.0

    def mean(self) -> float:
        return float(np.dot(self.support, self.probabilities))

    def variance(self) -> float:
        mu = self.mean()
        return float(np.dot((self.support - mu) ** 2, self.probabilities))

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        return rng.choice(self.support, size=size, p=self.probabilities)

    def cdf(self, x: float) -> float:
        idx = int(np.searchsorted(self.support, x, side="right"))
        if idx == 0:
            return 0.0
        return float(self._cum[idx - 1])

    def prob_less(self, threshold: float) -> float:
        idx = int(np.searchsorted(self.support, threshold, side="left"))
        if idx == 0:
            return 0.0
        return float(self._cum[idx - 1])

    def prob_of(self, value: float) -> float:
        """Point mass P[X = value] (0.0 for values outside the support)."""
        idx = int(np.searchsorted(self.support, value))
        if idx < self.support.size and self.support[idx] == value:
            return float(self.probabilities[idx])
        return 0.0

    @classmethod
    def bernoulli(cls, p: float) -> "DiscreteDistribution":
        """Indicator distribution: P[X=1] = p, P[X=0] = 1-p."""
        if not 0.0 <= p <= 1.0:
            raise DistributionError(f"Bernoulli p must be in [0,1], got {p}")
        return cls([0.0, 1.0], [1.0 - p, p])

    def __repr__(self) -> str:
        return f"DiscreteDistribution({self.support.size} points)"
