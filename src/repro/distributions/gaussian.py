"""Gaussian distributions with the closed-form arithmetic the paper relies on.

§V-C's throughput experiment learns Gaussians from raw points and runs a
sliding-window AVG whose result is again a Gaussian; that needs exact
affine arithmetic on independent Gaussians, implemented here.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np
from scipy import stats

from repro.distributions.base import Distribution
from repro.errors import DistributionError

__all__ = ["GaussianDistribution"]


class GaussianDistribution(Distribution):
    """A normal distribution N(mu, sigma^2)."""

    __slots__ = ("mu", "sigma2")

    def __init__(self, mu: float, sigma2: float) -> None:
        if sigma2 < 0:
            raise DistributionError(f"variance must be >= 0, got {sigma2}")
        if not (np.isfinite(mu) and np.isfinite(sigma2)):
            raise DistributionError("Gaussian parameters must be finite")
        self.mu = float(mu)
        self.sigma2 = float(sigma2)

    def mean(self) -> float:
        return self.mu

    def variance(self) -> float:
        return self.sigma2

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        return rng.normal(self.mu, np.sqrt(self.sigma2), size)

    def cdf(self, x: float) -> float:
        if self.sigma2 == 0.0:
            return 1.0 if x >= self.mu else 0.0
        # erfc-based normal cdf: exact, and far cheaper than the
        # scipy.stats front-end on the per-tuple stream path.
        z = (x - self.mu) / math.sqrt(2.0 * self.sigma2)
        return 0.5 * math.erfc(-z)

    def prob_less(self, threshold: float) -> float:
        if self.sigma2 == 0.0:  # a point mass at mu
            return 1.0 if threshold > self.mu else 0.0
        return self.cdf(threshold)

    def quantile(self, q: float) -> float:
        """Inverse cdf."""
        if not 0.0 <= q <= 1.0:
            raise DistributionError(f"quantile level must be in [0,1], got {q}")
        return float(stats.norm.ppf(q, loc=self.mu, scale=math.sqrt(self.sigma2)))

    # -- exact arithmetic on independent Gaussians ---------------------------

    def shifted(self, constant: float) -> "GaussianDistribution":
        """X + c."""
        return GaussianDistribution(self.mu + constant, self.sigma2)

    def scaled(self, factor: float) -> "GaussianDistribution":
        """c * X."""
        return GaussianDistribution(
            self.mu * factor, self.sigma2 * factor * factor
        )

    def plus(self, other: "GaussianDistribution") -> "GaussianDistribution":
        """X + Y for independent Gaussians."""
        return GaussianDistribution(
            self.mu + other.mu, self.sigma2 + other.sigma2
        )

    def minus(self, other: "GaussianDistribution") -> "GaussianDistribution":
        """X - Y for independent Gaussians."""
        return GaussianDistribution(
            self.mu - other.mu, self.sigma2 + other.sigma2
        )

    @staticmethod
    def average(
        gaussians: Sequence["GaussianDistribution"],
    ) -> "GaussianDistribution":
        """AVG of independent Gaussians — the sliding-window AVG result.

        For independent X_1..X_k, mean(X) ~ N(mean(mu_i), sum(sigma2_i)/k^2).
        """
        if not gaussians:
            raise DistributionError("average of zero Gaussians is undefined")
        k = len(gaussians)
        mu = sum(g.mu for g in gaussians) / k
        sigma2 = sum(g.sigma2 for g in gaussians) / (k * k)
        return GaussianDistribution(mu, sigma2)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GaussianDistribution)
            and other.mu == self.mu
            and other.sigma2 == self.sigma2
        )

    def __hash__(self) -> int:
        return hash(("GaussianDistribution", self.mu, self.sigma2))

    def __repr__(self) -> str:
        return f"GaussianDistribution(mu={self.mu:.4g}, sigma2={self.sigma2:.4g})"
