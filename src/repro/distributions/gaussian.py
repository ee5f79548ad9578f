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

__all__ = ["GaussianDistribution", "tail_probabilities"]


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


def tail_probabilities(
    mu: np.ndarray, sigma2: np.ndarray, op: str, c: "float | np.ndarray"
) -> np.ndarray:
    """``P[X op c]`` per row of ``(mu, sigma2)`` Gaussian columns.

    The array twin of the query layer's tail probability: ``>`` is
    :meth:`~repro.distributions.base.Distribution.prob_greater`, ``>=``
    is ``1 - prob_less``, ``<`` is :meth:`GaussianDistribution.prob_less`
    and ``<=`` is :meth:`GaussianDistribution.cdf`.  Every row equals
    the scalar method bit for bit: the arithmetic is the same, and the
    ``erfc`` is the scalar's own ``math.erfc`` mapped over the array
    (``scipy.special.erfc`` differs from it by a few ulp).  Zero-variance
    rows are point masses, as in the scalar methods, which makes the
    kernel the twin of :class:`~repro.distributions.base.Deterministic`
    too when ``sigma2`` is zero.
    """
    mu, sigma2, c = np.broadcast_arrays(
        np.asarray(mu, dtype=np.float64),
        np.asarray(sigma2, dtype=np.float64),
        np.asarray(c, dtype=np.float64),
    )
    if op in (">", "<="):
        point_cdf = c >= mu  # cdf of a point mass
    elif op in (">=", "<"):
        point_cdf = c > mu  # prob_less of a point mass
    else:
        raise DistributionError(f"no tail probability for operator {op!r}")
    spread = sigma2 > 0.0
    cdf = point_cdf.astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        z = (c[spread] - mu[spread]) / np.sqrt(2.0 * sigma2[spread])
    cdf[spread] = 0.5 * np.fromiter(
        map(math.erfc, (-z).tolist()), dtype=np.float64, count=z.size
    )
    return 1.0 - cdf if op in (">", ">=") else cdf
