"""Sample-backed (empirical) distributions.

An :class:`EmpiricalDistribution` is the distribution of a finite multiset
of observed values.  It is the natural output of Monte-Carlo query
processing (the paper's first query-processing category, §III-B) and the
natural carrier of a raw observation sample: the sample *is* the
distribution, so no information is lost before accuracy analysis.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.distributions.base import Distribution
from repro.errors import DistributionError

__all__ = ["EmpiricalDistribution"]


class EmpiricalDistribution(Distribution):
    """Uniform distribution over a finite sequence of observed values."""

    __slots__ = ("values", "_sorted")

    def __init__(self, values: Sequence[float]) -> None:
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size == 0:
            raise DistributionError("empirical distribution needs >= 1 value")
        if not np.all(np.isfinite(arr)):
            raise DistributionError("empirical values must be finite")
        self.values = arr
        self._sorted = np.sort(arr)

    @property
    def size(self) -> int:
        """Number of backing observations."""
        return int(self.values.size)

    def mean(self) -> float:
        return float(self.values.mean())

    def variance(self) -> float:
        # Population variance of the multiset (ddof=0): this object *is*
        # the distribution, not an estimate of some other one.
        return float(self.values.var(ddof=0))

    def sample_variance(self) -> float:
        """Unbiased (ddof=1) variance — the ``s^2`` statistic of the sample."""
        if self.size < 2:
            return 0.0
        return float(self.values.var(ddof=1))

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        return rng.choice(self.values, size=size, replace=True)

    def cdf(self, x: float) -> float:
        return float(np.searchsorted(self._sorted, x, side="right")) / self.size

    def prob_less(self, threshold: float) -> float:
        return (
            float(np.searchsorted(self._sorted, threshold, side="left"))
            / self.size
        )

    def quantile(self, q: float) -> float:
        """Empirical quantile (linear interpolation between order stats)."""
        if not 0.0 <= q <= 1.0:
            raise DistributionError(f"quantile level must be in [0,1], got {q}")
        return float(np.quantile(self._sorted, q))

    def resample(
        self, rng: np.random.Generator, size: int | None = None
    ) -> "EmpiricalDistribution":
        """A bootstrap resample (with replacement) of the backing values."""
        n = self.size if size is None else size
        return EmpiricalDistribution(self.sample(rng, n))

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return (
            f"EmpiricalDistribution(n={self.size}, mean={self.mean():.4g}, "
            f"std={self.std():.4g})"
        )
