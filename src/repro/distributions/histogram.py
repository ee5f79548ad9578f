"""Histogram distributions — the workhorse representation of the paper.

A histogram has the form ``{(b_i, p_i) | 1 <= i <= b}`` where each bucket
``b_i`` is a half-open interval ``[lo, hi)`` of values and ``p_i`` is its
probability.  The paper (§II-B) generalises each ``p_i`` to a confidence
interval; that annotation lives in :mod:`repro.core.accuracy` and is
*attached to* a histogram, leaving this class a pure distribution.

Within a bucket, mass is assumed uniform, which gives closed forms for the
mean, variance, cdf, and sampling.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.distributions.base import Distribution
from repro.errors import DistributionError

__all__ = ["HistogramDistribution"]

_PROB_TOLERANCE = 1e-9


class HistogramDistribution(Distribution):
    """A piecewise-uniform distribution over contiguous buckets.

    Parameters
    ----------
    edges:
        Finite, strictly increasing bucket boundaries;
        ``len(edges) == b + 1`` for ``b`` buckets.
    probabilities:
        Per-bucket probabilities.  They are normalised to sum to one (the
        paper's "implicit normalization step"), but must be finite,
        non-negative and not all zero.
    """

    __slots__ = ("edges", "probabilities", "_cum")

    def __init__(
        self,
        edges: Sequence[float],
        probabilities: Sequence[float],
    ) -> None:
        edges_arr = np.asarray(edges, dtype=float)
        probs_arr = np.asarray(probabilities, dtype=float)
        if edges_arr.ndim != 1 or probs_arr.ndim != 1:
            raise DistributionError("edges and probabilities must be 1-D")
        if len(edges_arr) != len(probs_arr) + 1:
            raise DistributionError(
                f"need len(edges) == len(probabilities) + 1, got "
                f"{len(edges_arr)} edges for {len(probs_arr)} buckets"
            )
        if len(probs_arr) == 0:
            raise DistributionError("histogram needs at least one bucket")
        # NaN fails every comparison, so the checks below also reject
        # NaN edges and probabilities; finite end edges of a strictly
        # increasing sequence bound every edge.
        if not (edges_arr[1:] > edges_arr[:-1]).all():
            raise DistributionError("edges must be strictly increasing")
        if not (math.isfinite(edges_arr[0]) and math.isfinite(edges_arr[-1])):
            raise DistributionError("edges must be finite")
        if (probs_arr < -_PROB_TOLERANCE).any():
            raise DistributionError("bucket probabilities must be >= 0")
        probs_arr = np.maximum(probs_arr, 0.0)
        total = probs_arr.sum()
        if not 0 < total < math.inf:
            raise DistributionError(
                "bucket probabilities must not all be 0"
                if total == 0
                else "bucket probabilities must be finite"
            )
        self.edges = edges_arr
        self.probabilities = probs_arr / total
        self._cum = np.concatenate(([0.0], np.cumsum(self.probabilities)))
        # Guard against floating-point drift in the final cumulative value.
        self._cum[-1] = 1.0

    # -- basic accessors ---------------------------------------------------

    @property
    def bucket_count(self) -> int:
        """Number of buckets ``b``."""
        return len(self.probabilities)

    def bucket_bounds(self, i: int) -> tuple[float, float]:
        """``[lo, hi)`` bounds of bucket ``i`` (0-based)."""
        return float(self.edges[i]), float(self.edges[i + 1])

    def bucket_index(self, x: float) -> int:
        """Index of the bucket containing ``x``.

        Values below the support map to bucket 0 and values at or above the
        last edge map to the last bucket; this matches how learners assign
        out-of-range observations when a histogram is reused as a template.
        """
        idx = int(np.searchsorted(self.edges, x, side="right")) - 1
        return min(max(idx, 0), self.bucket_count - 1)

    # -- Distribution interface --------------------------------------------

    def mean(self) -> float:
        mids = (self.edges[:-1] + self.edges[1:]) / 2.0
        return float(np.dot(mids, self.probabilities))

    def variance(self) -> float:
        lo = self.edges[:-1]
        hi = self.edges[1:]
        # E[X^2] for a uniform on [lo, hi) is (lo^2 + lo*hi + hi^2) / 3.
        second = (lo * lo + lo * hi + hi * hi) / 3.0
        ex2 = float(np.dot(second, self.probabilities))
        mu = self.mean()
        return max(ex2 - mu * mu, 0.0)

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        buckets = rng.choice(
            self.bucket_count, size=size, p=self.probabilities
        )
        lo = self.edges[buckets]
        hi = self.edges[buckets + 1]
        return lo + rng.random(size) * (hi - lo)

    def cdf(self, x: float) -> float:
        if x <= self.edges[0]:
            return 0.0
        if x >= self.edges[-1]:
            return 1.0
        i = int(np.searchsorted(self.edges, x, side="right")) - 1
        i = min(i, self.bucket_count - 1)
        lo, hi = self.edges[i], self.edges[i + 1]
        within = (x - lo) / (hi - lo)
        return float(self._cum[i] + within * self.probabilities[i])

    def quantile(self, q: float) -> float:
        """Inverse cdf by linear interpolation within the bucket."""
        if not 0.0 <= q <= 1.0:
            raise DistributionError(
                f"quantile level must be in [0,1], got {q}"
            )
        if q <= 0.0:
            return float(self.edges[0])
        if q >= 1.0:
            return float(self.edges[-1])
        idx = int(np.searchsorted(self._cum, q, side="left")) - 1
        idx = min(max(idx, 0), self.bucket_count - 1)
        # Skip zero-probability buckets whose cumulative equals q.
        while idx < self.bucket_count - 1 and self.probabilities[idx] == 0.0:
            idx += 1
        lo, hi = self.edges[idx], self.edges[idx + 1]
        mass = self.probabilities[idx]
        if mass == 0.0:
            return float(lo)
        within = (q - self._cum[idx]) / mass
        return float(lo + within * (hi - lo))

    # -- convenience constructors ------------------------------------------

    @classmethod
    def from_counts(
        cls, edges: Sequence[float], counts: Sequence[int]
    ) -> "HistogramDistribution":
        """Build a histogram from raw observation counts per bucket."""
        counts_arr = np.asarray(counts, dtype=float)
        if np.any(counts_arr < 0):
            raise DistributionError("counts must be non-negative")
        return cls(edges, counts_arr)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HistogramDistribution)
            and np.array_equal(other.edges, self.edges)
            and np.allclose(other.probabilities, self.probabilities)
        )

    def __hash__(self) -> int:
        return hash(
            ("HistogramDistribution", self.edges.tobytes(),
             self.probabilities.tobytes())
        )

    def __repr__(self) -> str:
        return (
            f"HistogramDistribution({self.bucket_count} buckets on "
            f"[{self.edges[0]:.4g}, {self.edges[-1]:.4g}))"
        )
