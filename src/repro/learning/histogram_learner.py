"""Histogram learning — the paper's default representation (§II-B).

Supports equi-width bucketing (fixed-width buckets over the sample range
or a caller-supplied range) and equi-depth bucketing (buckets hold roughly
equal numbers of observations).  Callers may also pin the edges entirely,
which the experiments use so that the "true" histogram (from the large
sample) and the learned one (from the small sample) share buckets.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence

import numpy as np

from repro.core.accuracy import AccuracyInfo
from repro.core.analytic import accuracy_from_moments, histograms_accuracy
from repro.distributions.histogram import HistogramDistribution
from repro.errors import LearningError
from repro.learning.base import Learner, LearnedDistribution
from repro.learning.partial import DEFAULT_RESUM_INTERVAL, PartialFitState

__all__ = ["equi_width_edges", "equi_depth_edges", "HistogramLearner"]


class _HistogramPartial(PartialFitState):
    """Rolling histogram state: bin counts + Welford sample moments.

    Bin counts are integers, so increment/decrement are exact; the
    inherited Welford moments (for the Lemma-2 mean/variance intervals)
    carry the drift guard.
    """

    __slots__ = ("edges", "_edge_list", "counts")

    def __init__(self, edges: np.ndarray, resum_interval: int) -> None:
        super().__init__(resum_interval)
        self.edges = edges
        self._edge_list = [float(e) for e in edges]
        self.counts = [0] * (len(edges) - 1)

    @property
    def nbytes(self) -> int:
        return (
            super().nbytes
            + self.edges.nbytes
            + 32 * len(self._edge_list)
            + 40 * len(self.counts)
        )

    def bin_index(self, x: float) -> int:
        """Bucket of ``x`` under ``np.histogram`` semantics, after clamping.

        Bins are half-open ``[e_i, e_{i+1})`` with the last bin closed;
        out-of-range observations clamp into the first/last bin (same as
        :meth:`HistogramLearner.learn` with explicit edges).
        """
        edge_list = self._edge_list
        index = bisect_right(edge_list, x) - 1
        if index < 0:
            return 0
        last = len(edge_list) - 2
        return last if index > last else index


def equi_width_edges(
    sample: np.ndarray, bucket_count: int,
    value_range: tuple[float, float] | None = None,
) -> np.ndarray:
    """Evenly spaced bucket edges over the sample (or given) range.

    A degenerate range (all observations equal) is widened by one unit so
    the histogram still has positive-width buckets.
    """
    if bucket_count < 1:
        raise LearningError(f"bucket count must be >= 1, got {bucket_count}")
    if value_range is None:
        lo, hi = float(sample.min()), float(sample.max())
    else:
        lo, hi = value_range
    if hi <= lo:
        lo, hi = lo - 0.5, lo + 0.5
    return np.linspace(lo, hi, bucket_count + 1)


def equi_depth_edges(sample: np.ndarray, bucket_count: int) -> np.ndarray:
    """Bucket edges at evenly spaced sample quantiles.

    Duplicate quantiles (heavy ties) are collapsed, so the result may have
    fewer buckets than requested; at least one bucket always survives.
    """
    if bucket_count < 1:
        raise LearningError(f"bucket count must be >= 1, got {bucket_count}")
    quantiles = np.linspace(0.0, 1.0, bucket_count + 1)
    edges = np.quantile(sample, quantiles)
    edges = np.unique(edges)
    if edges.size < 2:
        value = float(edges[0]) if edges.size else 0.0
        edges = np.array([value - 0.5, value + 0.5])
    return edges


class HistogramLearner(Learner):
    """Learns a :class:`HistogramDistribution` from a sample.

    Parameters
    ----------
    bucket_count:
        Number of buckets (ignored when ``edges`` is given).
    strategy:
        ``"equi_width"`` or ``"equi_depth"``.
    edges:
        Explicit bucket edges; observations outside are clamped into the
        first/last bucket.
    value_range:
        Optional fixed (lo, hi) range for equi-width bucketing, letting
        histograms of different samples share a bucketisation.
    """

    def __init__(
        self,
        bucket_count: int = 10,
        strategy: str = "equi_width",
        edges: Sequence[float] | None = None,
        value_range: tuple[float, float] | None = None,
    ) -> None:
        if strategy not in ("equi_width", "equi_depth"):
            raise LearningError(f"unknown bucketing strategy {strategy!r}")
        if bucket_count < 1:
            raise LearningError(
                f"bucket count must be >= 1, got {bucket_count}"
            )
        self.bucket_count = bucket_count
        self.strategy = strategy
        self.edges = None if edges is None else np.asarray(edges, dtype=float)
        self.value_range = value_range

    def learn(self, sample: "np.ndarray | list[float]") -> LearnedDistribution:
        arr = self._validated(sample, minimum=1)
        if self.edges is not None:
            edges = self.edges
        elif self.strategy == "equi_width":
            edges = equi_width_edges(arr, self.bucket_count, self.value_range)
        else:
            edges = equi_depth_edges(arr, self.bucket_count)
        clamped = np.clip(arr, edges[0], edges[-1])
        counts, _ = np.histogram(clamped, bins=edges)
        if counts.sum() == 0:
            raise LearningError("no observations fell into any bucket")
        histogram = HistogramDistribution.from_counts(edges, counts)
        return LearnedDistribution(histogram, arr)

    # -- incremental hooks ---------------------------------------------------

    def fixed_edges(self) -> np.ndarray | None:
        """The bucket edges when they are knowable without a sample.

        Explicit ``edges`` win; equi-width bucketing with a pinned
        ``value_range`` is also fixed.  Data-dependent bucketisations
        (range-free equi-width, equi-depth) return ``None`` — they
        cannot be maintained incrementally.
        """
        if self.edges is not None:
            return self.edges
        if self.strategy == "equi_width" and self.value_range is not None:
            return equi_width_edges(
                np.empty(0), self.bucket_count, self.value_range
            )
        return None

    @property
    def supports_partial(self) -> bool:  # type: ignore[override]
        """Incremental maintenance needs fixed bucket edges."""
        return self.fixed_edges() is not None

    def partial_begin(
        self, resum_interval: int | None = None
    ) -> _HistogramPartial:
        edges = self.fixed_edges()
        if edges is None:
            raise LearningError(
                "incremental histogram learning needs fixed bucket edges: "
                "pass edges=... or strategy='equi_width' with value_range=..."
            )
        if resum_interval is None:
            resum_interval = DEFAULT_RESUM_INTERVAL
        return _HistogramPartial(edges, resum_interval)

    def partial_add(self, state: _HistogramPartial, x: float) -> None:
        value = self._validated_observation(x)
        state.add(value)
        state.counts[state.bin_index(value)] += 1

    def partial_evict(self, state: _HistogramPartial, x: float) -> None:
        value = self._validated_observation(x)
        state.evict(value)  # raises if the value is not in the window
        index = state.bin_index(value)
        state.counts[index] -= 1

    def partial_snapshot(self, state: _HistogramPartial) -> tuple:
        """``(edges, counts, mean, variance or None, count)``."""
        if state.count < 1:
            raise LearningError("need at least 1 observation, got 0")
        variance = state.variance if state.count >= 2 else None
        return (
            state.edges, tuple(state.counts), state.mean, variance,
            state.count,
        )

    def partial_emissions(
        self, snapshots: Sequence[tuple], confidence: float | None
    ) -> tuple[list[HistogramDistribution], tuple[AccuracyInfo, ...] | None]:
        histograms = [
            HistogramDistribution.from_counts(edges, counts)
            for edges, counts, _, _, _ in snapshots
        ]
        if confidence is None:
            return histograms, None
        _, _, means, variances, sizes = zip(*snapshots)
        if min(sizes) < 2:
            raise LearningError(
                f"sample variance needs >= 2 observations, got {min(sizes)}"
            )
        return histograms, accuracy_from_moments(
            means,
            variances,
            sizes,
            confidence,
            bins=histograms_accuracy(histograms, sizes, confidence),
        )

    def partial_moments(
        self, state: _HistogramPartial
    ) -> tuple[float, float, int]:
        return state.mean, state.variance, state.count
