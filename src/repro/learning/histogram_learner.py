"""Histogram learning — the paper's default representation (§II-B).

Supports equi-width bucketing (fixed-width buckets over the sample range
or a caller-supplied range) and equi-depth bucketing (buckets hold roughly
equal numbers of observations).  Callers may also pin the edges entirely,
which the experiments use so that the "true" histogram (from the large
sample) and the learned one (from the small sample) share buckets.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence

import numpy as np

from repro.core.accuracy import AccuracyInfo
from repro.core.analytic import accuracy_from_moments, histograms_accuracy
from repro.core.dfsample import DfSized
from repro.distributions.histogram import (
    HistogramDistribution,
    histograms_from_counts,
)
from repro.errors import DistributionError, LearningError
from repro.learning.base import Learner, LearnedDistribution
from repro.learning.partial import DEFAULT_RESUM_INTERVAL, PartialFitState

__all__ = [
    "bucket_indices",
    "equi_width_edges",
    "equi_depth_edges",
    "HistogramLearner",
]


def bucket_indices(values: np.ndarray, interior: np.ndarray) -> np.ndarray:
    """Bucket of every value under ``np.histogram``'s rule, after clamping.

    Buckets are half-open ``[e_i, e_{i+1})`` with the last one closed,
    and values outside the edges clamp into the first or last bucket:
    the bucket of ``x`` is the number of interior edges ``e_1 .. e_{b-1}``
    that are ``<= x``.  ``interior`` is one sorted row shared by every
    value, or one row per value (shape ``(len(values), b - 1)``).
    """
    if interior.ndim == 1:
        return np.searchsorted(interior, values, side="right")
    return (values[:, None] >= interior).sum(axis=1)


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
        """Bucket of ``x``: :func:`bucket_indices`'s rule for one value."""
        edge_list = self._edge_list
        return bisect_right(edge_list, x, 1, len(edge_list) - 1) - 1


def equi_width_edges(
    sample: np.ndarray, bucket_count: int,
    value_range: tuple[float, float] | None = None,
) -> np.ndarray:
    """Evenly spaced bucket edges over the sample (or given) range.

    A degenerate range (all observations equal) is widened by one unit so
    the histogram still has positive-width buckets.  A range whose edges
    would not be finite and strictly increasing (a span that overflows,
    or one too narrow for its floats) raises :class:`LearningError`.
    """
    if bucket_count < 1:
        raise LearningError(f"bucket count must be >= 1, got {bucket_count}")
    if value_range is None:
        lo, hi = float(sample.min()), float(sample.max())
    else:
        lo, hi = value_range
    if hi <= lo:
        lo, hi = lo - 0.5, lo + 0.5
    if math.isfinite(float(hi) - float(lo)):
        edges = np.linspace(lo, hi, bucket_count + 1)
        if (edges[1:] > edges[:-1]).all():
            return edges
    raise LearningError(
        f"cannot cut the range [{float(lo)!r}, {float(hi)!r}] into "
        f"{bucket_count} equi-width buckets with finite, strictly "
        f"increasing edges"
    )


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
        if edges is not None:
            edges = np.asarray(edges, dtype=float)
            if not (
                edges.ndim == 1
                and edges.size >= 2
                and np.isfinite(edges).all()
                and (edges[1:] > edges[:-1]).all()
            ):
                raise LearningError(
                    "explicit edges must be at least two finite, strictly "
                    "increasing values"
                )
        self.bucket_count = bucket_count
        self.strategy = strategy
        self.edges = edges
        self.value_range = value_range

    def _edges(self, arr: np.ndarray) -> np.ndarray:
        """The bucket edges ``learn`` cuts one validated sample into."""
        fixed = self.fixed_edges()
        if fixed is not None:
            return fixed
        if self.strategy == "equi_width":
            return equi_width_edges(arr, self.bucket_count)
        return equi_depth_edges(arr, self.bucket_count)

    def learn(self, sample: "np.ndarray | list[float]") -> LearnedDistribution:
        arr = self._validated(sample, minimum=1)
        edges = self._edges(arr)
        counts = np.bincount(
            bucket_indices(arr, edges[1:-1]), minlength=len(edges) - 1
        )
        histogram = HistogramDistribution.from_counts(edges, counts)
        return LearnedDistribution(histogram, arr)

    def learn_many(self, samples: Sequence) -> list[DfSized]:
        """:meth:`learn` of every sample, counted in one array pass.

        Each result equals ``learn(sample).as_dfsized()`` pickle for
        pickle.  Equi-width edges of every sample come from one
        ``np.linspace`` over the per-sample ranges; explicit edges and a
        pinned ``value_range`` are shared; equi-depth edges are cut per
        sample.  When the batch holds a sample ``learn`` would reject,
        the samples are learned one by one, so the error is ``learn``'s,
        raised at the first failing sample.
        """
        samples = list(samples)
        try:
            arrays = [np.asarray(s, dtype=float).ravel() for s in samples]
        except (TypeError, ValueError):
            return super().learn_many(samples)
        if not arrays:
            return []
        sizes = [a.size for a in arrays]
        values = np.concatenate(arrays)
        if min(sizes) < 1 or not np.isfinite(values).all():
            return super().learn_many(samples)
        fixed = self.fixed_edges()
        if fixed is not None:
            rows = [fixed] * len(arrays)
            if self.edges is None:  # a fresh linspace per sample, as learn
                rows = list(np.tile(fixed, (len(arrays), 1)))
        elif self.strategy == "equi_width":
            matrix = self._equi_width_rows(values, sizes)
            if matrix is None:
                return super().learn_many(samples)
            rows = list(matrix)
        else:
            rows = [equi_depth_edges(a, self.bucket_count) for a in arrays]
        try:
            histograms = _count_into(values, sizes, rows)
        except DistributionError:
            return super().learn_many(samples)
        return [DfSized(h, size) for h, size in zip(histograms, sizes)]

    def _equi_width_rows(
        self, values: np.ndarray, sizes: list[int]
    ) -> "np.ndarray | None":
        """Every sample's :func:`equi_width_edges`, one row each, or None.

        None when a row's span overflows (``equi_width_edges`` rejects
        it).  A 2-D ``np.linspace`` takes its zero-step branch for every
        row as soon as one row's step underflows to 0, which changes the
        other rows' bits; such a row spans fewer float steps than it has
        buckets, so its edges are not strictly increasing and the batch
        is learned one sample at a time instead.
        """
        starts = np.cumsum([0] + sizes[:-1])
        lo = np.minimum.reduceat(values, starts)
        hi = np.maximum.reduceat(values, starts)
        flat = hi <= lo
        lo, hi = np.where(flat, lo - 0.5, lo), np.where(flat, lo + 0.5, hi)
        with np.errstate(over="ignore"):
            if not np.isfinite(hi - lo).all():
                return None
        return np.ascontiguousarray(
            np.linspace(lo, hi, self.bucket_count + 1, axis=1)
        )

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


def _count_into(
    values: np.ndarray, sizes: list[int], rows: list[np.ndarray]
) -> list[HistogramDistribution]:
    """Histograms of consecutive samples, each counted into its edge row.

    ``values`` holds the samples end to end, ``sizes[i]`` values for
    ``rows[i]``.  Rows of one bucket count share one ``np.bincount``
    over ``(sample, bucket)``; equi-depth rows may differ in count.
    """
    group = np.repeat(np.arange(len(rows)), sizes)
    lengths = np.array([len(row) for row in rows])
    out: list = [None] * len(rows)
    for length in np.unique(lengths).tolist():
        members = np.flatnonzero(lengths == length)
        member_rows = [rows[i] for i in members.tolist()]
        if members.size == len(rows):
            local, member_values = group, values
        else:
            take = lengths[group] == length
            local = np.searchsorted(members, group[take])
            member_values = values[take]
        buckets = length - 1
        interior = np.asarray(member_rows)[:, 1:-1]
        counts = np.bincount(
            local * buckets + bucket_indices(member_values, interior[local]),
            minlength=members.size * buckets,
        ).reshape(members.size, buckets)
        for i, histogram in zip(
            members.tolist(), histograms_from_counts(member_rows, counts)
        ):
            out[i] = histogram
    return out
