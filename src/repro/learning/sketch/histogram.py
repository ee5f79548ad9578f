"""Bounded-bucket probabilistic-histogram synopsis.

A histogram over *pinned* bucket edges is the rare synopsis that is both
bounded and exact: per-bucket counts are integers, so bin probabilities
carry no synopsis error at all and ``merge`` is element-wise addition —
exactly associative and commutative (cf. Cormode & Garofalakis,
*Histograms and Wavelets on Probabilistic Data*).  The approximation
enters in two quantified places only:

* **Moments.**  The synopsis forgets where inside a bucket each value
  fell, so mean/variance read off bucket midpoints err by at most half
  the widest bucket (:attr:`HistogramSynopsis.value_error`) per value.
  (The sliding-window wrapper keeps exact per-chunk Welford moments, so
  this bound is only needed when the synopsis stands alone.)
* **Clamping.**  Observations outside the pinned range are folded into
  the nearest end bucket and counted; the fraction clamped is the
  probability-unit error :attr:`HistogramSynopsis.epsilon` on bin
  heights.

Edges must match for two synopses to merge; the learner layer pins them
at construction time, which is the same restriction the exact
``HistogramLearner`` already imposes for its incremental path.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import LearningError

__all__ = ["HistogramSynopsis"]


class HistogramSynopsis:
    """Integer bucket counts over fixed edges, with clamping accounting."""

    __slots__ = ("edges", "counts", "n", "clamped", "minimum", "maximum")

    def __init__(self, edges: "np.ndarray | list[float]") -> None:
        arr = np.asarray(edges, dtype=np.float64).ravel()
        if arr.size < 2:
            raise LearningError(
                f"histogram synopsis needs >= 2 edges, got {arr.size}"
            )
        if not np.all(np.isfinite(arr)):
            raise LearningError("histogram synopsis edges must be finite")
        if not np.all(np.diff(arr) > 0):
            raise LearningError(
                "histogram synopsis edges must be strictly increasing"
            )
        self.edges = arr
        self.counts = np.zeros(arr.size - 1, dtype=np.int64)
        self.n = 0
        #: How many observations fell outside [edges[0], edges[-1]] and
        #: were folded into the end buckets.
        self.clamped = 0
        self.minimum = np.inf
        self.maximum = -np.inf

    @property
    def n_bins(self) -> int:
        return self.counts.size

    def update(self, x: float, count: int = 1) -> None:
        if not math.isfinite(x):
            raise LearningError(f"sketch observations must be finite, got {x}")
        if x < self.edges[0] or x > self.edges[-1]:
            self.clamped += count
        index = int(np.searchsorted(self.edges, x, side="right")) - 1
        index = min(max(index, 0), self.n_bins - 1)
        self.counts[index] += count
        self.n += count
        if x < self.minimum:
            self.minimum = x
        if x > self.maximum:
            self.maximum = x

    # -- error model ---------------------------------------------------------

    @property
    def epsilon(self) -> float:
        """Probability-unit error on bin heights: the clamped fraction.

        In-range observations land in their exact bucket, so bin heights
        are exact up to the mass that arrived outside the pinned range.
        """
        return self.clamped / self.n if self.n else 0.0

    @property
    def value_error(self) -> float:
        """Per-value error of midpoint-based moment estimates."""
        return float(np.diff(self.edges).max()) / 2.0

    # -- estimates -----------------------------------------------------------

    def probabilities(self) -> np.ndarray:
        if self.n == 0:
            raise LearningError("probabilities of an empty synopsis")
        return self.counts / self.n

    # -- merge ---------------------------------------------------------------

    def merge(self, other: "HistogramSynopsis") -> "HistogramSynopsis":
        """Element-wise count sum: exactly associative and commutative."""
        if not isinstance(other, HistogramSynopsis):
            raise LearningError(
                f"cannot merge HistogramSynopsis with {type(other).__name__}"
            )
        if self.edges.shape != other.edges.shape or not np.array_equal(
            self.edges, other.edges
        ):
            raise LearningError(
                "cannot merge histogram synopses with different edges"
            )
        merged = HistogramSynopsis(self.edges)
        np.add(self.counts, other.counts, out=merged.counts)
        merged.n = self.n + other.n
        merged.clamped = self.clamped + other.clamped
        merged.minimum = min(self.minimum, other.minimum)
        merged.maximum = max(self.maximum, other.maximum)
        return merged

    # -- transport -----------------------------------------------------------

    @property
    def nbytes(self) -> int:
        return self.edges.nbytes + self.counts.nbytes

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        extrema = np.asarray(
            [self.minimum, self.maximum], dtype=np.float64
        ).view(np.int64)
        meta = np.asarray(
            [self.n, self.clamped, *self.counts.tolist(), *extrema.tolist()],
            dtype=np.int64,
        )
        return meta, self.edges.copy()

    @classmethod
    def from_arrays(
        cls, meta: np.ndarray, edges: np.ndarray
    ) -> "HistogramSynopsis":
        synopsis = cls(edges)
        meta_list = [int(v) for v in meta]
        synopsis.n = meta_list[0]
        synopsis.clamped = meta_list[1]
        synopsis.counts = np.asarray(
            meta_list[2 : 2 + synopsis.n_bins], dtype=np.int64
        )
        extrema = np.asarray(
            meta_list[2 + synopsis.n_bins : 4 + synopsis.n_bins],
            dtype=np.int64,
        ).view(np.float64)
        synopsis.minimum = float(extrema[0])
        synopsis.maximum = float(extrema[1])
        return synopsis

    def __reduce__(self):
        return (HistogramSynopsis.from_arrays, self.to_arrays())

    def __repr__(self) -> str:
        return (
            f"HistogramSynopsis(bins={self.n_bins}, n={self.n}, "
            f"clamped={self.clamped})"
        )
