"""Sketch-backed learners: bounded memory as an accuracy knob.

Three :class:`~repro.learning.base.Learner` registry entries wrap the
synopses of this package behind the standard ``partial_*`` hooks, so
:class:`~repro.streams.operators.RollingLearnOperator`,
:class:`~repro.streams.groupby.GroupedAggregate`, and the windowed
aggregates work unchanged:

* ``"sketch-quantile"`` (:class:`QuantileSketchLearner`) — KLL quantile
  sketch; emits an equi-depth :class:`~repro.distributions.histogram.
  HistogramDistribution` read off the sketch quantiles.
* ``"sketch-frequency"`` (:class:`FrequencySketchLearner`) — Count-Min
  + AMS plus a bounded heavy-hitter candidate set; emits a
  :class:`~repro.distributions.discrete.DiscreteDistribution`.
* ``"sketch-histogram"`` (:class:`HistogramSynopsisLearner`) — integer
  bucket counts over pinned edges; emits the exact-bucket
  :class:`~repro.distributions.histogram.HistogramDistribution`.

All three set :attr:`~repro.learning.base.Learner.partial_self_evicting`
— the sliding window lives inside :class:`~repro.learning.sketch.window.
SketchWindowState` (chunked, whole-chunk eviction), so the owning
operator keeps only a fill counter instead of an O(window) value buffer.

The error model (``docs/SKETCHES.md``): mean/variance intervals come
from *exact* per-chunk Welford moments, so they are widened only by the
staleness of the not-yet-dropped expired tail (in value units, scaled
by the window's value range); bin/probability estimates additionally
carry the synopsis' own probability-unit bound (KLL rank error, CM
``e/width``, histogram clamped fraction).  The total probability-unit
bound is recorded as ``AccuracyInfo.synopsis_error`` and flows into
provenance.

Emissions are built per batch: ``partial_snapshot`` copies what one
emission reads off the window, and ``partial_emissions`` turns a batch
of snapshots into distributions and accuracy records in array passes
(one KLL quantile sort, one Lemma-1 and one Lemma-2 pass; see "Per-batch
cost" in ``docs/SKETCHES.md``).
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from repro.core.accuracy import AccuracyInfo
from repro.core.analytic import accuracy_from_moments, histograms_accuracy

# Not called here since emissions are built per batch; the name stays
# importable from this module because perfbench's layer spans wrap it.
from repro.core.analytic import accuracy_from_stats  # noqa: F401
from repro.distributions.discrete import DiscreteDistribution
from repro.distributions.histogram import HistogramDistribution
from repro.errors import LearningError
from repro.learning.base import Learner, LearnedDistribution
from repro.learning.sketch.frequency import AmsSketch, CountMinSketch
from repro.learning.sketch.histogram import HistogramSynopsis
from repro.learning.sketch.quantile import KllSketch, read_quantiles
from repro.learning.sketch.window import (
    DEFAULT_CHUNK_COUNT,
    SketchWindowState,
)

__all__ = [
    "FrequencySketchLearner",
    "HistogramSynopsisLearner",
    "QuantileSketchLearner",
]


class _SketchSnapshot(NamedTuple):
    """What one emission reads from a :class:`SketchWindowState`.

    ``read`` is the learner's detached copy of the merged synopsis (in
    the one-chunk phase the merged synopsis is the live chunk, which
    the next add mutates).  ``mean``/``variance`` are ``None`` below a
    fill of two.
    """

    read: object
    count: int
    mean: float | None
    variance: float | None
    staleness: float
    value_range: float
    shape_epsilon: float


class _SketchLearner(Learner):
    """Shared partial plumbing: every hook rides a SketchWindowState."""

    supports_partial = True
    partial_self_evicting = True

    #: Whether the emitted distributions are histograms whose bins get
    #: Lemma-1 intervals.
    _binned = True

    def __init__(self, chunk_count: int, chunk_size: int) -> None:
        self.chunk_count = int(chunk_count)
        self.chunk_size = int(chunk_size)

    def _make_synopsis(self) -> object:
        raise NotImplementedError

    def _read(self, synopsis: object) -> object:
        """A copy of what :meth:`_distributions` needs from a synopsis."""
        raise NotImplementedError

    def _distributions(self, reads: Sequence[object]) -> list:
        """The emitted distribution of every read, in one pass."""
        raise NotImplementedError

    def partial_begin(self, resum_interval: int | None = None) -> object:
        # ``resum_interval`` is accepted for hook compatibility but
        # unused: chunk statistics are add-only, so there is no Welford
        # removal drift to guard against.
        return SketchWindowState(
            self._make_synopsis, self.chunk_count, self.chunk_size
        )

    def partial_add(self, state: SketchWindowState, x: float) -> None:
        state.add(self._validated_observation(x))

    def partial_evict(self, state: SketchWindowState, x: object) -> None:
        # The evicted value is ignored: eviction is FIFO chunk expiry
        # (self-evicting learners receive ``None`` from the operator).
        state.evict()

    def partial_moments(
        self, state: SketchWindowState
    ) -> tuple[float, float, int]:
        mean, variance, _ = state.moments()
        return mean, variance, state.count

    def partial_snapshot(self, state: SketchWindowState) -> _SketchSnapshot:
        count = state.count
        if count < 1:
            raise LearningError("distribution of an empty window")
        merged = state.merged()
        mean = variance = None
        if count >= 2:
            mean, variance, _ = state.moments()
        return _SketchSnapshot(
            self._read(merged),
            count,
            mean,
            variance,
            state.staleness,
            state.value_range,
            merged.epsilon,
        )

    def partial_emissions(
        self, snapshots: Sequence[_SketchSnapshot], confidence: float | None
    ) -> tuple[list, tuple[AccuracyInfo, ...] | None]:
        """Distributions, then every row's accuracy in array passes.

        Mean/variance intervals are widened by the staleness of the
        retained tail in value units; bin intervals by the synopsis'
        shape error plus the staleness, which is also the recorded
        ``synopsis_error``.
        """
        distributions = self._distributions([s.read for s in snapshots])
        if confidence is None:
            return distributions, None
        sizes = [s.count for s in snapshots]
        if min(sizes) < 2:
            raise LearningError(
                f"accuracy requires a window fill >= 2, got {min(sizes)}"
            )
        stale = np.asarray([s.staleness for s in snapshots])
        value_span = np.asarray([s.value_range for s in snapshots])
        bin_eps = [
            min(s.shape_epsilon + s.staleness, 1.0) for s in snapshots
        ]
        bins = (
            histograms_accuracy(distributions, sizes, confidence, bin_eps)
            if self._binned
            else None
        )
        mean_eps = stale * value_span
        return distributions, accuracy_from_moments(
            [s.mean for s in snapshots],
            [s.variance for s in snapshots],
            sizes,
            confidence,
            bins=bins,
            mean_eps=mean_eps,
            variance_eps=mean_eps * value_span,
            synopsis_error=bin_eps,
        )

    def learn(
        self, sample: "np.ndarray | list[float]"
    ) -> LearnedDistribution:
        arr = self._validated(sample)
        synopsis = self._make_synopsis()
        for x in arr.tolist():
            synopsis.update(x)
        (distribution,) = self._distributions([self._read(synopsis)])
        return LearnedDistribution(distribution, arr)


@functools.lru_cache(maxsize=64)
def _equi_depth_grid(bucket_count: int) -> np.ndarray:
    """The quantile probabilities of an equi-depth read, shared read-only."""
    grid = np.linspace(0.0, 1.0, bucket_count + 1)
    grid.flags.writeable = False
    return grid


class QuantileSketchLearner(_SketchLearner):
    """KLL-backed quantile learner; distributions are equi-depth reads.

    Parameters
    ----------
    k:
        KLL capacity (space ~3k items; rank error ~O(1/k)).
    bucket_count:
        Buckets of the emitted equi-depth histogram.
    chunk_count / chunk_size:
        Sliding-window ring shape (see ``SketchWindowState``).
    """

    def __init__(
        self,
        k: int = 200,
        bucket_count: int = 10,
        chunk_count: int = DEFAULT_CHUNK_COUNT,
        chunk_size: int = 512,
    ) -> None:
        super().__init__(chunk_count, chunk_size)
        if bucket_count < 1:
            raise LearningError(
                f"bucket count must be >= 1, got {bucket_count}"
            )
        self.k = int(k)
        self.bucket_count = int(bucket_count)
        self._probe = KllSketch(self.k)  # validates k eagerly
        self._grid = _equi_depth_grid(self.bucket_count)

    def _make_synopsis(self) -> KllSketch:
        return KllSketch(self.k)

    def _read(self, synopsis: KllSketch) -> object:
        return synopsis.items()

    def _distributions(self, reads: Sequence[object]) -> list:
        qs = self._grid
        rows = read_quantiles(reads, qs)
        # Collapse duplicate quantile values (heavy ties), keeping the
        # *last* occurrence so each surviving edge carries the full
        # cumulative mass at that value.
        keep = np.ones(rows.shape, dtype=bool)
        keep[:, :-1] = rows[:, 1:] != rows[:, :-1]
        out = []
        for values, kept in zip(rows, keep):
            edges = values[kept]
            if edges.size < 2:
                # Constant window: a single positive-width bucket,
                # matching the equi_width_edges degenerate-range
                # convention.
                value = float(edges[0])
                out.append(
                    HistogramDistribution([value - 0.5, value + 0.5], [1.0])
                )
                continue
            cum = qs[kept]
            probabilities = np.diff(cum)
            probabilities[0] += cum[0]
            out.append(HistogramDistribution(edges, probabilities))
        return out


class _FrequencySynopsis:
    """Count-Min + AMS + a bounded, deterministic candidate set.

    Count-Min answers point-frequency queries but cannot enumerate the
    support, so a capped exact-count dictionary tracks candidate heavy
    hitters: when it overflows past ``2 * capacity`` it is pruned back
    to ``capacity`` by (tracked count desc, value asc) — deterministic,
    and merge-stable because merges re-prune the summed dictionaries the
    same way.
    """

    __slots__ = ("cm", "ams", "candidates", "capacity")

    def __init__(
        self,
        cm_width: int,
        cm_depth: int,
        ams_width: int,
        capacity: int,
    ) -> None:
        self.cm = CountMinSketch(cm_width, cm_depth)
        self.ams = AmsSketch(ams_width, cm_depth)
        self.candidates: dict[float, int] = {}
        self.capacity = capacity

    @property
    def n(self) -> int:
        return self.cm.n

    @property
    def epsilon(self) -> float:
        return self.cm.epsilon

    def update(self, x: float) -> None:
        self.cm.update(x)
        self.ams.update(x)
        candidates = self.candidates
        candidates[x] = candidates.get(x, 0) + 1
        if len(candidates) > 2 * self.capacity:
            self._prune()

    def _prune(self) -> None:
        ranked = sorted(
            self.candidates.items(), key=lambda kv: (-kv[1], kv[0])
        )
        self.candidates = dict(ranked[: self.capacity])

    def merge(self, other: "_FrequencySynopsis") -> "_FrequencySynopsis":
        if self.capacity != other.capacity:
            raise LearningError(
                "cannot merge frequency synopses with different "
                f"candidate capacities: {self.capacity} vs {other.capacity}"
            )
        merged = _FrequencySynopsis.__new__(_FrequencySynopsis)
        merged.cm = self.cm.merge(other.cm)
        merged.ams = self.ams.merge(other.ams)
        merged.capacity = self.capacity
        candidates = dict(self.candidates)
        for value, count in other.candidates.items():
            candidates[value] = candidates.get(value, 0) + count
        merged.candidates = candidates
        if len(candidates) > 2 * merged.capacity:
            merged._prune()
        return merged

    def second_moment(self) -> float:
        return self.ams.second_moment()

    @property
    def nbytes(self) -> int:
        return self.cm.nbytes + self.ams.nbytes + 48 * len(self.candidates)

    def _parts(self) -> tuple:
        values = np.fromiter(
            self.candidates.keys(), dtype=np.float64, count=len(self.candidates)
        )
        counts = np.fromiter(
            self.candidates.values(), dtype=np.int64, count=len(self.candidates)
        )
        return (
            self.capacity,
            self.cm.to_arrays(),
            self.ams.to_arrays(),
            values,
            counts,
        )

    @classmethod
    def _from_parts(cls, capacity, cm_arrays, ams_arrays, values, counts):
        synopsis = cls.__new__(cls)
        synopsis.capacity = capacity
        synopsis.cm = CountMinSketch.from_arrays(*cm_arrays)
        synopsis.ams = AmsSketch.from_arrays(*ams_arrays)
        synopsis.candidates = dict(
            zip(values.tolist(), (int(c) for c in counts))
        )
        return synopsis

    def __reduce__(self):
        return (_FrequencySynopsis._from_parts, self._parts())


class FrequencySketchLearner(_SketchLearner):
    """Count-Min/AMS-backed learner for discrete-valued streams.

    Emits a :class:`DiscreteDistribution` over the tracked heavy-hitter
    candidates with Count-Min frequency estimates as weights; point
    probabilities err by at most ``e / cm_width`` plus the window
    staleness (the recorded synopsis error).  ``partial_second_moment``
    exposes the AMS F2 estimate of the retained window.
    """

    _binned = False

    def __init__(
        self,
        cm_width: int = 1024,
        cm_depth: int = 5,
        ams_width: int = 256,
        support_size: int = 64,
        chunk_count: int = DEFAULT_CHUNK_COUNT,
        chunk_size: int = 512,
    ) -> None:
        super().__init__(chunk_count, chunk_size)
        if support_size < 1:
            raise LearningError(
                f"support size must be >= 1, got {support_size}"
            )
        self.cm_width = int(cm_width)
        self.cm_depth = int(cm_depth)
        self.ams_width = int(ams_width)
        self.support_size = int(support_size)
        self._probe = self._make_synopsis()  # validates shapes eagerly

    def _make_synopsis(self) -> _FrequencySynopsis:
        return _FrequencySynopsis(
            self.cm_width, self.cm_depth, self.ams_width, self.support_size
        )

    def _read(
        self, synopsis: _FrequencySynopsis
    ) -> tuple[list[float], list[int]]:
        """The top candidates and their Count-Min frequency estimates."""
        candidates = synopsis.candidates
        if not candidates:
            raise LearningError("distribution of an empty synopsis")
        ranked = sorted(
            candidates.items(), key=lambda kv: (-kv[1], kv[0])
        )[: self.support_size]
        support = [value for value, _ in ranked]
        return support, [synopsis.cm.estimate(value) for value in support]

    def _distributions(self, reads: Sequence[object]) -> list:
        return [
            DiscreteDistribution(support, weights)
            for support, weights in reads
        ]

    def partial_second_moment(self, state: SketchWindowState) -> float:
        """AMS estimate of F2 = sum of squared frequencies (retained)."""
        return state.merged().second_moment()


class HistogramSynopsisLearner(_SketchLearner):
    """Pinned-edge histogram synopsis learner: bounded and near-exact.

    Bucket probabilities are exact integer counts (no shape error beyond
    the clamped out-of-range fraction); memory is O(buckets) per chunk.
    Edges must be pinned up front, the same restriction the exact
    ``HistogramLearner`` imposes for its incremental path.
    """

    def __init__(
        self,
        edges: "np.ndarray | list[float]",
        chunk_count: int = DEFAULT_CHUNK_COUNT,
        chunk_size: int = 512,
    ) -> None:
        super().__init__(chunk_count, chunk_size)
        # Validate eagerly via a probe instance; keep the canonical array.
        self.edges = HistogramSynopsis(edges).edges

    def _make_synopsis(self) -> HistogramSynopsis:
        return HistogramSynopsis(self.edges)

    def _read(self, synopsis: HistogramSynopsis) -> np.ndarray:
        if synopsis.n < 1:
            raise LearningError("distribution of an empty synopsis")
        return synopsis.counts.copy()

    def _distributions(self, reads: Sequence[object]) -> list:
        return [HistogramDistribution(self.edges, counts) for counts in reads]
