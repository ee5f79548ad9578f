"""Rolling-statistics kernels for O(1)-per-slide window maintenance.

Sliding-window operators used to rebuild full ``means``/``variances``
lists and re-scan ``min(sizes)`` on every slide — O(window) per tuple.
This module provides the incremental kernels they now share:

* :class:`CompensatedSum` — a Kahan–Neumaier compensated accumulator
  with subtract-on-evict, so running sums stay accurate under the
  add/remove churn of a sliding window.
* :class:`SlidingExtremum` — a monotonic-deque sliding min/max for FIFO
  windows (amortized O(1) per slide, O(1) queries).
* :class:`MinSizeTracker` — a counter-based multiset minimum over the
  window members' sample sizes, i.e. the de facto sample size of the
  window aggregate (Definition 2 / Lemma 3) without the per-slide
  ``min(sizes)`` scan.
* :class:`RollingWindowStats` — the bundle the windowed operators hold:
  count, compensated mean/variance sums, optional extrema of the means,
  and the Lemma-3 minimum sample size, under FIFO append/evict (count-
  or time-based eviction).

Compensated subtraction is very accurate but not exact, so every
``resum_interval`` evictions (default :data:`DEFAULT_RESUM_INTERVAL`)
the sums are recomputed exactly from the buffered members with
:func:`math.fsum` — the *drift guard*.  Immediately after a re-sum the
running sums equal the exactly rounded from-scratch reference; between
re-sums they stay within ~1e-12 relative error (tests enforce 1e-9).
The observed drift magnitude and re-sum count feed the observability
layer when metrics are attached (see ``docs/ROLLING.md``).
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterator

from repro.errors import StreamError

__all__ = [
    "DEFAULT_RESUM_INTERVAL",
    "CompensatedSum",
    "SlidingExtremum",
    "MinSizeTracker",
    "RollingWindowStats",
    "ChunkedWindowStats",
]

#: Evictions between exact re-sums of the compensated running sums.
DEFAULT_RESUM_INTERVAL = 4096


def check_resum_interval(resum_interval: int) -> int:
    """Validate a drift-guard period (shared by operators and learners)."""
    if resum_interval < 1:
        raise StreamError(
            f"resum interval must be >= 1, got {resum_interval}"
        )
    return int(resum_interval)


class CompensatedSum:
    """Kahan–Neumaier compensated running sum with subtract-on-evict.

    ``add``/``subtract`` cost O(1); :attr:`value` returns the compensated
    total.  ``reset(total)`` replaces the accumulator with an exactly
    known total (the drift guard calls it with an ``fsum`` result).
    """

    __slots__ = ("_sum", "_comp")

    def __init__(self, total: float = 0.0) -> None:
        self._sum = float(total)
        self._comp = 0.0

    def _accumulate(self, x: float) -> None:
        s = self._sum + x
        if abs(self._sum) >= abs(x):
            self._comp += (self._sum - s) + x
        else:
            self._comp += (x - s) + self._sum
        self._sum = s

    def add(self, x: float) -> None:
        self._accumulate(x)

    def subtract(self, x: float) -> None:
        self._accumulate(-x)

    @property
    def value(self) -> float:
        return self._sum + self._comp

    def reset(self, total: float = 0.0) -> None:
        self._sum = float(total)
        self._comp = 0.0

    def __repr__(self) -> str:
        return f"CompensatedSum({self.value!r})"


class SlidingExtremum:
    """Sliding minimum or maximum of a FIFO window (monotonic deque).

    The classic ascending/descending-deque algorithm: :meth:`push` drops
    dominated candidates from the back, :meth:`evict` retires the front
    candidate when the window's oldest element leaves.  Pushes and
    evictions must mirror the window's own FIFO order; both are
    amortized O(1) and :attr:`value` is O(1).
    """

    __slots__ = ("_candidates", "_is_min", "_pushed", "_evicted")

    def __init__(self, mode: str) -> None:
        if mode not in ("min", "max"):
            raise StreamError(f"extremum mode must be min or max, got {mode!r}")
        self._candidates: deque[tuple[int, float]] = deque()
        self._is_min = mode == "min"
        self._pushed = 0
        self._evicted = 0

    def push(self, x: float) -> None:
        candidates = self._candidates
        if self._is_min:
            while candidates and candidates[-1][1] >= x:
                candidates.pop()
        else:
            while candidates and candidates[-1][1] <= x:
                candidates.pop()
        candidates.append((self._pushed, x))
        self._pushed += 1

    def evict(self) -> None:
        """Note that the window's oldest element (push order) left."""
        if self._evicted >= self._pushed:
            raise StreamError("sliding extremum evicted more than was pushed")
        if self._candidates and self._candidates[0][0] == self._evicted:
            self._candidates.popleft()
        self._evicted += 1

    @property
    def value(self) -> float:
        if not self._candidates:
            raise StreamError("sliding extremum of an empty window")
        return self._candidates[0][1]

    def __len__(self) -> int:
        return self._pushed - self._evicted


class MinSizeTracker:
    """Multiset minimum over the window's sample sizes (Lemma 3).

    ``None`` sizes mark exact inputs (infinite samples) and never
    constrain the minimum; :attr:`minimum` is ``None`` when every member
    is exact.  ``add``/``discard`` are O(1) except when the current
    minimum's last copy leaves, which recomputes over the *distinct*
    sizes — O(distinct), not O(window), and only on that slide.
    """

    __slots__ = ("_counts", "_min")

    def __init__(self) -> None:
        self._counts: dict[int, int] = {}
        self._min: int | None = None

    def add(self, size: int | None) -> None:
        if size is None:
            return
        counts = self._counts
        counts[size] = counts.get(size, 0) + 1
        if self._min is None or size < self._min:
            self._min = size

    def discard(self, size: int | None) -> None:
        if size is None:
            return
        counts = self._counts
        remaining = counts.get(size, 0) - 1
        if remaining < 0:
            raise StreamError(f"sample size {size} evicted more than added")
        if remaining:
            counts[size] = remaining
        else:
            del counts[size]
            if size == self._min:
                self._min = min(counts) if counts else None

    @property
    def minimum(self) -> int | None:
        return self._min

    def __len__(self) -> int:
        return sum(self._counts.values())


class RollingWindowStats:
    """Incremental sufficient statistics of one sliding window.

    Each member is a ``(mean, variance, sample_size)`` triple (the
    moments of a distribution-valued attribute plus its Lemma-3 sample
    size), optionally timestamped for time-based eviction.  Maintained
    per slide in O(1) amortized:

    * ``count``, compensated ``mean_sum`` / ``var_sum`` (drift-guarded),
    * ``min_mean`` / ``max_mean`` via monotonic deques (opt-in),
    * ``df_size`` — the window's minimum sample size.

    Set :attr:`resums_counter` / :attr:`drift_histogram` (done by the
    operators' ``attach``) to surface drift-guard activity to
    the observability layer; they must be detached before pickling or
    deep-copying the owning operator (``Operator.detach`` does).
    """

    __slots__ = (
        "_entries",
        "_timestamps",
        "_mean_sum",
        "_var_sum",
        "_min",
        "_max",
        "_sizes",
        "resum_interval",
        "_evictions_since_resum",
        "resums",
        "last_drift",
        "resums_counter",
        "drift_histogram",
    )

    def __init__(
        self,
        resum_interval: int = DEFAULT_RESUM_INTERVAL,
        track_extrema: bool = False,
    ) -> None:
        self.resum_interval = check_resum_interval(resum_interval)
        self._entries: deque[tuple[float, float, int | None]] = deque()
        self._timestamps: deque[float] = deque()
        self._mean_sum = CompensatedSum()
        self._var_sum = CompensatedSum()
        self._min = SlidingExtremum("min") if track_extrema else None
        self._max = SlidingExtremum("max") if track_extrema else None
        self._sizes = MinSizeTracker()
        self._evictions_since_resum = 0
        #: Exact re-sums performed so far (drift-guard activity).
        self.resums = 0
        #: Drift magnitude observed at the latest re-sum.
        self.last_drift = 0.0
        self.resums_counter = None
        self.drift_histogram = None

    # -- window maintenance -------------------------------------------------

    def push(
        self,
        mean: float,
        variance: float,
        size: int | None = None,
        timestamp: float | None = None,
    ) -> None:
        """Append the newest window member (O(1))."""
        self._entries.append((mean, variance, size))
        if timestamp is not None:
            self._timestamps.append(timestamp)
        self._mean_sum.add(mean)
        self._var_sum.add(variance)
        if self._min is not None:
            self._min.push(mean)
            self._max.push(mean)
        self._sizes.add(size)

    def evict_oldest(self) -> tuple[float, float, int | None]:
        """Remove and return the oldest member (amortized O(1))."""
        if not self._entries:
            raise StreamError("evict from an empty window")
        mean, variance, size = self._entries.popleft()
        if self._timestamps:
            self._timestamps.popleft()
        self._mean_sum.subtract(mean)
        self._var_sum.subtract(variance)
        if self._min is not None:
            self._min.evict()
            self._max.evict()
        self._sizes.discard(size)
        self._evictions_since_resum += 1
        if (
            self._evictions_since_resum >= self.resum_interval
            or self._cancellation(mean, variance)
        ):
            self._resum()
        return mean, variance, size

    def evict_expired(self, cutoff: float) -> int:
        """Evict every member with ``timestamp <= cutoff``; returns count.

        Only valid when members were pushed with timestamps (time-based
        windows).  Timestamps must have been non-decreasing.
        """
        evicted = 0
        timestamps = self._timestamps
        while timestamps and timestamps[0] <= cutoff:
            self.evict_oldest()
            evicted += 1
        return evicted

    # -- drift guard --------------------------------------------------------

    #: Eviction-to-survivor magnitude ratio that forces an immediate
    #: resum.  Compensated subtraction leaves absolute error of order
    #: ``eps * |evicted|``; once the evicted member exceeds the
    #: surviving total by this factor that error can breach the 1e-9
    #: relative contract before the periodic resum fires.
    CANCELLATION_RATIO = 1e6

    def _cancellation(self, mean: float, variance: float) -> bool:
        """Did this eviction cancel away the bulk of a running sum?"""
        ratio = self.CANCELLATION_RATIO
        return (
            abs(mean) > ratio * (abs(self._mean_sum.value) + 1.0)
            or abs(variance) > ratio * (abs(self._var_sum.value) + 1.0)
        )

    def _resum(self) -> None:
        """Recompute the running sums exactly from the buffered members."""
        exact_mean = math.fsum(m for m, _, _ in self._entries)
        exact_var = math.fsum(v for _, v, _ in self._entries)
        drift = max(
            abs(self._mean_sum.value - exact_mean),
            abs(self._var_sum.value - exact_var),
        )
        self._mean_sum.reset(exact_mean)
        self._var_sum.reset(exact_var)
        self._evictions_since_resum = 0
        self.resums += 1
        self.last_drift = drift
        if self.resums_counter is not None:
            self.resums_counter.inc()
        if self.drift_histogram is not None:
            self.drift_histogram.observe(drift)

    def set_metrics(self, resums_counter, drift_histogram) -> None:
        """Bind (or, with Nones, unbind) the drift-guard metrics."""
        self.resums_counter = resums_counter
        self.drift_histogram = drift_histogram

    # -- accessors ----------------------------------------------------------

    @property
    def count(self) -> int:
        return len(self._entries)

    @property
    def mean_sum(self) -> float:
        return self._mean_sum.value

    @property
    def var_sum(self) -> float:
        # Compensated subtraction may leave a tiny negative residue on a
        # window of near-cancelling variances; variances are >= 0.
        return max(self._var_sum.value, 0.0)

    def moments(self) -> tuple[float, float, int, int | None]:
        """``(mean_sum, var_sum, count, df_size)`` in one call.

        The inputs of a window avg/sum, read once per slide on the
        operators' hot loops.
        """
        return (
            self._mean_sum.value,
            max(self._var_sum.value, 0.0),
            len(self._entries),
            self._sizes.minimum,
        )

    @property
    def min_mean(self) -> float:
        if self._min is None:
            raise StreamError("window was built without extrema tracking")
        return self._min.value

    @property
    def max_mean(self) -> float:
        if self._max is None:
            raise StreamError("window was built without extrema tracking")
        return self._max.value

    @property
    def df_size(self) -> int | None:
        """De facto sample size of the window aggregate (Lemma 3)."""
        return self._sizes.minimum

    @property
    def oldest_timestamp(self) -> float | None:
        return self._timestamps[0] if self._timestamps else None

    @property
    def newest_timestamp(self) -> float | None:
        return self._timestamps[-1] if self._timestamps else None

    def members(self) -> Iterator[tuple[float, float, int | None]]:
        """Iterate the current (mean, variance, size) members, oldest first."""
        return iter(self._entries)

    @property
    def nbytes(self) -> int:
        """Approximate retained bytes (feeds the ``state.bytes`` gauge).

        Dominated by the member buffer: each deque entry is a 3-tuple of
        boxed floats (~120 bytes with the deque block share); extrema
        deques and the size multiset add a bounded constant factor.
        """
        members = len(self._entries)
        extrema = (
            (len(self._min) + len(self._max)) * 56
            if self._min is not None
            else 0
        )
        return (
            160
            + members * 120
            + len(self._timestamps) * 32
            + len(self._sizes._counts) * 72
            + extrema
        )

    def __len__(self) -> int:
        return len(self._entries)


class _StatsChunk:
    """Add-only sufficient statistics of one chunk of window members."""

    __slots__ = (
        "count", "mean_sum", "var_sum", "min_mean", "max_mean", "min_size"
    )

    def __init__(self) -> None:
        self.count = 0
        self.mean_sum = 0.0
        self.var_sum = 0.0
        self.min_mean = math.inf
        self.max_mean = -math.inf
        self.min_size: int | None = None

    def push(self, mean: float, variance: float, size: int | None) -> None:
        self.count += 1
        self.mean_sum += mean
        self.var_sum += variance
        if mean < self.min_mean:
            self.min_mean = mean
        if mean > self.max_mean:
            self.max_mean = mean
        if size is not None and (
            self.min_size is None or size < self.min_size
        ):
            self.min_size = size

    def merged_with(self, other: "_StatsChunk") -> "_StatsChunk":
        out = _StatsChunk()
        out.count = self.count + other.count
        out.mean_sum = self.mean_sum + other.mean_sum
        out.var_sum = self.var_sum + other.var_sum
        out.min_mean = min(self.min_mean, other.min_mean)
        out.max_mean = max(self.max_mean, other.max_mean)
        sizes = [
            s for s in (self.min_size, other.min_size) if s is not None
        ]
        out.min_size = min(sizes) if sizes else None
        return out


class ChunkedWindowStats:
    """Bounded-memory drop-in for :class:`RollingWindowStats`.

    Where ``RollingWindowStats`` buffers every window member (O(window)
    per group — ruinous for GROUP BY over millions of keys), this keeps
    a ring of add-only chunk statistics with whole-chunk eviction, the
    same scheme as :class:`repro.learning.sketch.window.
    SketchWindowState`: ~O(chunk_count) memory for any window size, with
    the expired-but-retained tail quantified as :attr:`staleness`
    (bounded near ``1 / chunk_count``).  Running sums are *scaled* to
    the live count, so ``avg`` reads the retained average and ``sum``
    its live-count extrapolation; ``min_mean``/``max_mean`` and
    ``df_size`` range over the retained mass (conservative for Lemma 3:
    a superset minimum is never larger than the true one).

    There are no compensated subtractions here — chunk sums are
    add-only — so there is no drift guard; ``resum_interval`` is
    accepted for signature compatibility and ignored, ``set_metrics``
    is a no-op.  ``evict_oldest`` returns ``None``: the evicted
    member's values are no longer individually known.
    """

    __slots__ = (
        "chunk_count", "chunk_size", "_chunks", "pending", "_retained",
        "track_extrema",
    )

    #: Ring-size target; live chunks stay within [count, 2 * count].
    DEFAULT_CHUNK_COUNT = 16

    def __init__(
        self,
        resum_interval: int = DEFAULT_RESUM_INTERVAL,
        track_extrema: bool = True,
        chunk_count: int = DEFAULT_CHUNK_COUNT,
        chunk_size: int = 64,
    ) -> None:
        check_resum_interval(resum_interval)
        if chunk_count < 2:
            raise StreamError(
                f"chunk count must be >= 2, got {chunk_count}"
            )
        if chunk_size < 1:
            raise StreamError(f"chunk size must be >= 1, got {chunk_size}")
        self.chunk_count = int(chunk_count)
        self.chunk_size = int(chunk_size)
        self._chunks: list[_StatsChunk] = []
        self.pending = 0
        self._retained = 0
        self.track_extrema = track_extrema

    # -- window maintenance -------------------------------------------------

    def push(
        self,
        mean: float,
        variance: float,
        size: int | None = None,
        timestamp: float | None = None,
    ) -> None:
        if timestamp is not None:
            raise StreamError(
                "ChunkedWindowStats does not support time-based windows"
            )
        chunks = self._chunks
        if not chunks or chunks[-1].count >= self.chunk_size:
            chunks.append(_StatsChunk())
            if len(chunks) > 2 * self.chunk_count:
                merged = [
                    chunks[i].merged_with(chunks[i + 1])
                    for i in range(0, len(chunks) - 1, 2)
                ]
                if len(chunks) % 2:
                    merged.append(chunks[-1])
                self._chunks = chunks = merged
                self.chunk_size *= 2
        chunks[-1].push(mean, variance, size)
        self._retained += 1

    def evict_oldest(self) -> None:
        """Logically expire the oldest member (whole-chunk reclamation)."""
        if self.count < 1:
            raise StreamError("evict from an empty window")
        self.pending += 1
        chunks = self._chunks
        while len(chunks) > 1 and self.pending >= chunks[0].count:
            dropped = chunks.pop(0)
            self.pending -= dropped.count
            self._retained -= dropped.count

    def set_metrics(self, resums_counter, drift_histogram) -> None:
        """No drift guard to bind: chunk statistics are add-only."""

    # -- accessors ----------------------------------------------------------

    @property
    def count(self) -> int:
        """Live (logical) window fill: retained minus pending-evicted."""
        return self._retained - self.pending

    @property
    def staleness(self) -> float:
        """Fraction of retained mass that has already logically expired."""
        return self.pending / self._retained if self._retained else 0.0

    @property
    def mean_sum(self) -> float:
        """Retained mean sum scaled to the live count.

        ``mean_sum / count`` is then exactly the retained average, and
        ``sum`` aggregates extrapolate it over the live membership.
        """
        return self._scaled(math.fsum(c.mean_sum for c in self._chunks))

    @property
    def var_sum(self) -> float:
        return max(
            self._scaled(math.fsum(c.var_sum for c in self._chunks)), 0.0
        )

    def moments(self) -> tuple[float, float, int, int | None]:
        """``(mean_sum, var_sum, count, df_size)``, as
        :meth:`RollingWindowStats.moments`."""
        return self.mean_sum, self.var_sum, self.count, self.df_size

    def _scaled(self, retained_sum: float) -> float:
        if self.pending == 0:
            return retained_sum
        return retained_sum * (self.count / self._retained)

    @property
    def min_mean(self) -> float:
        if not self.track_extrema:
            raise StreamError("window was built without extrema tracking")
        if not self._chunks:
            raise StreamError("sliding extremum of an empty window")
        return min(c.min_mean for c in self._chunks)

    @property
    def max_mean(self) -> float:
        if not self.track_extrema:
            raise StreamError("window was built without extrema tracking")
        if not self._chunks:
            raise StreamError("sliding extremum of an empty window")
        return max(c.max_mean for c in self._chunks)

    @property
    def df_size(self) -> int | None:
        """Minimum sample size over the retained members (Lemma 3)."""
        sizes = [
            c.min_size for c in self._chunks if c.min_size is not None
        ]
        return min(sizes) if sizes else None

    @property
    def nbytes(self) -> int:
        """Approximate retained bytes (feeds the ``state.bytes`` gauge)."""
        return 120 + len(self._chunks) * 110

    def __len__(self) -> int:
        return self.count
