"""Adaptive early-stopping bootstrap — distribution-sensitive draw budgets.

BOOTSTRAP-ACCURACY-INFO (§III) pays a fixed Monte-Carlo budget
``m = r * n`` regardless of how tight the percentile intervals already
are.  Following the distribution-sensitive adaptive-sampling idea of
Macke et al. (*Rapid Approximate Aggregation with Distribution-Sensitive
Interval Guarantees*), this module grows the number of de-facto
resamples incrementally — ``r0`` chunks first, then geometric escalation
— and terminates as soon as the requested interval width is reached.

Determinism contract
--------------------
The escalation *schedule* (:func:`resample_schedule`) is a pure function
of ``(r0, growth, r_max)``; the values drawn in round ``k`` are a pure
function of the seed and the schedule position.  Because the stopping
decision is a pure function of the drawn values, a fixed seed
reproduces the same rounds, draws, and intervals.

Incremental statistics
----------------------
Chunk statistics (per-resample mean, unbiased variance, bin heights) are
computed once per chunk when its round arrives and appended — escalation
never recomputes statistics for chunks drawn in earlier rounds.  Only
the percentile pass (over the ``r`` accumulated statistics, not the
``r * n`` values) reruns per round, which is negligible next to drawing.

Small-``r`` width calibration
-----------------------------
The raw percentile interval of ``r`` chunk statistics is biased narrow
for small ``r`` (the empirical 5th/95th percentiles of few points cannot
reach the tails), so stopping on the raw width would systematically
undercover.  :func:`width_calibration` supplies the expected shrinkage
factor of the interpolated percentile interval under a Gaussian
reference (Blom-approximated expected normal order statistics); the
stopping rule compares ``width * calibration`` against the target, which
makes the adaptive path terminate at the round whose *expected* width
matches the target instead of on a transiently-narrow estimate.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence

import numpy as np
from scipy.special import ndtri

from repro.core.accuracy import AccuracyInfo, BinInterval, ConfidenceInterval
from repro.core.bootstrap import (
    _basic_interval,
    _height_bins,
    _resample_statistics,
    percentile_interval,
)
from repro.errors import AccuracyError

__all__ = [
    "DEFAULT_INITIAL_RESAMPLES",
    "DEFAULT_GROWTH",
    "resample_schedule",
    "width_calibration",
    "IncrementalBootstrap",
    "adaptive_bootstrap_accuracy_info",
    "adaptive_bootstrap_from_values",
]

#: Resamples drawn before the first width check.
DEFAULT_INITIAL_RESAMPLES = 8
#: Geometric escalation factor between rounds.
DEFAULT_GROWTH = 2.0


def resample_schedule(
    r0: int = DEFAULT_INITIAL_RESAMPLES,
    growth: float = DEFAULT_GROWTH,
    r_max: int = 100,
) -> tuple[int, ...]:
    """Cumulative resample counts per escalation round.

    A pure function of ``(r0, growth, r_max)`` — the determinism
    contract requires the schedule to be independent of the data.  The
    last entry always equals ``r_max`` (the fixed budget the adaptive
    path never exceeds).
    """
    if r0 < 2:
        raise AccuracyError(f"initial resamples must be >= 2, got {r0}")
    if growth <= 1.0:
        raise AccuracyError(f"growth factor must be > 1, got {growth}")
    if r_max < 2:
        raise AccuracyError(f"max resamples must be >= 2, got {r_max}")
    if r_max <= r0:
        return (r_max,)
    schedule = [r0]
    while schedule[-1] < r_max:
        nxt = min(r_max, max(schedule[-1] + 1, math.ceil(schedule[-1] * growth)))
        schedule.append(nxt)
    return tuple(schedule)


def _blom_normal_order_stat(index: int, r: int) -> float:
    """Blom approximation of E[X_(index+1:r)] for standard normal X."""
    return float(ndtri((index + 1 - 0.375) / (r + 0.25)))


@functools.lru_cache(maxsize=4096)
def width_calibration(r: int, confidence: float) -> float:
    """Expected small-``r`` shrinkage correction for percentile widths.

    Ratio of the asymptotic ``(1±confidence)/2`` normal interval width to
    the expected width of the linearly-interpolated percentile interval
    over ``r`` iid Gaussian statistics.  Always >= 1; approaches 1 as
    ``r`` grows.  The Gaussian reference is exact for mean statistics of
    Gaussian chunks and a documented approximation otherwise.
    """
    if r < 2:
        raise AccuracyError(f"calibration needs r >= 2, got {r}")
    if not 0.0 < confidence < 1.0:
        raise AccuracyError(
            f"confidence level must be in (0,1), got {confidence}"
        )

    def expected_quantile(q: float) -> float:
        position = q * (r - 1)
        below = int(position)
        above = min(below + 1, r - 1)
        fraction = position - below
        base = _blom_normal_order_stat(below, r)
        return base + fraction * (_blom_normal_order_stat(above, r) - base)

    q_low = (1.0 - confidence) / 2.0
    q_high = (1.0 + confidence) / 2.0
    expected_width = expected_quantile(q_high) - expected_quantile(q_low)
    asymptotic_width = float(ndtri(q_high) - ndtri(q_low))
    if expected_width <= 0.0:
        return 1.0
    return max(1.0, asymptotic_width / expected_width)


class IncrementalBootstrap:
    """Chunk-statistics accumulator behind the adaptive bootstrap.

    Feed Monte-Carlo values in blocks whose length is a multiple of the
    d.f. sample size ``n`` (one block per escalation round); each block's
    chunk statistics are computed once and appended.  ``satisfied()``
    evaluates the width-target stopping rule over the statistics
    accumulated so far; ``result()`` assembles the final
    :class:`AccuracyInfo` without revisiting any values.
    """

    def __init__(
        self,
        n: int,
        confidence: float = 0.95,
        edges: Sequence[float] | None = None,
        interval: str = "percentile",
        target_ci_width: float | None = None,
        target_relative_width: float | None = None,
        calibrate: bool = True,
    ) -> None:
        if n < 1:
            raise AccuracyError(f"d.f. sample size must be >= 1, got {n}")
        if interval not in ("percentile", "basic"):
            raise AccuracyError(
                f"interval must be 'percentile' or 'basic', got {interval!r}"
            )
        if not 0.0 < confidence < 1.0:
            raise AccuracyError(
                f"confidence level must be in (0,1), got {confidence}"
            )
        for name, target in (
            ("target_ci_width", target_ci_width),
            ("target_relative_width", target_relative_width),
        ):
            if target is not None and not target > 0.0:
                raise AccuracyError(f"{name} must be > 0, got {target}")
        self.n = n
        self.confidence = confidence
        self.interval = interval
        self.target_ci_width = target_ci_width
        self.target_relative_width = target_relative_width
        self.calibrate = calibrate
        self._edges = None if edges is None else np.asarray(edges, dtype=float)
        self._means: list[np.ndarray] = []
        self._variances: list[np.ndarray] = []
        self._heights: list[np.ndarray] = []
        # Raw blocks are only retained for the basic interval, whose
        # reflection point must match the one-shot kernel's two-pass
        # moments exactly; the percentile path never revisits values.
        self._blocks: list[np.ndarray] | None = (
            [] if interval == "basic" else None
        )
        self._draws = 0
        self._rounds = 0

    @property
    def resamples(self) -> int:
        """Number of de-facto resamples (chunks) accumulated so far."""
        return self._draws // self.n

    @property
    def draws_used(self) -> int:
        return self._draws

    @property
    def rounds(self) -> int:
        return self._rounds

    @property
    def adaptive(self) -> bool:
        """Whether any width target gates termination."""
        return (
            self.target_ci_width is not None
            or self.target_relative_width is not None
        )

    def add_values(self, values: np.ndarray) -> None:
        """Fold one round's values in; length must be a multiple of n."""
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size == 0 or arr.size % self.n:
            raise AccuracyError(
                f"adaptive rounds must supply a positive multiple of "
                f"n={self.n} values, got {arr.size}"
            )
        chunks = arr.reshape(-1, self.n)
        means, variances, heights = _resample_statistics(chunks, self._edges)
        self._means.append(means)
        self._variances.append(variances)
        if heights is not None:
            self._heights.append(heights)
        if self._blocks is not None:
            self._blocks.append(arr)
        self._draws += arr.size
        self._rounds += 1

    # -- stopping rule ----------------------------------------------------

    def _current_intervals(
        self,
    ) -> tuple[ConfidenceInterval, ConfidenceInterval]:
        means = np.concatenate(self._means)
        variances = np.concatenate(self._variances)
        return (
            percentile_interval(means, self.confidence),
            percentile_interval(variances, self.confidence),
        )

    def _width_ok(
        self, ci: ConfidenceInterval, absolute: float | None
    ) -> bool:
        factor = (
            width_calibration(self.resamples, self.confidence)
            if self.calibrate
            else 1.0
        )
        width = ci.length * factor
        if absolute is not None and width > absolute:
            return False
        relative = self.target_relative_width
        if relative is not None:
            scale = abs(ci.midpoint)
            if scale <= 0.0 or width > relative * scale:
                return False
        return True

    def satisfied(self) -> bool:
        """Whether the accumulated intervals meet the width targets.

        The absolute ``target_ci_width`` gates the mean interval (widths
        of different statistics are not commensurable — the variance
        interval lives in squared units); ``target_relative_width``
        gates both the mean and variance intervals relative to their
        midpoints.  Always ``False`` when no target is set or fewer than
        two resamples have arrived.
        """
        if not self.adaptive or self.resamples < 2:
            return False
        mean_ci, var_ci = self._current_intervals()
        if not self._width_ok(mean_ci, self.target_ci_width):
            return False
        if self.target_relative_width is not None and not self._width_ok(
            var_ci, None
        ):
            return False
        return True

    # -- result assembly --------------------------------------------------

    def result(self) -> AccuracyInfo:
        """The accuracy record over every chunk accumulated so far."""
        if self.resamples < 2:
            raise AccuracyError(
                f"need at least 2 resamples; accumulated "
                f"{self.resamples} chunks of n={self.n}"
            )
        mean_ci, var_ci = self._current_intervals()
        if self.interval == "basic":
            assert self._blocks is not None
            used = (
                self._blocks[0]
                if len(self._blocks) == 1
                else np.concatenate(self._blocks)
            )
            point_mean = float(used.mean())
            point_var = (
                max(float(used.var(ddof=1)), 0.0) if used.size > 1 else 0.0
            )
            mean_ci = _basic_interval(mean_ci, point_mean)
            var_ci = _basic_interval(var_ci, point_var)
            var_ci = ConfidenceInterval(
                max(var_ci.low, 0.0), max(var_ci.high, 0.0), self.confidence
            )
        bins: tuple[BinInterval, ...] = ()
        if self._heights:
            heights = np.concatenate(self._heights, axis=0)
            assert self._edges is not None
            bins = _height_bins(heights, self._edges, self.confidence)
        return AccuracyInfo(
            mean=mean_ci,
            variance=var_ci,
            bins=bins,
            sample_size=self.n,
            method="bootstrap",
            values_used=self._draws,
            values_dropped=0,
            draws_used=self._draws,
            rounds=self._rounds,
        )


def adaptive_bootstrap_accuracy_info(
    draw: Callable[[int], np.ndarray],
    n: int,
    confidence: float = 0.95,
    *,
    target_ci_width: float | None = None,
    target_relative_width: float | None = None,
    max_resamples: int = 100,
    initial_resamples: int = DEFAULT_INITIAL_RESAMPLES,
    growth: float = DEFAULT_GROWTH,
    edges: Sequence[float] | None = None,
    interval: str = "percentile",
    calibrate: bool = True,
) -> AccuracyInfo:
    """BOOTSTRAP-ACCURACY-INFO with an adaptive early-stopping budget.

    ``draw(count)`` supplies ``count`` fresh Monte-Carlo values of the
    output random variable; it is called once per escalation round with
    a count that is always a multiple of ``n``.  With no width target
    the full ``max_resamples`` schedule runs — a fixed-budget bootstrap
    drawn through the same incremental engine, byte-identical to the
    adaptive path given the same total draws.
    """
    state = IncrementalBootstrap(
        n,
        confidence,
        edges=edges,
        interval=interval,
        target_ci_width=target_ci_width,
        target_relative_width=target_relative_width,
        calibrate=calibrate,
    )
    for r_total in resample_schedule(initial_resamples, growth, max_resamples):
        delta = (r_total - state.resamples) * n
        if delta <= 0:
            continue
        values = np.asarray(draw(delta), dtype=float).ravel()
        if values.size != delta:
            raise AccuracyError(
                f"draw callable returned {values.size} values, "
                f"expected {delta}"
            )
        state.add_values(values)
        if state.satisfied():
            break
    return state.result()


def adaptive_bootstrap_from_values(
    values: Sequence[float] | np.ndarray,
    n: int,
    confidence: float = 0.95,
    *,
    target_ci_width: float | None = None,
    target_relative_width: float | None = None,
    initial_resamples: int = DEFAULT_INITIAL_RESAMPLES,
    growth: float = DEFAULT_GROWTH,
    edges: Sequence[float] | None = None,
    interval: str = "percentile",
    calibrate: bool = True,
) -> AccuracyInfo:
    """Adaptive early stopping over an existing Monte-Carlo sequence.

    Consumes a prefix of ``values`` round by round (in production order,
    exactly as line 4 of the paper's listing reads them) and stops as
    soon as the width target is met; ``draws_used`` reports how much of
    the sequence was actually consumed.  The budget is the longest
    chunk-aligned prefix, ``r_max = len(values) // n``.
    """
    arr = np.asarray(values, dtype=float).ravel()
    if n < 1:
        raise AccuracyError(f"d.f. sample size must be >= 1, got {n}")
    r_max = arr.size // n
    if r_max < 2:
        raise AccuracyError(
            f"need at least 2 resamples; got m={arr.size} values for n={n} "
            f"(m must be >= 2n — callers drawing Monte-Carlo values must "
            f"request mc_samples >= 2n)"
        )
    cursor = 0

    def draw(count: int) -> np.ndarray:
        nonlocal cursor
        block = arr[cursor : cursor + count]
        cursor += count
        return block

    return adaptive_bootstrap_accuracy_info(
        draw,
        n,
        confidence,
        target_ci_width=target_ci_width,
        target_relative_width=target_relative_width,
        max_resamples=r_max,
        initial_resamples=initial_resamples,
        growth=growth,
        edges=edges,
        interval=interval,
        calibrate=calibrate,
    )
