"""Analytical accuracy methods — Lemmas 1 & 2 and Theorem 1 of the paper.

Lemma 1 gives confidence intervals on histogram bin heights using the
normal approximation to the binomial (the Wald interval) when the paper's
validity rule ``n*p_i >= 4 and n*(1-p_i) >= 4`` holds, and the Wilson score
interval otherwise.

Lemma 2 gives intervals on the mean (Student-t for n < 30, z otherwise)
and on the variance (chi-square), of an arbitrary distribution learned
from a sample of size n.

Theorem 1 lifts both lemmas to query results: use the *de facto* sample
size of the output random variable (Lemma 3, :mod:`repro.core.dfsample`)
as ``n`` and the result distribution's mean/standard deviation as the
sample statistics.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

import numpy as np
from scipy import special

from repro.core.accuracy import (
    AccuracyInfo,
    BinInterval,
    ConfidenceInterval,
    TupleProbabilityInterval,
)
from repro.distributions.base import Distribution
from repro.distributions.histogram import HistogramDistribution
from repro.errors import AccuracyError

__all__ = [
    "SMALL_SAMPLE_MEAN_CUTOFF",
    "WALD_VALIDITY_COUNT",
    "critical_values",
    "proportion_interval_wald",
    "proportion_interval_wilson",
    "proportion_intervals_wald",
    "proportion_intervals_wilson",
    "bin_height_interval",
    "bin_height_intervals",
    "histogram_accuracy",
    "mean_interval",
    "mean_intervals",
    "variance_interval",
    "variance_intervals",
    "distribution_accuracy",
    "accuracy_from_moments",
    "tuple_probability_interval",
    "tuple_probability_intervals",
    "accuracy_from_sample",
    "accuracy_from_stats",
]

# Lemma 2 switches from the Student-t to the z interval at this n.
SMALL_SAMPLE_MEAN_CUTOFF = 30
# Lemma 1 requires both expected counts (n*p and n*(1-p)) to be at least
# this large for the normal approximation to the binomial to be valid.
WALD_VALIDITY_COUNT = 4


@functools.lru_cache(maxsize=4096)
def _z_upper(alpha_half: float) -> float:
    """Upper ``alpha_half`` percentile of the standard normal, z_{a/2}.

    Cached: streams evaluate millions of intervals with a handful of
    distinct confidence levels, so the quantile is a lookup, not a solve.
    """
    return float(special.ndtri(1.0 - alpha_half))


@functools.lru_cache(maxsize=4096)
def _t_upper(alpha_half: float, df: int) -> float:
    """Upper percentile of the Student-t with ``df`` degrees of freedom."""
    return float(special.stdtrit(df, 1.0 - alpha_half))


@functools.lru_cache(maxsize=4096)
def _chi2_upper(tail: float, df: int) -> float:
    """Chi-square value with right-tail area ``tail`` at ``df`` dof."""
    return float(special.chdtri(df, tail))


@functools.lru_cache(maxsize=4096)
def critical_values(
    confidence: float, df: int
) -> tuple[float, float, float]:
    """All Lemma-2 critical values for one ``(confidence, df)`` pair.

    Returns ``(mean_quantile, chi2_upper, chi2_lower)``: the t (or z, at
    and above the small-sample cutoff) quantile for the mean interval and
    the two chi-square critical values for the variance interval.  The
    stream hot path evaluates these per tuple with a handful of distinct
    ``(confidence, df)`` pairs — a constant window size yields exactly
    one — so one cache entry replaces three transcendental solves per
    tuple.
    """
    _check_confidence(confidence)
    if df < 1:
        raise AccuracyError(f"degrees of freedom must be >= 1, got {df}")
    alpha_half = (1.0 - confidence) / 2.0
    n = df + 1
    if n < SMALL_SAMPLE_MEAN_CUTOFF:
        mean_quantile = _t_upper(alpha_half, df)
    else:
        mean_quantile = _z_upper(alpha_half)
    return (
        mean_quantile,
        _chi2_upper(alpha_half, df),
        _chi2_upper(1.0 - alpha_half, df),
    )


#: Batches whose sample sizes take at most this many distinct values use
#: the memoized scalar quantiles instead of array ``scipy.special`` calls
#: (stream batches typically share one window size, i.e. one df).
_UNIQUE_DF_FAST_PATH = 16


def _check_confidence(confidence: float) -> float:
    if not 0.0 < confidence < 1.0:
        raise AccuracyError(
            f"confidence level must be in (0,1), got {confidence}"
        )
    return confidence


def _check_sample_size(n: int, minimum: int = 1) -> int:
    if n < minimum:
        raise AccuracyError(
            f"sample size must be >= {minimum}, got {n}"
        )
    return int(n)


def _as_proportions(p_vec: "np.ndarray | Sequence[float]") -> np.ndarray:
    p = np.asarray(p_vec, dtype=float).ravel()
    if p.size and (np.min(p) < 0.0 or np.max(p) > 1.0):
        raise AccuracyError("proportions must all be in [0,1]")
    return p


def _as_sizes(
    n: "int | np.ndarray | Sequence[int]", minimum: int = 1
) -> np.ndarray:
    arr = np.asarray(n)
    if arr.size and np.min(arr) < minimum:
        raise AccuracyError(
            f"sample sizes must all be >= {minimum}, got {arr.min()}"
        )
    return arr.astype(float)


# ---------------------------------------------------------------------------
# Lemma 1: bin-height / proportion intervals
# ---------------------------------------------------------------------------

def proportion_interval_wald(
    p: float, n: int, confidence: float = 0.95
) -> ConfidenceInterval:
    """Equation (1): the normal-approximation (Wald) proportion interval.

    ``p ± z_{(1-c)/2} * sqrt(p * (1-p) / n)``, clamped to [0, 1].
    """
    _check_confidence(confidence)
    _check_sample_size(n)
    if not 0.0 <= p <= 1.0:
        raise AccuracyError(f"proportion must be in [0,1], got {p}")
    z = _z_upper((1.0 - confidence) / 2.0)
    half = z * np.sqrt(p * (1.0 - p) / n)
    return ConfidenceInterval(p - half, p + half, confidence).clamped(0.0, 1.0)


def proportion_interval_wilson(
    p: float, n: int, confidence: float = 0.95
) -> ConfidenceInterval:
    """Equation (2): the Wilson score interval for small expected counts.

    ``(p + z^2/2n ± z * sqrt(p(1-p)/n + z^2/4n^2)) / (1 + z^2/n)``.
    """
    _check_confidence(confidence)
    _check_sample_size(n)
    if not 0.0 <= p <= 1.0:
        raise AccuracyError(f"proportion must be in [0,1], got {p}")
    z = _z_upper((1.0 - confidence) / 2.0)
    z2 = z * z
    center = p + z2 / (2.0 * n)
    half = z * np.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))
    denom = 1.0 + z2 / n
    return ConfidenceInterval(
        (center - half) / denom, (center + half) / denom, confidence
    ).clamped(0.0, 1.0)


def bin_height_interval(
    p: float, n: int, confidence: float = 0.95
) -> ConfidenceInterval:
    """Lemma 1 dispatch: Wald when valid, Wilson score otherwise."""
    if n * p >= WALD_VALIDITY_COUNT and n * (1.0 - p) >= WALD_VALIDITY_COUNT:
        return proportion_interval_wald(p, n, confidence)
    return proportion_interval_wilson(p, n, confidence)


# ---------------------------------------------------------------------------
# Vectorized batch kernels (array-in / array-out)
#
# The scalar functions above are the Lemma 1/2 reference; these kernels
# compute the same intervals for a whole vector of bins (or a whole batch
# of stream tuples) in one NumPy pass.  They must stay element-wise
# identical to the scalar path — tests/core/test_vectorized_kernels.py
# enforces agreement to 1e-12 including the dispatch boundaries.
# ---------------------------------------------------------------------------

def proportion_intervals_wald(
    p_vec: "np.ndarray | Sequence[float]",
    n: "int | np.ndarray",
    confidence: float = 0.95,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Equation (1): Wald intervals for a vector of proportions.

    Returns ``(low, high)`` arrays clamped to [0, 1]; ``n`` may be a
    scalar or a per-element array (broadcast against ``p_vec``).
    """
    _check_confidence(confidence)
    return _wald_kernel(
        _as_proportions(p_vec), _as_sizes(n), _z_upper((1.0 - confidence) / 2.0)
    )


def proportion_intervals_wilson(
    p_vec: "np.ndarray | Sequence[float]",
    n: "int | np.ndarray",
    confidence: float = 0.95,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Equation (2): Wilson score intervals, clamped to [0, 1]."""
    _check_confidence(confidence)
    return _wilson_kernel(
        _as_proportions(p_vec), _as_sizes(n), _z_upper((1.0 - confidence) / 2.0)
    )


def _wald_kernel(
    p: np.ndarray, n_arr: np.ndarray, z: float
) -> tuple[np.ndarray, np.ndarray]:
    """Equation (1) over validated proportions and sizes."""
    half = z * np.sqrt(p * (1.0 - p) / n_arr)
    low = np.minimum(np.maximum(p - half, 0.0), 1.0)
    high = np.maximum(np.minimum(p + half, 1.0), low)
    return low, high


def _wilson_kernel(
    p: np.ndarray, n_arr: np.ndarray, z: float
) -> tuple[np.ndarray, np.ndarray]:
    """Equation (2) over validated proportions and sizes."""
    z2 = z * z
    center = p + z2 / (2.0 * n_arr)
    half = z * np.sqrt(p * (1.0 - p) / n_arr + z2 / (4.0 * n_arr * n_arr))
    denom = 1.0 + z2 / n_arr
    low = np.minimum(np.maximum((center - half) / denom, 0.0), 1.0)
    high = np.maximum(np.minimum((center + half) / denom, 1.0), low)
    return low, high


def bin_height_intervals(
    p_vec: "np.ndarray | Sequence[float]",
    n: "int | np.ndarray",
    confidence: float = 0.95,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Lemma 1 dispatch over a vector of bin heights.

    Computes both interval families and selects per element with
    :func:`numpy.where` using the same validity rule as the scalar
    :func:`bin_height_interval` (``n·p >= 4 and n·(1−p) >= 4`` → Wald).
    Inputs are validated once, then both kernels run on them.
    """
    _check_confidence(confidence)
    p = _as_proportions(p_vec)
    n_arr = _as_sizes(n)
    z = _z_upper((1.0 - confidence) / 2.0)
    wald_lo, wald_hi = _wald_kernel(p, n_arr, z)
    wils_lo, wils_hi = _wilson_kernel(p, n_arr, z)
    use_wald = (n_arr * p >= WALD_VALIDITY_COUNT) & (
        n_arr * (1.0 - p) >= WALD_VALIDITY_COUNT
    )
    return np.where(use_wald, wald_lo, wils_lo), np.where(
        use_wald, wald_hi, wils_hi
    )


def histogram_accuracy(
    histogram: HistogramDistribution,
    n: int,
    confidence: float = 0.95,
    bin_eps: float = 0.0,
) -> tuple[BinInterval, ...]:
    """Per-bin accuracy of a histogram learned from a sample of size n.

    Returns the generalised representation ``{(b_i, p_i1, p_i2, c_i)}``
    of §II-B as a tuple of :class:`BinInterval`.  All bins are computed
    in one pass through :func:`bin_height_intervals`.

    ``bin_eps`` widens every interval by ``±bin_eps`` and clamps it to
    [0, 1] before the bins are built — element for element what
    :meth:`AccuracyInfo.widened` does to built bins, without building
    them twice (the sketch learners' synopsis error).
    """
    _check_sample_size(n)
    if bin_eps < 0:
        raise AccuracyError(f"bin widening must be >= 0, got {bin_eps}")
    lows, highs = bin_height_intervals(histogram.probabilities, n, confidence)
    if bin_eps:
        # ConfidenceInterval.clamped(0, 1), in array form.
        lows = np.minimum(np.maximum(lows - bin_eps, 0.0), 1.0)
        highs = np.maximum(np.minimum(highs + bin_eps, 1.0), lows)
    edges = histogram.edges.tolist()
    return tuple(
        BinInterval(
            edges[i], edges[i + 1], ConfidenceInterval(low, high, confidence)
        )
        for i, (low, high) in enumerate(zip(lows.tolist(), highs.tolist()))
    )


# ---------------------------------------------------------------------------
# Lemma 2: mean and variance intervals
# ---------------------------------------------------------------------------

def mean_interval(
    sample_mean: float,
    sample_std: float,
    n: int,
    confidence: float = 0.95,
) -> ConfidenceInterval:
    """Equations (3)/(4): t-interval for n < 30, z-interval for n >= 30."""
    _check_confidence(confidence)
    _check_sample_size(n, minimum=2)
    if sample_std < 0:
        raise AccuracyError(f"standard deviation must be >= 0, got {sample_std}")
    alpha_half = (1.0 - confidence) / 2.0
    if n < SMALL_SAMPLE_MEAN_CUTOFF:
        quantile = _t_upper(alpha_half, n - 1)
    else:
        quantile = _z_upper(alpha_half)
    half = quantile * sample_std / np.sqrt(n)
    # float() is bit-preserving; plain Python floats keep the scalar and
    # vectorized (accuracy_from_moments) paths byte-identical on the wire.
    return ConfidenceInterval(
        float(sample_mean - half), float(sample_mean + half), confidence
    )


def variance_interval(
    sample_variance: float,
    n: int,
    confidence: float = 0.95,
) -> ConfidenceInterval:
    """Equation (5): the chi-square interval for the variance.

    ``[(n-1)s^2 / chi2_{(1-c)/2},  (n-1)s^2 / chi2_{(1+c)/2}]`` where the
    subscripts locate right-tail areas, i.e. the denominators are the upper
    and lower chi-square critical values with n-1 degrees of freedom.
    """
    _check_confidence(confidence)
    _check_sample_size(n, minimum=2)
    if sample_variance < 0:
        raise AccuracyError(
            f"sample variance must be >= 0, got {sample_variance}"
        )
    alpha_half = (1.0 - confidence) / 2.0
    df = n - 1
    chi2_upper = _chi2_upper(alpha_half, df)        # area a/2 to the right
    chi2_lower = _chi2_upper(1.0 - alpha_half, df)  # area a/2 to the left
    low = df * sample_variance / chi2_upper
    high = df * sample_variance / chi2_lower
    return ConfidenceInterval(float(low), float(high), confidence)


def mean_intervals(
    sample_means: "np.ndarray | Sequence[float]",
    sample_stds: "np.ndarray | Sequence[float]",
    n: "int | np.ndarray | Sequence[int]",
    confidence: float = 0.95,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Equations (3)/(4) over a batch of sample statistics.

    ``n`` may be a scalar or per-element array; each element dispatches
    to the Student-t or z interval exactly as :func:`mean_interval`.
    """
    _check_confidence(confidence)
    means = np.asarray(sample_means, dtype=float).ravel()
    stds = np.asarray(sample_stds, dtype=float).ravel()
    if stds.size and np.min(stds) < 0:
        raise AccuracyError("standard deviations must all be >= 0")
    n_arr = np.broadcast_to(_as_sizes(n, minimum=2), means.shape)
    alpha_half = (1.0 - confidence) / 2.0
    small = n_arr < SMALL_SAMPLE_MEAN_CUTOFF
    quantile = np.full(means.shape, _z_upper(alpha_half))
    if np.any(small):
        small_ns = n_arr[small]
        unique_ns, inverse = np.unique(small_ns, return_inverse=True)
        if unique_ns.size <= _UNIQUE_DF_FAST_PATH:
            # Memoized per-df t quantiles: stream batches share one or
            # two window sizes, so this replaces a vector solve with a
            # table lookup (identical values — same scipy routine).
            table = np.array(
                [_t_upper(alpha_half, int(v) - 1) for v in unique_ns]
            )
            quantile[small] = table[inverse]
        else:
            quantile[small] = special.stdtrit(
                small_ns - 1.0, 1.0 - alpha_half
            )
    half = quantile * stds / np.sqrt(n_arr)
    return means - half, means + half


def variance_intervals(
    sample_variances: "np.ndarray | Sequence[float]",
    n: "int | np.ndarray | Sequence[int]",
    confidence: float = 0.95,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Equation (5) over a batch of sample variances."""
    _check_confidence(confidence)
    variances = np.asarray(sample_variances, dtype=float).ravel()
    if variances.size and np.min(variances) < 0:
        raise AccuracyError("sample variances must all be >= 0")
    n_arr = np.broadcast_to(_as_sizes(n, minimum=2), variances.shape)
    alpha_half = (1.0 - confidence) / 2.0
    df = n_arr - 1.0
    unique_ns, inverse = np.unique(n_arr, return_inverse=True)
    if unique_ns.size <= _UNIQUE_DF_FAST_PATH:
        # Memoized per-df chi-square critical values (see mean_intervals).
        upper_table = np.array(
            [_chi2_upper(alpha_half, int(v) - 1) for v in unique_ns]
        )
        lower_table = np.array(
            [_chi2_upper(1.0 - alpha_half, int(v) - 1) for v in unique_ns]
        )
        chi2_upper = upper_table[inverse]
        chi2_lower = lower_table[inverse]
    else:
        chi2_upper = special.chdtri(df, alpha_half)
        chi2_lower = special.chdtri(df, 1.0 - alpha_half)
    return df * variances / chi2_upper, df * variances / chi2_lower


# ---------------------------------------------------------------------------
# Theorem 1: accuracy of query results (and of learned source data)
# ---------------------------------------------------------------------------

def distribution_accuracy(
    distribution: Distribution,
    n: int,
    confidence: float = 0.95,
    sample_variance: float | None = None,
) -> AccuracyInfo:
    """Accuracy of a distribution given its (de facto) sample size.

    Per Theorem 1: use the distribution's mean and standard deviation as
    the sample statistics and ``n`` as the sample size.  If the
    distribution is a histogram, per-bin intervals (Lemma 1) are attached
    in addition to the mean/variance intervals.

    ``sample_variance`` overrides the variance statistic when the caller
    has the unbiased s^2 of an actual sample (the distribution's own
    ``variance()`` is a population quantity).
    """
    _check_sample_size(n, minimum=2)
    s2 = distribution.variance() if sample_variance is None else sample_variance
    s = float(np.sqrt(s2))
    info_mean = mean_interval(distribution.mean(), s, n, confidence)
    info_var = variance_interval(s2, n, confidence)
    bins: tuple[BinInterval, ...] = ()
    if isinstance(distribution, HistogramDistribution):
        bins = histogram_accuracy(distribution, n, confidence)
    return AccuracyInfo(
        mean=info_mean,
        variance=info_var,
        bins=bins,
        sample_size=n,
        method="analytic",
    )


def tuple_probability_interval(
    probability: float,
    n: int,
    confidence: float = 0.95,
) -> TupleProbabilityInterval:
    """Accuracy of a result tuple's membership probability.

    Theorem 1 treats the tuple probability as a one-bin histogram whose
    bin probability is the tuple probability, so Lemma 1 applies directly.
    """
    interval = bin_height_interval(probability, n, confidence)
    return TupleProbabilityInterval(interval)


def tuple_probability_intervals(
    probabilities: "np.ndarray | Sequence[float]",
    n: "int | np.ndarray | Sequence[int]",
    confidence: float = 0.95,
) -> tuple[TupleProbabilityInterval, ...]:
    """Vectorized :func:`tuple_probability_interval` over a result batch.

    ``n`` may be a scalar or a per-tuple array of d.f. sample sizes.
    """
    p = _as_proportions(probabilities)
    lows, highs = bin_height_intervals(p, n, confidence)
    return tuple(
        TupleProbabilityInterval(
            ConfidenceInterval(float(lows[i]), float(highs[i]), confidence)
        )
        for i in range(p.size)
    )


def accuracy_from_moments(
    sample_means: "np.ndarray | Sequence[float]",
    sample_variances: "np.ndarray | Sequence[float]",
    n: "int | np.ndarray | Sequence[int]",
    confidence: float = 0.95,
) -> tuple[AccuracyInfo, ...]:
    """Batched Theorem 1 for non-histogram results (the stream hot path).

    Given per-tuple means, variances and (de facto) sample sizes, one
    vectorized pass produces the mean and variance intervals of every
    tuple; only the per-tuple :class:`AccuracyInfo` wrappers are built in
    Python.  Element-wise identical to calling
    :func:`distribution_accuracy` per tuple.
    """
    if (
        isinstance(sample_means, (list, tuple))
        and len(sample_means) == 1
        and len(sample_variances) == 1
    ):
        # A one-row batch (``Pipeline.run``): the memoized scalar
        # kernels do the same float64 arithmetic without the array
        # passes, so the record is byte-identical.
        size = n[0] if isinstance(n, (list, tuple)) else n
        variance = float(sample_variances[0])
        info_var = variance_interval(variance, size, confidence)
        return (
            AccuracyInfo(
                mean=mean_interval(
                    float(sample_means[0]),
                    float(np.sqrt(variance)),
                    size,
                    confidence,
                ),
                variance=info_var,
                sample_size=int(size),
                method="analytic",
            ),
        )
    means = np.asarray(sample_means, dtype=float).ravel()
    variances = np.asarray(sample_variances, dtype=float).ravel()
    if means.shape != variances.shape:
        raise AccuracyError(
            f"means and variances must have the same length, got "
            f"{means.size} and {variances.size}"
        )
    n_arr = np.broadcast_to(
        np.asarray(n), means.shape
    )
    stds = np.sqrt(variances)
    mean_lo, mean_hi = mean_intervals(means, stds, n_arr, confidence)
    var_lo, var_hi = variance_intervals(variances, n_arr, confidence)
    return tuple(
        AccuracyInfo(
            mean=ConfidenceInterval(
                float(mean_lo[i]), float(mean_hi[i]), confidence
            ),
            variance=ConfidenceInterval(
                float(var_lo[i]), float(var_hi[i]), confidence
            ),
            sample_size=int(n_arr[i]),
            method="analytic",
        )
        for i in range(means.size)
    )


def accuracy_from_stats(
    sample_mean: float,
    sample_variance: float,
    n: int,
    confidence: float = 0.95,
    histogram: HistogramDistribution | None = None,
    bin_eps: float = 0.0,
) -> AccuracyInfo:
    """Accuracy info from pre-computed sufficient statistics.

    The rolling-learner path (``partial_add``/``partial_evict``) keeps
    the sample mean and unbiased variance incrementally and never
    materialises the observation array, so it builds accuracy from the
    statistics directly.  Given the statistics of the same sample this
    is identical to :func:`accuracy_from_sample` — both reuse the
    memoized Lemma 1/2 interval kernels above.  ``bin_eps`` widens the
    per-bin intervals (see :func:`histogram_accuracy`).
    """
    n = _check_sample_size(n, minimum=2)
    if sample_variance < 0:
        raise AccuracyError(
            f"sample variance must be >= 0, got {sample_variance}"
        )
    s = float(np.sqrt(sample_variance))
    info_mean = mean_interval(sample_mean, s, n, confidence)
    info_var = variance_interval(sample_variance, n, confidence)
    bins: tuple[BinInterval, ...] = ()
    if histogram is not None:
        bins = histogram_accuracy(histogram, n, confidence, bin_eps)
    return AccuracyInfo(
        mean=info_mean,
        variance=info_var,
        bins=bins,
        sample_size=n,
        method="analytic",
    )


def accuracy_from_sample(
    values: "np.ndarray | list[float]",
    confidence: float = 0.95,
    histogram: HistogramDistribution | None = None,
) -> AccuracyInfo:
    """Accuracy info computed directly from a raw observation sample.

    This is the source-data path: given the n observations a distribution
    was learned from, produce mean/variance intervals (Lemma 2) and,
    when a learned ``histogram`` is supplied, per-bin intervals (Lemma 1).
    """
    arr = np.asarray(values, dtype=float).ravel()
    n = _check_sample_size(arr.size, minimum=2)
    sample_mean = float(arr.mean())
    s2 = float(arr.var(ddof=1))
    s = float(np.sqrt(s2))
    info_mean = mean_interval(sample_mean, s, n, confidence)
    info_var = variance_interval(s2, n, confidence)
    bins: tuple[BinInterval, ...] = ()
    if histogram is not None:
        bins = histogram_accuracy(histogram, n, confidence)
    return AccuracyInfo(
        mean=info_mean,
        variance=info_var,
        bins=bins,
        sample_size=n,
        method="analytic",
    )
