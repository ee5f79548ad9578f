"""Bootstrap accuracy methods — algorithm BOOTSTRAP-ACCURACY-INFO (§III).

The algorithm consumes the sequence of values of an output random variable
(produced by Monte-Carlo query processing, or sampled from a closed-form
result distribution), chops it into ``r = floor(m / n)`` de-facto
resamples of size ``n`` (the d.f. sample size of the output, Lemma 3),
computes each statistic once per resample, and reports the percentile
interval of each statistic across the resamples.

Theorem 2 argues correctness: the chunks are resamples of the ``c`` d.f.
samples counted by Lemma 4, so this is a concurrent bootstrap whose mixture
distribution yields valid percentile intervals.

For the ablation study we also provide the classical single-sample
with-replacement bootstrap (:func:`classical_bootstrap_accuracy`).
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence

import numpy as np

from repro.core.accuracy import AccuracyInfo, BinInterval, ConfidenceInterval
from repro.errors import AccuracyError

__all__ = [
    "TRUNCATION_WARN_FRACTION",
    "percentile_interval",
    "percentile_intervals",
    "bootstrap_accuracy_info",
    "bootstrap_accuracy_batch",
    "classical_bootstrap_accuracy",
]

# bootstrap_accuracy_info warns when chunking drops more than this
# fraction of the Monte-Carlo values (m mod n can be almost n-1 values).
TRUNCATION_WARN_FRACTION = 0.25


def _sorted_percentile(sorted_values: np.ndarray, q: float) -> float:
    """Linear-interpolation percentile of an already-sorted 1-D array.

    Matches numpy's default 'linear' method, without the per-call
    dispatch overhead that dominates at stream rates.
    """
    position = q * (sorted_values.size - 1)
    below = int(position)
    above = min(below + 1, sorted_values.size - 1)
    fraction = position - below
    # Lerp as base + fraction*delta: exact when both endpoints are
    # equal, so constant sequences cannot produce inverted intervals.
    base = float(sorted_values[below])
    return base + fraction * (float(sorted_values[above]) - base)


def percentile_interval(
    statistic_values: np.ndarray, confidence: float
) -> ConfidenceInterval:
    """The alpha percentile interval over a statistic's bootstrap values.

    Lines 12-15 of the algorithm: the interval between the
    ``100*(1-alpha)/2`` and ``100*(1+alpha)/2`` percentiles.
    """
    if not 0.0 < confidence < 1.0:
        raise AccuracyError(
            f"confidence level must be in (0,1), got {confidence}"
        )
    arr = np.asarray(statistic_values, dtype=float).ravel()
    if arr.size == 0:
        raise AccuracyError("cannot take percentiles of an empty sequence")
    arr = np.sort(arr)
    low = _sorted_percentile(arr, (1.0 - confidence) / 2.0)
    high = _sorted_percentile(arr, (1.0 + confidence) / 2.0)
    # low <= high mathematically; guard the last-ulp rounding cases.
    return ConfidenceInterval(min(low, high), high, confidence)


def _matrix_percentile(sorted_matrix: np.ndarray, q: float) -> np.ndarray:
    """Column-wise :func:`_sorted_percentile` of a matrix sorted on axis 0."""
    position = q * (sorted_matrix.shape[0] - 1)
    below = int(position)
    above = min(below + 1, sorted_matrix.shape[0] - 1)
    fraction = position - below
    # Same exact-when-equal lerp form as _sorted_percentile.
    base = sorted_matrix[below]
    return base + fraction * (sorted_matrix[above] - base)


def percentile_intervals(
    statistic_matrix: np.ndarray, confidence: float
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized percentile intervals over a ``(r, b)`` statistic matrix.

    Column ``k`` holds the ``r`` bootstrap values of statistic ``k``
    (e.g. the heights of histogram bin ``k`` across resamples); one sort
    along axis 0 replaces ``b`` scalar :func:`percentile_interval` calls.
    Returns ``(low, high)`` arrays of length ``b``.
    """
    if not 0.0 < confidence < 1.0:
        raise AccuracyError(
            f"confidence level must be in (0,1), got {confidence}"
        )
    matrix = np.asarray(statistic_matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise AccuracyError(
            "percentile_intervals needs a non-empty 2-D (r, b) matrix, got "
            f"shape {matrix.shape}"
        )
    matrix = np.sort(matrix, axis=0)
    low = _matrix_percentile(matrix, (1.0 - confidence) / 2.0)
    high = _matrix_percentile(matrix, (1.0 + confidence) / 2.0)
    # low <= high mathematically; guard the last-ulp rounding cases.
    return np.minimum(low, high), high


def _resample_statistics(
    chunks: np.ndarray, edges: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Per-resample (mean, variance, bin-height) statistics.

    ``chunks`` has shape (r, n); returns means (r,), variances (r,) and,
    when ``edges`` is given, bin heights with shape (r, b).
    """
    r, n = chunks.shape
    # Row-wise pairwise reductions, NOT a matmul: BLAS GEMV picks
    # row-count-dependent kernels, so per-row dot products can differ in
    # the last ulp between an (r, n) call and the same rows split across
    # calls.  The adaptive engine (per-round blocks) relies on chunk
    # statistics being a pure function of the chunk row alone for
    # bitwise reproducibility.
    means = chunks.mean(axis=1)
    if n > 1:
        second_moments = (chunks * chunks).mean(axis=1)
        variances = (second_moments - means * means) * (n / (n - 1.0))
        np.clip(variances, 0.0, None, out=variances)
    else:
        variances = np.zeros(r)
    heights = None
    if edges is not None:
        heights = _chunk_bin_heights(chunks, edges)
    return means, variances, heights


def _chunk_bin_heights(chunks: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bin heights of every chunk row in one pass, shape ``(r, b)``.

    One ``searchsorted`` + ``bincount`` over the flattened ``(r, n)``
    matrix replaces the per-row ``np.histogram`` loop while keeping its
    semantics: bin ``k`` covers ``[edges[k], edges[k+1])``, the last bin
    is closed on the right, and out-of-range values are ignored.
    """
    r, n = chunks.shape
    b = edges.size - 1
    flat = chunks.ravel()
    idx = np.searchsorted(edges, flat, side="right") - 1
    idx[flat == edges[-1]] = b - 1
    valid = (idx >= 0) & (idx < b)
    rows = np.repeat(np.arange(r), n)
    counts = np.bincount(
        rows[valid] * b + idx[valid], minlength=r * b
    ).reshape(r, b)
    return counts / n


def _basic_interval(
    percentile_ci: ConfidenceInterval, point_estimate: float
) -> ConfidenceInterval:
    """The 'basic' (reflected) bootstrap interval 2*theta - [q_hi, q_lo].

    Reflecting the percentile interval around the full-sequence point
    estimate corrects first-order bootstrap bias; offered as an
    alternative to the paper's plain percentile interval for the
    ablation study.
    """
    return ConfidenceInterval(
        2.0 * point_estimate - percentile_ci.high,
        2.0 * point_estimate - percentile_ci.low,
        percentile_ci.confidence,
    )


def bootstrap_accuracy_info(
    values: Sequence[float] | np.ndarray,
    n: int,
    confidence: float = 0.95,
    edges: Sequence[float] | None = None,
    interval: str = "percentile",
) -> AccuracyInfo:
    """Algorithm BOOTSTRAP-ACCURACY-INFO(v[.], n, alpha).

    Parameters
    ----------
    values:
        The ``m`` values of the output random variable Y, in production
        order (line 4 reads them chunk by chunk).
    n:
        The d.f. sample size of Y (Lemma 3).
    confidence:
        The interval confidence level alpha.
    edges:
        Optional histogram bucket edges; when given, per-bin height
        intervals are produced too (lines 6-8, 12-14).
    interval:
        ``"percentile"`` — the paper's percentile interval (default);
        ``"basic"`` — the reflected/basic bootstrap interval for the
        mean and variance (bin heights always use percentiles).
    """
    if interval not in ("percentile", "basic"):
        raise AccuracyError(
            f"interval must be 'percentile' or 'basic', got {interval!r}"
        )
    arr = np.asarray(values, dtype=float).ravel()
    if n < 1:
        raise AccuracyError(f"d.f. sample size must be >= 1, got {n}")
    r = arr.size // n
    if r < 2:
        raise AccuracyError(
            f"need at least 2 resamples; got m={arr.size} values for n={n} "
            f"(m must be >= 2n — callers drawing Monte-Carlo values must "
            f"request mc_samples >= 2n)"
        )
    values_used = r * n
    values_dropped = arr.size - values_used
    if values_dropped > TRUNCATION_WARN_FRACTION * arr.size:
        warnings.warn(
            f"bootstrap chunking dropped {values_dropped} of {arr.size} "
            f"Monte-Carlo values (m mod n with n={n}); draw a multiple of "
            f"n values to use them all",
            stacklevel=2,
        )
    chunks = arr[:values_used].reshape(r, n)
    edges_arr = None if edges is None else np.asarray(edges, dtype=float)
    means, variances, heights = _resample_statistics(chunks, edges_arr)

    mean_ci = percentile_interval(means, confidence)
    var_ci = percentile_interval(variances, confidence)
    if interval == "basic":
        used = arr[: r * n]
        mean_ci = _basic_interval(mean_ci, float(used.mean()))
        var_point = float(used.var(ddof=1)) if used.size > 1 else 0.0
        var_ci = _basic_interval(var_ci, var_point)
        var_ci = ConfidenceInterval(
            max(var_ci.low, 0.0), max(var_ci.high, 0.0), confidence
        )
    bins: tuple[BinInterval, ...] = ()
    if heights is not None:
        assert edges_arr is not None
        bins = _height_bins(heights, edges_arr, confidence)
    return AccuracyInfo(
        mean=mean_ci,
        variance=var_ci,
        bins=bins,
        sample_size=n,
        method="bootstrap",
        values_used=values_used,
        values_dropped=values_dropped,
        draws_used=int(arr.size),
        rounds=1,
    )


def _height_bins(
    heights: np.ndarray, edges: np.ndarray, confidence: float
) -> tuple[BinInterval, ...]:
    """Per-bin percentile intervals from an ``(r, b)`` height matrix."""
    lows, highs = percentile_intervals(heights, confidence)
    lows = np.minimum(np.maximum(lows, 0.0), 1.0)
    highs = np.maximum(np.minimum(highs, 1.0), lows)
    return tuple(
        BinInterval(
            float(edges[k]),
            float(edges[k + 1]),
            ConfidenceInterval(float(lows[k]), float(highs[k]), confidence),
        )
        for k in range(heights.shape[1])
    )


def bootstrap_accuracy_batch(
    value_matrix: np.ndarray,
    n: int,
    confidence: float = 0.95,
    edges: Sequence[float] | None = None,
    interval: str = "percentile",
) -> tuple[AccuracyInfo, ...]:
    """BOOTSTRAP-ACCURACY-INFO for a whole batch of output variables.

    ``value_matrix`` has shape ``(t, m)``: row ``i`` holds the ``m``
    Monte-Carlo values of tuple ``i``'s output variable, all sharing the
    d.f. sample size ``n``.  The chunk statistics and percentile
    intervals of every tuple are computed in one vectorized pass — this
    is the stream hot path behind ``Pipeline.run_batched``.  Row ``i`` of
    the result matches ``bootstrap_accuracy_info(value_matrix[i], n,
    confidence, edges, interval)``, including the truncation warning
    when chunking drops more than ``TRUNCATION_WARN_FRACTION`` of each
    row's values (one warning covers the whole batch).
    """
    if interval not in ("percentile", "basic"):
        raise AccuracyError(
            f"interval must be 'percentile' or 'basic', got {interval!r}"
        )
    matrix = np.asarray(value_matrix, dtype=float)
    if matrix.ndim != 2:
        raise AccuracyError(
            f"value matrix must be 2-D (tuples, values), got shape "
            f"{matrix.shape}"
        )
    if n < 1:
        raise AccuracyError(f"d.f. sample size must be >= 1, got {n}")
    t, m = matrix.shape
    r = m // n
    if r < 2:
        raise AccuracyError(
            f"need at least 2 resamples; got m={m} values for n={n} "
            f"(m must be >= 2n — callers drawing Monte-Carlo values must "
            f"request mc_samples >= 2n)"
        )
    values_used = r * n
    values_dropped = m - values_used
    if values_dropped > TRUNCATION_WARN_FRACTION * m:
        warnings.warn(
            f"bootstrap chunking dropped {values_dropped} of {m} "
            f"Monte-Carlo values per row (m mod n with n={n}, "
            f"{t} rows); draw a multiple of n values to use them all",
            stacklevel=2,
        )
    chunks = matrix[:, :values_used].reshape(t * r, n)
    edges_arr = None if edges is None else np.asarray(edges, dtype=float)
    means, variances, heights = _resample_statistics(chunks, edges_arr)
    # Statistic matrices with resamples on axis 0 and tuples on axis 1.
    mean_lo, mean_hi = percentile_intervals(
        means.reshape(t, r).T, confidence
    )
    var_lo, var_hi = percentile_intervals(
        variances.reshape(t, r).T, confidence
    )
    per_row_bins: list[tuple[BinInterval, ...]] | None = None
    if heights is not None:
        assert edges_arr is not None
        # (t*r, b) tuple-major rows -> per-row (r, b) height matrices.
        stacked = heights.reshape(t, r, -1)
        per_row_bins = [
            _height_bins(stacked[i], edges_arr, confidence)
            for i in range(t)
        ]
    results = []
    for i in range(t):
        mean_ci = ConfidenceInterval(
            float(mean_lo[i]), float(mean_hi[i]), confidence
        )
        var_ci = ConfidenceInterval(
            float(var_lo[i]), float(var_hi[i]), confidence
        )
        if interval == "basic":
            used = matrix[i, :values_used]
            mean_ci = _basic_interval(mean_ci, float(used.mean()))
            var_point = float(used.var(ddof=1)) if used.size > 1 else 0.0
            var_ci = _basic_interval(var_ci, var_point)
            var_ci = ConfidenceInterval(
                max(var_ci.low, 0.0), max(var_ci.high, 0.0), confidence
            )
        results.append(
            AccuracyInfo(
                mean=mean_ci,
                variance=var_ci,
                bins=per_row_bins[i] if per_row_bins is not None else (),
                sample_size=n,
                method="bootstrap",
                values_used=values_used,
                values_dropped=values_dropped,
                draws_used=m,
                rounds=1,
            )
        )
    return tuple(results)


def classical_bootstrap_accuracy(
    sample: Sequence[float] | np.ndarray,
    rng: np.random.Generator,
    confidence: float = 0.95,
    n_resamples: int = 200,
    edges: Sequence[float] | None = None,
) -> AccuracyInfo:
    """Classical with-replacement bootstrap from one sample (ablation).

    Unlike the paper's chunked algorithm, this resamples the *original*
    sample with replacement ``n_resamples`` times; used by the ablation
    bench to compare the two bootstrap designs.
    """
    arr = np.asarray(sample, dtype=float).ravel()
    if arr.size < 2:
        raise AccuracyError("classical bootstrap needs a sample of size >= 2")
    if n_resamples < 2:
        raise AccuracyError("need at least 2 resamples")
    n = arr.size
    idx = rng.integers(0, n, size=(n_resamples, n))
    chunks = arr[idx]
    edges_arr = None if edges is None else np.asarray(edges, dtype=float)
    means, variances, heights = _resample_statistics(chunks, edges_arr)

    mean_ci = percentile_interval(means, confidence)
    var_ci = percentile_interval(variances, confidence)
    bins: tuple[BinInterval, ...] = ()
    if heights is not None:
        assert edges_arr is not None
        bins = _height_bins(heights, edges_arr, confidence)
    return AccuracyInfo(
        mean=mean_ci,
        variance=var_ci,
        bins=bins,
        sample_size=n,
        method="bootstrap",
        values_used=arr.size,
        values_dropped=0,
        draws_used=n_resamples * n,
        rounds=1,
    )
