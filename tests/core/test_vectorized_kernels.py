"""Property tests: vectorized batch kernels vs. the scalar Lemma 1/2 path.

The scalar functions in :mod:`repro.core.analytic` and the scalar
:func:`repro.core.bootstrap.percentile_interval` are the reference
implementations of the paper's formulas; the array-in/array-out kernels
must match them element-wise (within 1e-12), including:

* the Wald/Wilson dispatch boundaries (``p`` in {0, 1}, ``n·p``
  straddling ``WALD_VALIDITY_COUNT``),
* the Student-t/z switch at ``n = SMALL_SAMPLE_MEAN_CUTOFF``,
* the per-row chunk statistics and percentile intervals of the
  bootstrap batch kernel.
"""

import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analytic import (
    SMALL_SAMPLE_MEAN_CUTOFF,
    WALD_VALIDITY_COUNT,
    accuracy_from_moments,
    bin_height_interval,
    bin_height_intervals,
    distribution_accuracy,
    mean_interval,
    mean_intervals,
    proportion_interval_wald,
    proportion_interval_wilson,
    proportion_intervals_wald,
    proportion_intervals_wilson,
    tuple_probability_interval,
    tuple_probability_intervals,
    variance_interval,
    variance_intervals,
)
from repro.core.bootstrap import (
    bootstrap_accuracy_batch,
    bootstrap_accuracy_info,
    percentile_interval,
    percentile_intervals,
)
from repro.distributions.gaussian import GaussianDistribution
from repro.errors import AccuracyError

TOL = 1e-12

proportions = st.floats(min_value=0.0, max_value=1.0)
confidences = st.floats(min_value=0.01, max_value=0.99)
sample_sizes = st.integers(min_value=2, max_value=10_000)


def assert_intervals_match(lows, highs, scalar_cis):
    for i, ci in enumerate(scalar_cis):
        assert abs(lows[i] - ci.low) <= TOL
        assert abs(highs[i] - ci.high) <= TOL


class TestProportionKernels:
    @given(
        p_vec=st.lists(proportions, min_size=1, max_size=40),
        n=sample_sizes,
        c=confidences,
    )
    @settings(max_examples=200, deadline=None)
    def test_wald_matches_scalar(self, p_vec, n, c):
        lows, highs = proportion_intervals_wald(p_vec, n, c)
        assert_intervals_match(
            lows, highs, [proportion_interval_wald(p, n, c) for p in p_vec]
        )

    @given(
        p_vec=st.lists(proportions, min_size=1, max_size=40),
        n=sample_sizes,
        c=confidences,
    )
    @settings(max_examples=200, deadline=None)
    def test_wilson_matches_scalar(self, p_vec, n, c):
        lows, highs = proportion_intervals_wilson(p_vec, n, c)
        assert_intervals_match(
            lows, highs, [proportion_interval_wilson(p, n, c) for p in p_vec]
        )

    @given(
        p_vec=st.lists(proportions, min_size=1, max_size=40),
        n=sample_sizes,
        c=confidences,
    )
    @settings(max_examples=300, deadline=None)
    def test_dispatch_matches_scalar(self, p_vec, n, c):
        lows, highs = bin_height_intervals(p_vec, n, c)
        assert_intervals_match(
            lows, highs, [bin_height_interval(p, n, c) for p in p_vec]
        )

    @given(n=sample_sizes, c=confidences)
    @settings(max_examples=150, deadline=None)
    def test_dispatch_boundaries(self, n, c):
        # p in {0, 1} plus proportions placing n*p exactly at, just
        # below, and just above the Wald validity count on both tails.
        boundary = WALD_VALIDITY_COUNT / n
        candidates = [
            0.0, 1.0,
            boundary, np.nextafter(boundary, 0), np.nextafter(boundary, 1),
            1.0 - boundary, 0.5,
        ]
        p_vec = [p for p in candidates if 0.0 <= p <= 1.0]
        lows, highs = bin_height_intervals(p_vec, n, c)
        assert_intervals_match(
            lows, highs, [bin_height_interval(p, n, c) for p in p_vec]
        )

    def test_rejects_out_of_range_proportions(self):
        with pytest.raises(AccuracyError):
            bin_height_intervals([0.5, 1.5], 10)
        with pytest.raises(AccuracyError):
            bin_height_intervals([-0.1], 10)

    def test_rejects_bad_sizes(self):
        with pytest.raises(AccuracyError):
            bin_height_intervals([0.5], 0)

    def test_vector_sample_sizes_broadcast(self):
        p_vec = [0.01, 0.5, 0.99]
        ns = [5, 50, 500]
        lows, highs = bin_height_intervals(p_vec, ns, 0.9)
        assert_intervals_match(
            lows,
            highs,
            [bin_height_interval(p, n, 0.9) for p, n in zip(p_vec, ns)],
        )


class TestMeanVarianceKernels:
    @given(
        stats=st.lists(
            st.tuples(
                st.floats(min_value=-1e6, max_value=1e6),
                st.floats(min_value=0.0, max_value=1e6),
                sample_sizes,
            ),
            min_size=1,
            max_size=30,
        ),
        c=confidences,
    )
    @settings(max_examples=200, deadline=None)
    def test_mean_intervals_match_scalar(self, stats, c):
        means = [m for m, _, _ in stats]
        stds = [s for _, s, _ in stats]
        ns = [n for _, _, n in stats]
        lows, highs = mean_intervals(means, stds, ns, c)
        assert_intervals_match(
            lows,
            highs,
            [mean_interval(m, s, n, c) for m, s, n in stats],
        )

    @given(c=confidences)
    @settings(max_examples=100, deadline=None)
    def test_mean_intervals_straddle_t_z_cutoff(self, c):
        ns = [
            SMALL_SAMPLE_MEAN_CUTOFF - 1,
            SMALL_SAMPLE_MEAN_CUTOFF,
            SMALL_SAMPLE_MEAN_CUTOFF + 1,
        ]
        lows, highs = mean_intervals([1.0] * 3, [2.0] * 3, ns, c)
        assert_intervals_match(
            lows, highs, [mean_interval(1.0, 2.0, n, c) for n in ns]
        )

    @given(
        stats=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e6), sample_sizes
            ),
            min_size=1,
            max_size=30,
        ),
        c=confidences,
    )
    @settings(max_examples=200, deadline=None)
    def test_variance_intervals_match_scalar(self, stats, c):
        variances = [v for v, _ in stats]
        ns = [n for _, n in stats]
        lows, highs = variance_intervals(variances, ns, c)
        assert_intervals_match(
            lows, highs, [variance_interval(v, n, c) for v, n in stats]
        )

    def test_rejects_negative_std(self):
        with pytest.raises(AccuracyError):
            mean_intervals([0.0], [-1.0], 10)

    def test_rejects_negative_variance(self):
        with pytest.raises(AccuracyError):
            variance_intervals([-1e-9], 10)

    def test_rejects_undersized_samples(self):
        with pytest.raises(AccuracyError):
            mean_intervals([0.0], [1.0], 1)
        with pytest.raises(AccuracyError):
            variance_intervals([1.0], [5, 1])


class TestBatchedAccuracyInfo:
    def test_accuracy_from_moments_matches_distribution_accuracy(self):
        rng = np.random.default_rng(7)
        means = rng.normal(0, 50, 25)
        variances = rng.uniform(0.01, 20, 25)
        ns = rng.integers(2, 200, 25)
        infos = accuracy_from_moments(means, variances, ns, 0.9)
        for i, info in enumerate(infos):
            ref = distribution_accuracy(
                GaussianDistribution(float(means[i]), float(variances[i])),
                int(ns[i]),
                0.9,
            )
            assert abs(info.mean.low - ref.mean.low) <= TOL
            assert abs(info.mean.high - ref.mean.high) <= TOL
            assert abs(info.variance.low - ref.variance.low) <= TOL
            assert abs(info.variance.high - ref.variance.high) <= TOL
            assert info.sample_size == ref.sample_size
            assert info.method == "analytic"

    @pytest.mark.parametrize("n", [2, 7, 29, 30, 1000])
    def test_one_element_batch_is_byte_identical(self, n):
        # One-row batches take the memoized scalar kernels; the record
        # must pickle exactly like the scalar reference and like the
        # same row inside a multi-row (array) batch.
        rng = np.random.default_rng(n)
        for mean, variance in zip(
            rng.normal(0, 50, 8).tolist(), rng.uniform(0.0, 20, 8).tolist()
        ):
            ref = distribution_accuracy(
                GaussianDistribution(mean, variance), n, 0.9
            )
            (one,) = accuracy_from_moments([mean], [variance], [n], 0.9)
            (scalar_n,) = accuracy_from_moments((mean,), (variance,), n, 0.9)
            in_batch = accuracy_from_moments(
                [mean, 1.0], [variance, 1.0], [n, 5], 0.9
            )[0]
            assert pickle.dumps(one) == pickle.dumps(ref)
            assert pickle.dumps(scalar_n) == pickle.dumps(ref)
            assert pickle.dumps(in_batch) == pickle.dumps(ref)

    def test_one_element_batch_rejects_like_the_array_path(self):
        with pytest.raises(AccuracyError):
            accuracy_from_moments([0.0], [-1.0], [10])
        with pytest.raises(AccuracyError):
            accuracy_from_moments([0.0], [1.0], [1])

    def test_accuracy_from_moments_rejects_shape_mismatch(self):
        with pytest.raises(AccuracyError):
            accuracy_from_moments([0.0, 1.0], [1.0], 10)

    def test_tuple_probability_intervals_match_scalar(self):
        probabilities = [0.0, 0.05, 0.5, 0.95, 1.0]
        batch = tuple_probability_intervals(probabilities, 40, 0.9)
        for p, tpi in zip(probabilities, batch):
            ref = tuple_probability_interval(p, 40, 0.9)
            assert abs(tpi.interval.low - ref.interval.low) <= TOL
            assert abs(tpi.interval.high - ref.interval.high) <= TOL


class TestPercentileIntervals:
    @given(
        r=st.integers(min_value=1, max_value=50),
        b=st.integers(min_value=1, max_value=12),
        c=confidences,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_columnwise(self, r, b, c, seed):
        matrix = np.random.default_rng(seed).normal(0, 3, (r, b))
        lows, highs = percentile_intervals(matrix, c)
        for k in range(b):
            ref = percentile_interval(matrix[:, k], c)
            assert abs(lows[k] - ref.low) <= TOL
            assert abs(highs[k] - ref.high) <= TOL

    def test_rejects_empty_and_1d(self):
        with pytest.raises(AccuracyError):
            percentile_intervals(np.empty((0, 3)), 0.9)
        with pytest.raises(AccuracyError):
            percentile_intervals(np.zeros(5), 0.9)

    def test_rejects_bad_confidence(self):
        with pytest.raises(AccuracyError):
            percentile_intervals(np.zeros((3, 2)), 1.0)


class TestBootstrapBatchKernel:
    @given(
        t=st.integers(min_value=1, max_value=10),
        n=st.integers(min_value=2, max_value=25),
        r=st.integers(min_value=2, max_value=15),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_match_per_tuple_algorithm(self, t, n, r, seed):
        matrix = np.random.default_rng(seed).normal(10, 4, (t, r * n))
        batch = bootstrap_accuracy_batch(matrix, n, 0.9)
        for i in range(t):
            ref = bootstrap_accuracy_info(matrix[i], n, 0.9)
            assert abs(batch[i].mean.low - ref.mean.low) <= TOL
            assert abs(batch[i].mean.high - ref.mean.high) <= TOL
            assert abs(batch[i].variance.low - ref.variance.low) <= TOL
            assert abs(batch[i].variance.high - ref.variance.high) <= TOL
            assert batch[i].values_used == ref.values_used
            assert batch[i].values_dropped == ref.values_dropped

    def test_truncation_recorded(self):
        matrix = np.random.default_rng(0).normal(0, 1, (3, 45))
        batch = bootstrap_accuracy_batch(matrix, 10, 0.9)
        assert all(info.values_used == 40 for info in batch)
        assert all(info.values_dropped == 5 for info in batch)

    def test_rejects_too_few_values(self):
        with pytest.raises(AccuracyError, match="m must be >= 2n"):
            bootstrap_accuracy_batch(np.zeros((2, 15)), 10, 0.9)

    def test_rejects_non_matrix(self):
        with pytest.raises(AccuracyError):
            bootstrap_accuracy_batch(np.zeros(30), 10, 0.9)

    def test_batch_surfaces_truncation_warning(self):
        # 200 mod 70 = 60 dropped per row: 30% > the 25% threshold.
        matrix = np.random.default_rng(9).normal(0.0, 1.0, size=(6, 200))
        with pytest.warns(
            UserWarning, match="bootstrap chunking dropped"
        ) as record:
            bootstrap_accuracy_batch(matrix, 70, 0.9)
        assert len(record) == 1  # one warning covers the whole batch

    def test_row_slabs_each_warn_on_truncation(self):
        # Bootstrapping the rows slab by slab warns once per slab and
        # records the same truncation as the whole-matrix call.
        matrix = np.random.default_rng(9).normal(0.0, 1.0, size=(6, 200))
        with pytest.warns(UserWarning, match="bootstrap chunking dropped"):
            whole = bootstrap_accuracy_batch(matrix, 70, 0.9)
        with pytest.warns(
            UserWarning, match="bootstrap chunking dropped"
        ) as record:
            slabs = [
                info
                for start in range(0, 6, 2)
                for info in bootstrap_accuracy_batch(
                    matrix[start:start + 2], 70, 0.9
                )
            ]
        assert len(record) == 3
        assert [info.values_dropped for info in slabs] == [60] * 6
        assert [info.values_used for info in slabs] == [
            info.values_used for info in whole
        ]

    def test_batch_below_threshold_is_silent(self):
        # 200 mod 30 = 20 dropped per row: 10% < the 25% threshold.
        matrix = np.random.default_rng(9).normal(0.0, 1.0, size=(6, 200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bootstrap_accuracy_batch(matrix, 30, 0.9)

    def test_batch_edges_and_interval_thread_through(self):
        matrix = np.random.default_rng(5).normal(0.0, 1.0, size=(6, 200))
        edges = (-1.0, 0.0, 1.0)
        batch = bootstrap_accuracy_batch(
            matrix, 20, 0.9, edges=edges, interval="basic"
        )
        assert all(len(info.bins) == 2 for info in batch)
        for row, info in zip(matrix, batch):
            ref = bootstrap_accuracy_info(
                row, 20, 0.9, edges=edges, interval="basic"
            )
            assert abs(info.mean.low - ref.mean.low) <= TOL
            assert abs(info.mean.high - ref.mean.high) <= TOL
            assert abs(info.variance.low - ref.variance.low) <= TOL
            assert abs(info.variance.high - ref.variance.high) <= TOL
            for got, want in zip(info.bins, ref.bins):
                assert abs(got.interval.low - want.interval.low) <= TOL
                assert abs(got.interval.high - want.interval.high) <= TOL


class TestChunkBinHeights:
    @given(
        n=st.integers(min_value=2, max_value=30),
        r=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_bins_match_np_histogram(self, n, r, seed):
        rng = np.random.default_rng(seed)
        edges = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
        # Mix continuous values with exact edge hits and out-of-range
        # values so every np.histogram corner case is exercised.
        values = rng.normal(0, 1.5, r * n)
        specials = rng.choice(
            [-4.0, -3.0, -1.0, 0.0, 1.0, 3.0, 4.0], size=max(1, r * n // 4)
        )
        values[: specials.size] = specials
        rng.shuffle(values)
        info = bootstrap_accuracy_info(values, n, 0.9, edges=edges)
        chunks = values[: r * n].reshape(r, n)
        heights = np.array(
            [np.histogram(c, bins=edges)[0] / n for c in chunks]
        )
        for k, bin_interval in enumerate(info.bins):
            ref = percentile_interval(heights[:, k], 0.9).clamped(0.0, 1.0)
            assert abs(bin_interval.interval.low - ref.low) <= TOL
            assert abs(bin_interval.interval.high - ref.high) <= TOL
