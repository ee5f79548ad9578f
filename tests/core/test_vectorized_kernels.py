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

The residual kernels that decide WHERE clauses in arrays are held to a
stricter bar: the Gaussian tail probability and the mTest verdicts must
equal their scalar twins bit for bit on every row, because the query
paths emit their values as they are.  So must the Lemma-1 tuple
probability intervals, in value and in type.
"""

import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from repro.core.analytic import (
    SMALL_SAMPLE_MEAN_CUTOFF,
    WALD_VALIDITY_COUNT,
    _chi2_upper,
    _t_upper,
    accuracy_from_moments,
    accuracy_from_stats,
    bin_height_interval,
    bin_height_intervals,
    distribution_accuracy,
    histograms_accuracy,
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
from repro.core.coupled import (
    UNDECIDED,
    VERDICTS,
    ThreeValued,
    coupled_tests,
    m_test_verdicts,
)
from repro.core.predicates import FieldStats, MTest, m_test, m_test_rejects
from repro.distributions.base import Deterministic
from repro.distributions.histogram import HistogramDistribution
from repro.distributions.gaussian import (
    GaussianDistribution,
    tail_probabilities,
)
from repro.errors import AccuracyError, DistributionError

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
    @pytest.mark.parametrize("confidence", [0.9, 0.95, 0.99])
    @pytest.mark.parametrize("rows, largest", [(25, 200), (5000, 20_000)])
    def test_accuracy_from_moments_matches_distribution_accuracy(
        self, rows, largest, confidence
    ):
        # With more than 16 distinct sample sizes the batch takes its
        # quantiles from array scipy calls, not the memoized table; the
        # records still pickle like the scalar ones.
        rng = np.random.default_rng(7)
        means = rng.normal(0, 50, rows)
        variances = rng.uniform(0.01, 20, rows)
        ns = rng.integers(2, largest, rows)
        ns[: rows // 2] = rng.integers(2, 60, rows // 2)  # t and z sides
        assert len(np.unique(ns)) > 16
        infos = accuracy_from_moments(means, variances, ns, confidence)
        for i, info in enumerate(infos):
            ref = distribution_accuracy(
                GaussianDistribution(float(means[i]), float(variances[i])),
                int(ns[i]),
                confidence,
            )
            assert pickle.dumps(info) == pickle.dumps(ref)
            assert info.method == "analytic"

    @pytest.mark.parametrize(
        "confidence", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999]
    )
    def test_array_quantiles_equal_the_memoized_scalars(self, confidence):
        # The two branches of the per-df table in mean_intervals and
        # variance_intervals: array stdtrit/chdtri and the memoized
        # scalar quantiles agree exactly at every df up to 19,999.
        alpha_half = (1.0 - confidence) / 2.0
        df = np.arange(1, 20_000)
        scalar_t = _t_upper.__wrapped__
        scalar_chi2 = _chi2_upper.__wrapped__
        for array, scalar in (
            (
                special.stdtrit(df - 0.0, 1.0 - alpha_half),
                [scalar_t(alpha_half, d) for d in df.tolist()],
            ),
            (
                special.chdtri(df - 0.0, alpha_half),
                [scalar_chi2(alpha_half, d) for d in df.tolist()],
            ),
            (
                special.chdtri(df - 0.0, 1.0 - alpha_half),
                [scalar_chi2(1.0 - alpha_half, d) for d in df.tolist()],
            ),
        ):
            assert array.tolist() == scalar

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

    def test_bins_and_widening_equal_widened_records(self):
        """Per-row bins and synopsis widening match the scalar path."""
        rng = np.random.default_rng(11)
        hist = HistogramDistribution([0, 1, 2, 3], [0.05, 0.6, 0.35])
        rows = 12
        means = rng.normal(0, 5, rows).tolist()
        # Tiny variances let a wide variance_eps push the low bound to 0.
        variances = [1e-6, 0.0, *rng.uniform(0.0, 9.0, rows - 2).tolist()]
        ns = rng.integers(2, 60, rows).tolist()
        # Rows 0-2 are not widened (both epsilons zero); the others are.
        mean_eps = [0.0, 0.0, 0.0, *rng.uniform(0, 0.5, rows - 3).tolist()]
        variance_eps = [0.0, 0.0, 0.0, 3.0, 0.0,
                        *rng.uniform(0, 2.0, rows - 5).tolist()]
        errors = rng.uniform(0, 0.2, rows).tolist()
        bins = histograms_accuracy([hist] * rows, ns, 0.9, errors)
        infos = accuracy_from_moments(
            means,
            variances,
            ns,
            0.9,
            bins=bins,
            mean_eps=np.asarray(mean_eps),
            variance_eps=np.asarray(variance_eps),
            synopsis_error=errors,
        )
        for i, info in enumerate(infos):
            ref = accuracy_from_stats(
                means[i], variances[i], ns[i], 0.9, hist, bin_eps=errors[i]
            ).widened(
                mean_eps=mean_eps[i],
                variance_eps=variance_eps[i],
                synopsis_error=errors[i],
            )
            assert pickle.dumps(info) == pickle.dumps(ref), i
        assert infos[3].variance.low == 0.0

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

    @pytest.mark.parametrize("n", [1, 4, 8, 29, 40, 1000])
    def test_tuple_probability_intervals_equal_scalar_exactly(self, n):
        # Value and type: both paths hand out Python floats, including
        # where the clamp picks 0.0 or 1.0, and on both sides of the
        # Wald/Wilson boundary n*p = WALD_VALIDITY_COUNT.
        edge = WALD_VALIDITY_COUNT / n
        probabilities = [
            0.0, 1e-300, 0.05, 0.5, 0.73, 1.0 - 1e-16, 1.0,
            *(
                p for p in (
                    np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)
                )
                if p <= 1.0
            ),
        ]
        probabilities = [float(p) for p in probabilities]
        batch = tuple_probability_intervals(probabilities, n, 0.95)
        for p, tpi in zip(probabilities, batch):
            ref = tuple_probability_interval(p, n, 0.95)
            for bound in ("low", "high"):
                got = getattr(tpi.interval, bound)
                want = getattr(ref.interval, bound)
                assert type(got) is float and type(want) is float, (p, n)
                assert got == want, (p, n, bound)
            assert pickle.dumps(tpi) == pickle.dumps(ref), (p, n)


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


def _scalar_tail(dist, op, c):
    """The query layer's tail probability of one distribution."""
    if op == ">":
        return dist.prob_greater(c)
    if op == ">=":
        return 1.0 - dist.prob_less(c)
    if op == "<":
        return dist.prob_less(c)
    return dist.cdf(c)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


TAIL_OPS = (">", ">=", "<", "<=")


class TestGaussianTailKernel:
    @pytest.mark.parametrize("op", TAIL_OPS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_to_scalar_methods(self, op, seed):
        rng = np.random.default_rng(seed)
        rows = 4000
        mu = rng.normal(0.0, 5.0, rows)
        sigma2 = rng.uniform(0.0, 10.0, rows) ** rng.integers(1, 4, rows)
        sigma2[rng.random(rows) < 0.1] = 0.0  # point masses
        c = rng.normal(0.0, 5.0, rows)
        c[:50] = mu[:50]  # ties: the point-mass step at c == mu
        got = tail_probabilities(mu, sigma2, op, c)
        want = [
            _scalar_tail(GaussianDistribution(m, v), op, x)
            for m, v, x in zip(mu.tolist(), sigma2.tolist(), c.tolist())
        ]
        assert got.tobytes() == _bits(want)

    @pytest.mark.parametrize("op", TAIL_OPS)
    def test_past_erfc_underflow(self, op):
        # |z| from the double-precision saturation of 0.5*erfc(-z)
        # (~6) through the erfc underflow (~26.5) and beyond.
        z = np.concatenate(
            [np.linspace(-60.0, 60.0, 2401), [-26.55, -26.5, 26.5, 26.55]]
        )
        sigma2 = np.full(z.size, 2.5)
        mu = np.full(z.size, 3.0)
        c = mu + z * np.sqrt(2.0 * sigma2)
        got = tail_probabilities(mu, sigma2, op, c)
        want = [
            _scalar_tail(GaussianDistribution(3.0, 2.5), op, x)
            for x in c.tolist()
        ]
        assert got.tobytes() == _bits(want)
        assert 0.0 in got and 1.0 in got

    @pytest.mark.parametrize("op", TAIL_OPS)
    def test_zero_variance_is_the_deterministic_step(self, op):
        values = np.array([-1.0, 0.0, 0.5, 2.0])
        got = tail_probabilities(values, np.zeros(4), op, 0.5)
        want = [_scalar_tail(Deterministic(v), op, 0.5) for v in values]
        assert got.tobytes() == _bits(want)

    def test_scalar_constant_broadcasts(self):
        mu = np.array([0.0, 1.0, 2.0])
        sigma2 = np.array([1.0, 0.0, 4.0])
        assert np.array_equal(
            tail_probabilities(mu, sigma2, ">", 1.0),
            tail_probabilities(mu, sigma2, ">", np.full(3, 1.0)),
        )

    def test_unknown_operator_raises(self):
        with pytest.raises(DistributionError, match="operator"):
            tail_probabilities(np.zeros(1), np.ones(1), "=", 0.0)


SIZES = (2, 29, 30, 31, 1000)
ALPHAS = ((0.05, 0.05), (0.01, 0.2), (0.3, 0.001))


def _moment_columns(seed, rows=600):
    rng = np.random.default_rng(seed)
    n = rng.choice(np.array(SIZES, dtype=np.int64), rows)
    std = rng.uniform(0.1, 4.0, rows)
    c = 1.0
    # Means around c, scaled so the statistic lands near the critical
    # values and every verdict (TRUE, FALSE, UNSURE) occurs.
    mean = c + rng.normal(0.0, 2.5, rows) * std / np.sqrt(n)
    return mean, std, n, c


class TestMTestKernels:
    @pytest.mark.parametrize("op", ["<", ">", "<>"])
    @pytest.mark.parametrize("alpha", [0.05, 0.01, 0.4])
    def test_rejects_match_scalar(self, op, alpha):
        mean, std, n, c = _moment_columns(3)
        got = m_test_rejects(mean, std, n, op, c, alpha)
        want = [
            m_test(FieldStats(m, s, k), op, c, alpha).reject
            for m, s, k in zip(mean.tolist(), std.tolist(), n.tolist())
        ]
        assert got.tolist() == want
        assert 0 < sum(want) < len(want)

    @pytest.mark.parametrize("op", ["<", ">", "<>"])
    @pytest.mark.parametrize("alphas", ALPHAS)
    def test_coupled_codes_match_coupled_tests(self, op, alphas):
        alpha1, alpha2 = alphas
        mean, std, n, c = _moment_columns(4)
        codes = m_test_verdicts(mean, std, n, op, c, alpha1, alpha2)
        want = [
            coupled_tests(
                MTest(FieldStats(m, s, k), op, c, alpha1), alpha1, alpha2
            ).value
            for m, s, k in zip(mean.tolist(), std.tolist(), n.tolist())
        ]
        assert [VERDICTS[code] for code in codes.tolist()] == want
        kinds = {ThreeValued.TRUE, ThreeValued.UNSURE}
        if op != "<>":
            kinds.add(ThreeValued.FALSE)
        assert set(want) == kinds

    @pytest.mark.parametrize("op", ["<", ">", "<>"])
    def test_single_test_codes_match_run(self, op):
        mean, std, n, c = _moment_columns(5)
        codes = m_test_verdicts(mean, std, n, op, c, 0.05)
        want = [
            ThreeValued.TRUE
            if MTest(FieldStats(m, s, k), op, c, 0.05).run().reject
            else ThreeValued.FALSE
            for m, s, k in zip(mean.tolist(), std.tolist(), n.tolist())
        ]
        assert [VERDICTS[code] for code in codes.tolist()] == want

    @pytest.mark.parametrize("n", SIZES)
    def test_each_sample_size_matches(self, n):
        # One size per column: the t reference for n < 30, z from 30 on.
        mean, std, _n, c = _moment_columns(n, rows=200)
        sizes = np.full(mean.size, n, dtype=np.int64)
        codes = m_test_verdicts(mean, std, sizes, ">", c, 0.05, 0.05)
        want = [
            coupled_tests(MTest(FieldStats(m, s, n), ">", c)).value
            for m, s in zip(mean.tolist(), std.tolist())
        ]
        assert [VERDICTS[code] for code in codes.tolist()] == want

    def test_rows_left_to_the_scalar_test(self):
        mean = np.array([1.0, 1.0, 1.0, 5.0])
        std = np.array([2.0, 2.0, 0.0, 2.0])
        n = np.array([1, -1, 10, 10], dtype=np.int64)
        codes = m_test_verdicts(mean, std, n, ">", 0.0, 0.05, 0.05)
        assert codes.tolist()[:3] == [UNDECIDED] * 3
        assert VERDICTS[codes[3]] is ThreeValued.TRUE
        # The scalar test raises on a single observation ...
        with pytest.raises(AccuracyError, match="size >= 2"):
            m_test(FieldStats(1.0, 2.0, 1), ">", 0.0)
        # ... and decides a zero spread with an infinite statistic.
        assert m_test(FieldStats(1.0, 0.0, 10), ">", 0.0).reject

    def test_invalid_alpha_raises_like_coupled_tests(self):
        mean, std, n, c = _moment_columns(6, rows=4)
        with pytest.raises(AccuracyError, match="alpha2"):
            m_test_verdicts(mean, std, n, ">", c, 0.05, 1.5)
