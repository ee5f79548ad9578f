"""Property-based tests (hypothesis) for the accuracy core.

Invariants checked:

* interval lengths shrink monotonically in n and grow in confidence;
* Lemma 1's dispatch always returns an interval inside [0, 1] containing
  behaviourally sensible mass;
* Lemma 3's min rule is order-invariant and dominated by any element;
* COUPLED-TESTS never contradicts itself (TRUE and FALSE mutually
  exclusive by construction) and tightening alphas can only move
  decisions toward UNSURE.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analytic import (
    bin_height_interval,
    mean_interval,
    variance_interval,
)
from repro.core.bootstrap import bootstrap_accuracy_info, percentile_interval
from repro.core.coupled import ThreeValued, coupled_tests
from repro.core.dfsample import df_sample_size
from repro.core.predicates import FieldStats, MTest, m_test

proportions = st.floats(min_value=0.0, max_value=1.0)
confidences = st.floats(min_value=0.01, max_value=0.99)
sample_sizes = st.integers(min_value=2, max_value=10_000)
means = st.floats(min_value=-1e6, max_value=1e6)
stds = st.floats(min_value=0.0, max_value=1e6)


@given(p=proportions, n=sample_sizes, c=confidences)
@settings(max_examples=300, deadline=None)
def test_bin_interval_within_unit_and_ordered(p, n, c):
    ci = bin_height_interval(p, n, c)
    assert 0.0 <= ci.low <= ci.high <= 1.0


@given(p=proportions, n=sample_sizes)
@settings(max_examples=200, deadline=None)
def test_bin_interval_shrinks_with_n(p, n):
    small = bin_height_interval(p, n, 0.9)
    large = bin_height_interval(p, n * 4, 0.9)
    assert large.length <= small.length + 1e-12


@given(p=proportions, n=sample_sizes)
@settings(max_examples=200, deadline=None)
def test_bin_interval_grows_with_confidence(p, n):
    loose = bin_height_interval(p, n, 0.8)
    tight = bin_height_interval(p, n, 0.99)
    assert tight.length >= loose.length - 1e-12


@given(mean=means, std=stds, n=sample_sizes, c=confidences)
@settings(max_examples=300, deadline=None)
def test_mean_interval_centred_and_ordered(mean, std, n, c):
    ci = mean_interval(mean, std, n, c)
    assert ci.low <= mean <= ci.high
    assert abs(ci.midpoint - mean) <= max(1e-9, abs(mean) * 1e-12) + 1e-6 * std


@given(std=st.floats(min_value=1e-3, max_value=1e3), n=sample_sizes)
@settings(max_examples=200, deadline=None)
def test_mean_interval_shrinks_with_n(std, n):
    small = mean_interval(0.0, std, n, 0.9)
    large = mean_interval(0.0, std, n * 4, 0.9)
    assert large.length < small.length


@given(
    s2=st.floats(min_value=0.0, max_value=1e6),
    n=sample_sizes,
    c=confidences,
)
@settings(max_examples=300, deadline=None)
def test_variance_interval_ordered_and_non_negative(s2, n, c):
    ci = variance_interval(s2, n, c)
    assert ci.low <= ci.high
    assert ci.low >= 0.0


@given(s2=st.floats(min_value=0.0, max_value=1e6), n=sample_sizes)
@settings(max_examples=200, deadline=None)
def test_variance_interval_brackets_estimate_at_high_confidence(s2, n):
    # At low confidence the chi-square interval can legitimately exclude
    # s^2 (the chi-square median sits below its mean); at the 90%+ levels
    # the system uses, bracketing always holds.
    ci = variance_interval(s2, n, 0.9)
    assert ci.low <= s2 <= ci.high


@given(
    sizes=st.lists(
        st.one_of(st.none(), st.integers(min_value=1, max_value=1000)),
        min_size=0, max_size=8,
    )
)
@settings(max_examples=200, deadline=None)
def test_df_sample_size_is_min_and_order_invariant(sizes):
    result = df_sample_size(sizes)
    shuffled = df_sample_size(list(reversed(sizes)))
    assert result == shuffled
    finite = [s for s in sizes if s is not None]
    if finite:
        assert result == min(finite)
        for s in finite:
            assert result <= s
    else:
        assert result is None


@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(min_value=2, max_value=40),
    r=st.integers(min_value=2, max_value=40),
    c=confidences,
)
@settings(max_examples=100, deadline=None)
def test_bootstrap_intervals_ordered_and_cover_median_chunk(seed, n, r, c):
    rng = np.random.default_rng(seed)
    values = rng.normal(0, 1, n * r)
    info = bootstrap_accuracy_info(values, n, c)
    assert info.mean.low <= info.mean.high
    assert info.variance.low <= info.variance.high
    # The median chunk mean always lies inside the percentile interval.
    chunk_means = values.reshape(r, n).mean(axis=1)
    median = float(np.median(chunk_means))
    assert info.mean.low - 1e-9 <= median <= info.mean.high + 1e-9


@given(
    seed=st.integers(0, 2**31 - 1),
    size=st.integers(min_value=1, max_value=200),
)
@settings(max_examples=100, deadline=None)
def test_percentile_interval_nested_in_range(seed, size):
    rng = np.random.default_rng(seed)
    values = rng.normal(0, 1, size)
    inner = percentile_interval(values, 0.5)
    outer = percentile_interval(values, 0.99)
    assert outer.low <= inner.low <= inner.high <= outer.high
    assert values.min() <= outer.low and outer.high <= values.max()


@given(
    mean=st.floats(min_value=-100, max_value=100),
    std=st.floats(min_value=0.01, max_value=100),
    n=st.integers(min_value=2, max_value=500),
    c=st.floats(min_value=-100, max_value=100),
)
@settings(max_examples=300, deadline=None)
def test_coupled_decisions_are_consistent(mean, std, n, c):
    predicate = MTest(FieldStats(mean, std, n), ">", c, 0.05)
    outcome = coupled_tests(predicate, 0.05, 0.05)
    single = m_test(FieldStats(mean, std, n), ">", c, 0.05)
    if outcome.value is ThreeValued.TRUE:
        # TRUE comes exactly from the primary test rejecting.
        assert single.reject
    if single.reject:
        assert outcome.value is ThreeValued.TRUE


@given(
    mean=st.floats(min_value=-10, max_value=10),
    std=st.floats(min_value=0.01, max_value=10),
    n=st.integers(min_value=2, max_value=100),
)
@settings(max_examples=200, deadline=None)
def test_tightening_alphas_moves_toward_unsure(mean, std, n):
    predicate = MTest(FieldStats(mean, std, n), ">", 0.0, 0.05)
    loose = coupled_tests(predicate, 0.2, 0.2)
    strict = coupled_tests(predicate, 0.001, 0.001)
    if strict.value is not ThreeValued.UNSURE:
        # A decision that survives strict alphas must agree with loose.
        assert strict.value == loose.value


@given(
    mean=st.floats(min_value=-100, max_value=100),
    std=st.floats(min_value=0.0, max_value=100),
    n=st.integers(min_value=2, max_value=100),
    c=st.floats(min_value=-100, max_value=100),
)
@settings(max_examples=200, deadline=None)
def test_mtest_directions_mutually_exclusive(mean, std, n, c):
    field = FieldStats(mean, std, n)
    gt = m_test(field, ">", c, 0.05)
    lt = m_test(field, "<", c, 0.05)
    assert not (gt.reject and lt.reject)
