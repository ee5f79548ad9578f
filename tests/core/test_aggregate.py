"""Possible-world aggregate moments equal a sequential ``+=`` loop."""

import numpy as np
import pytest

from repro.core.aggregate import accumulate_moments, aggregate_moments


def _loop(groups, n_groups, p, mu, sigma2):
    exp_count = [0.0] * n_groups
    var_count = [0.0] * n_groups
    exp_sum = [0.0] * n_groups
    var_sum = [0.0] * n_groups
    for g, pi, m, s2 in zip(groups, p.tolist(), mu.tolist(), sigma2.tolist()):
        exp_count[g] += pi
        var_count[g] += pi * (1.0 - pi)
        exp_sum[g] += pi * m
        var_sum[g] += pi * (s2 + m * m) - pi * pi * m * m
    return exp_count, var_count, exp_sum, var_sum


@pytest.mark.parametrize("seed", range(5))
def test_sums_equal_sequential_loop(seed):
    rng = np.random.default_rng(seed)
    rows, n_groups = 5000, 7
    groups = rng.integers(0, n_groups, rows)
    p = rng.uniform(0.01, 1.0, rows)
    p[rng.uniform(size=rows) < 0.3] = 1.0
    mu = rng.normal(0.0, 10.0 ** rng.integers(-3, 6, rows))
    sigma2 = rng.uniform(0.0, 50.0, rows)
    moments = accumulate_moments(
        groups, n_groups, p, [mu], [sigma2], [[None] * rows], [None] * rows
    )
    exp_count, var_count, exp_sum, var_sum = _loop(
        groups, n_groups, p, mu, sigma2
    )
    assert moments.exp_count == exp_count
    assert moments.var_count == var_count
    assert moments.exp_sum == [exp_sum]
    assert moments.var_sum == [var_sum]


def test_size_minimum_per_group_ignores_exact_sizes():
    groups = np.array([0, 1, 0, 1, 0, 2])
    sizes = [None, 9, 12, 4, 7, None]
    moments = accumulate_moments(
        groups, 3, np.ones(6), [np.zeros(6)], [np.zeros(6)], [sizes],
        [5, None, 3, None, 3, None],
    )
    assert moments.size_min == [[7, 4, None]]
    assert moments.condition_size == [3, None, None]


def test_aggregate_formulas():
    groups = np.array([0, 0])
    p = np.array([1.0, 0.5])
    moments = accumulate_moments(
        groups, 1, p, [np.array([2.0, 4.0])], [np.array([1.0, 1.0])],
        [[None, None]], [None, None],
    )
    assert aggregate_moments("count", moments, 0, 0) == (1.5, 0.25)
    # SUM: E = 2 + 2, Var = (1 + 4) - 4 + 0.5 (1 + 16) - 0.25 * 16
    assert aggregate_moments("sum", moments, 0, 0) == (4.0, 5.5)
    mean, variance = aggregate_moments("avg", moments, 0, 0)
    assert mean == 4.0 / 1.5
    assert variance == 5.5 / (1.5 * 1.5)
