"""Benchmarks reproducing Figures 5(g) and 5(h): test power (§V-D).

Shape assertions per the paper:

* 5(g): power of coupled mTest rises with delta for every family, and
  rises fastest for the uniform family (tiny variance) with Gamma ahead
  of the remaining three;
* 5(h): power of coupled pTest rises with tau, at roughly the same rate
  for all five families (quantile-based decisions are
  distribution-free).
"""

import numpy as np

from benchmarks.conftest import save_result
from repro.experiments.fig5_power import run_fig5g, run_fig5h
from repro.workloads.synthetic import DISTRIBUTION_NAMES

DELTAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
TAUS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)


def test_fig5g_mtest_power(benchmark, results_dir):
    sweep = benchmark.pedantic(
        lambda: run_fig5g(seed=23, deltas=DELTAS, trials=400),
        rounds=1, iterations=1,
    )
    save_result(results_dir, "fig5g", sweep.render())

    for family in DISTRIBUTION_NAMES:
        series = sweep.power[family]
        # Power rises with delta (allow one local wiggle of MC noise).
        assert series[-1] > series[0] + 0.3, family
    # Paper: "the test power increases faster with the uniform and
    # Gamma distributions".
    mid = len(DELTAS) // 2
    others = [
        sweep.power[f][mid]
        for f in ("exponential", "normal", "weibull")
    ]
    assert sweep.power["uniform"][mid] > max(others)
    assert sweep.power["gamma"][mid] > float(np.mean(others))


def test_fig5h_ptest_power(benchmark, results_dir):
    sweep = benchmark.pedantic(
        lambda: run_fig5h(seed=23, taus=TAUS, delta=0.3, trials=400),
        rounds=1, iterations=1,
    )
    save_result(results_dir, "fig5h", sweep.render())

    for family in DISTRIBUTION_NAMES:
        series = sweep.power[family]
        assert series[-1] > series[0], family
    # Paper: quantile-based decisions are distribution-free, so the five
    # curves track each other; the cross-family spread stays modest.
    for i, tau in enumerate(TAUS):
        values = [sweep.power[f][i] for f in DISTRIBUTION_NAMES]
        assert max(values) - min(values) < 0.25, tau
