"""Benchmarks reproducing Figures 5(a)-5(b): bootstrap vs analytic (§V-C).

Shape assertions (see EXPERIMENTS.md for the deviation discussion):

* bin-height and mean intervals from the bootstrap are tighter than the
  analytic ones on both workloads;
* on exactly-normal results (5(b)) the bootstrap is tighter across all
  three statistics, by roughly the paper's ~20-30%;
* bootstrap miss rates stay moderate, and on the skewed workload the
  bootstrap's variance coverage is at least as good as the analytic
  method's (the analytic chi-square interval relies on normality).
"""


from benchmarks.conftest import save_result
from repro.experiments.fig5_bootstrap import run_fig5a, run_fig5b


def test_fig5a_skewed_workloads(benchmark, results_dir):
    result = benchmark.pedantic(
        lambda: run_fig5a(
            seed=11, n_route_queries=30, n_random_queries=30,
            truth_mc=20_000,
        ),
        rounds=1, iterations=1,
    )
    save_result(results_dir, "fig5a", result.render())

    assert result.length_ratio["bin_heights"] < 0.95
    assert result.length_ratio["mean"] < 1.0
    # Honest-percentile deviation (documented in EXPERIMENTS.md): the
    # bootstrap variance interval is not shorter on heavy-tailed results,
    # but its coverage must not be worse than the analytic interval's.
    assert result.bootstrap_miss["variance"] <= (
        result.analytic_miss["variance"] + 0.05
    )
    assert result.bootstrap_miss["mean"] < 0.3


def test_fig5b_normal_results(benchmark, results_dir):
    result = benchmark.pedantic(
        lambda: run_fig5b(seed=11, n_queries=60, truth_mc=20_000),
        rounds=1, iterations=1,
    )
    save_result(results_dir, "fig5b", result.render())

    # Paper: with truly normal results the bootstrap advantage is
    # smaller but still present (~20% shorter mean/variance intervals).
    for stat in ("bin_heights", "mean", "variance"):
        assert result.length_ratio[stat] < 1.0, stat
    assert result.length_ratio["mean"] > 0.55
    assert result.bootstrap_miss["mean"] < 0.25
    assert result.bootstrap_miss["variance"] < 0.25


def test_fig5a_vs_fig5b_mean_advantage(benchmark):
    """The mean-interval advantage is at least as large on skewed data."""
    skewed = run_fig5a(
        seed=13, n_route_queries=20, n_random_queries=20, truth_mc=10_000
    )
    normal = run_fig5b(seed=13, n_queries=40, truth_mc=10_000)
    result = benchmark.pedantic(
        lambda: (skewed, normal), rounds=1, iterations=1
    )
    skewed, normal = result
    assert (
        skewed.length_ratio["bin_heights"]
        <= normal.length_ratio["bin_heights"] + 0.1
    )
