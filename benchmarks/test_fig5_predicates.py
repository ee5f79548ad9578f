"""Benchmarks reproducing Figures 5(d) and 5(e): predicate error rates (§V-D).

Full scale: 100 close-mean route pairs, 200 comparisons per sample size.
Shape assertions per the paper:

* 5(d) single test: false positives bounded by alpha; false negatives
  large at small n and decreasing with n; the accuracy-oblivious
  baseline makes substantially more errors than the controlled side;
* 5(e) coupled tests: both error kinds bounded by their alphas at every
  n; the UNSURE count decreases as n grows.
"""


from benchmarks.conftest import save_result
from repro.experiments.fig5_predicates import run_fig5d, run_fig5e

SAMPLE_SIZES = (10, 20, 30, 40, 50, 60, 70, 80)
N_PAIRS = 100


def test_fig5d_single_test_errors(benchmark, results_dir):
    sweep = benchmark.pedantic(
        lambda: run_fig5d(
            seed=17, n_pairs=N_PAIRS, sample_sizes=SAMPLE_SIZES
        ),
        rounds=1, iterations=1,
    )
    save_result(results_dir, "fig5d", sweep.render())

    for fp in sweep.false_positives:
        # alpha = 0.05 over 100 H0-true tests, with binomial slack.
        assert fp <= 11
    # False negatives are uncontrolled and large at n=10...
    assert sweep.false_negatives[0] > 20
    # ...but decrease as samples grow.
    assert sweep.false_negatives[-1] < sweep.false_negatives[0]
    # The accuracy-oblivious baseline errs and improves with n too.
    assert sweep.baseline_errors[0] > sweep.baseline_errors[-1]


def test_fig5e_coupled_tests(benchmark, results_dir):
    sweep = benchmark.pedantic(
        lambda: run_fig5e(
            seed=17, n_pairs=N_PAIRS, sample_sizes=SAMPLE_SIZES
        ),
        rounds=1, iterations=1,
    )
    save_result(results_dir, "fig5e", sweep.render())

    assert sweep.unsure is not None
    for fp, fn in zip(sweep.false_positives, sweep.false_negatives):
        # Theorem 3: both error kinds bounded by alpha = 0.05 (binomial
        # slack over 100 trials each).
        assert fp <= 11
        assert fn <= 11
    # Paper: "the number of unsure comparisons decreases as sample size
    # increases".
    assert sweep.unsure[-1] < sweep.unsure[0]
    # Decisions replace UNSURE without breaking the error bounds.
    assert sweep.unsure[0] <= 2 * N_PAIRS


def test_fig5d_vs_fig5e_errors(benchmark):
    """Coupling converts uncontrolled errors into UNSURE answers."""
    single = run_fig5d(seed=19, n_pairs=60, sample_sizes=(10, 40))
    coupled = run_fig5e(seed=19, n_pairs=60, sample_sizes=(10, 40))
    result = benchmark.pedantic(
        lambda: (single, coupled), rounds=1, iterations=1
    )
    single, coupled = result
    for i in range(2):
        total_single_errors = (
            single.false_positives[i] + single.false_negatives[i]
        )
        total_coupled_errors = (
            coupled.false_positives[i] + coupled.false_negatives[i]
        )
        assert total_coupled_errors <= total_single_errors
