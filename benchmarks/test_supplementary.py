"""Benchmarks for the supplementary experiments (beyond the paper's figures)."""


from benchmarks.conftest import save_result
from repro.experiments.supplementary import (
    run_confidence_sweep,
    run_tuple_probability_coverage,
)


def test_supplementary_tuple_probability_coverage(benchmark, results_dir):
    result = benchmark.pedantic(
        lambda: run_tuple_probability_coverage(seed=29, trials=150),
        rounds=1, iterations=1,
    )
    save_result(results_dir, "supp_tuple_probability", result.render())
    # Coverage near nominal (90% intervals -> ~10% misses, with the
    # histogram-approximation penalty at small n) and widths falling in n.
    assert all(rate < 0.3 for rate in result.miss_rates)
    assert result.mean_lengths[-1] < result.mean_lengths[0]


def test_supplementary_confidence_sweep(benchmark, results_dir):
    result = benchmark.pedantic(
        lambda: run_confidence_sweep(seed=29, trials=300),
        rounds=1, iterations=1,
    )
    save_result(results_dir, "supp_confidence_sweep", result.render())
    # More confidence costs width and buys coverage: lengths rise
    # monotonically, miss rates fall monotonically (modulo MC slack).
    lengths = result.mean_lengths
    assert all(a < b for a, b in zip(lengths, lengths[1:]))
    misses = result.miss_rates
    assert misses[-1] <= misses[0]
    # Miss rates track (1 - confidence) within generous slack.
    for confidence, rate in zip(result.confidences, misses):
        assert rate <= 2.5 * (1 - confidence) + 0.03
