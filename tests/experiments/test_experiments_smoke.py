"""Smoke tests for the experiment harnesses at reduced scale.

Each run_* function executes with small parameters and must produce
structurally complete results with the paper's qualitative shape where
that shape is statistically stable at this scale.  The full-scale runs
with shape assertions live in benchmarks/.
"""

import pytest

from repro.experiments.fig4 import run_fig4, run_fig4d
from repro.experiments.fig5_bootstrap import run_fig5a, run_fig5b
from repro.experiments.fig5_power import run_fig5g, run_fig5h
from repro.experiments.fig5_predicates import run_fig5d, run_fig5e
from repro.experiments.fig5_throughput import run_fig5c, run_fig5f
from repro.workloads.synthetic import DISTRIBUTION_NAMES


class TestFig4:
    def test_sweep_structure_and_shape(self):
        sweep = run_fig4(
            seed=1, n_segments=12, sample_sizes=(10, 40),
            true_sample_size=300,
        )
        assert sweep.sample_sizes == (10, 40)
        for stat in ("bin_heights", "mean", "variance"):
            assert len(sweep.lengths[stat]) == 2
        # Interval lengths shrink as n quadruples (bin heights and mean
        # are stable even at this tiny scale; the variance length rides
        # on the noisy s^2 of lognormal subsamples, so it only gets a
        # no-blow-up bound here — the strict check runs at full scale in
        # benchmarks/test_fig4.py).
        assert sweep.lengths["bin_heights"][1] < sweep.lengths["bin_heights"][0]
        assert sweep.lengths["mean"][1] < sweep.lengths["mean"][0]
        assert sweep.lengths["variance"][1] < 2.0 * sweep.lengths["variance"][0]
        normalized = sweep.normalized_lengths()
        assert all(series[0] == 1.0 for series in normalized.values())
        assert "Figure" in sweep.render()

    def test_fig4d_covers_all_families(self):
        result = run_fig4d(seed=1, trials=30, true_sample_size=4000)
        assert set(result.miss_rates) == set(DISTRIBUTION_NAMES)
        for family, rate in result.miss_rates.items():
            assert 0.0 <= rate <= 0.35, family
        assert "Figure 4(d)" in result.render()


class TestFig5Bootstrap:
    def test_fig5a_structure(self):
        result = run_fig5a(
            seed=1, n_route_queries=4, n_random_queries=4, truth_mc=3000
        )
        assert result.queries == 8
        for stat in ("bin_heights", "mean", "variance"):
            assert result.length_ratio[stat] > 0
        assert "Figure 5(a)" in result.render()

    def test_fig5b_bootstrap_tighter_on_normal_results(self):
        result = run_fig5b(seed=1, n_queries=12, truth_mc=3000)
        # On exactly-normal results the bootstrap is tighter across the
        # board (paper: ~20% shorter for mean/variance).
        assert result.length_ratio["mean"] < 1.0
        assert result.length_ratio["variance"] < 1.0


class TestFig5Throughput:
    def test_fig5c_structure(self):
        # Tiny runs are too noisy for strict throughput ordering (that
        # is asserted at full scale in benchmarks/test_fig5_throughput);
        # here we check the harness runs and the heavyweight bootstrap
        # clearly trails the baseline.
        result = run_fig5c(seed=0, n_items=600, repeats=1)
        rates = result.throughputs
        assert all(v > 0 for v in rates.values())
        assert rates["bootstrap"] < rates["QP only"]
        assert "Figure 5(c)" in result.render()

    def test_fig5f_predicates_run(self):
        result = run_fig5f(seed=0, n_items=600, repeats=1)
        rates = result.throughputs
        per_tuple = {"no predicate", "mTest", "mdTest", "pTest"}
        assert set(rates) == per_tuple | {
            f"{name} (batched)" for name in per_tuple
        }
        assert all(v > 0 for v in rates.values())

    def test_relative_normalises_to_baseline(self):
        result = run_fig5c(seed=0, n_items=400, repeats=1)
        relative = result.relative()
        assert relative["QP only"] == pytest.approx(1.0)


class TestFig5Predicates:
    def test_fig5d_false_positives_bounded(self):
        sweep = run_fig5d(seed=2, n_pairs=25, sample_sizes=(10, 60))
        assert sweep.unsure is None
        for fp in sweep.false_positives:
            assert fp <= 0.10 * 25  # alpha = 0.05 with slack
        # Single test leaves false negatives uncontrolled at small n.
        assert sweep.false_negatives[0] > sweep.false_positives[0]
        assert "Figure 5(d)" in sweep.render()

    def test_fig5e_coupled_bounds_both_and_unsure_falls(self):
        sweep = run_fig5e(seed=2, n_pairs=25, sample_sizes=(10, 60))
        assert sweep.unsure is not None
        for fp, fn in zip(sweep.false_positives, sweep.false_negatives):
            assert fp <= 0.10 * 25
            assert fn <= 0.10 * 25
        assert sweep.unsure[-1] < sweep.unsure[0]
        assert "unsure" in sweep.render()


class TestFig5Power:
    def test_fig5g_power_rises_with_delta(self):
        sweep = run_fig5g(seed=3, deltas=(0.1, 0.6), trials=80)
        for family in DISTRIBUTION_NAMES:
            series = sweep.power[family]
            assert series[-1] > series[0]
        # Uniform (tiny variance) is the easiest test at large delta.
        assert sweep.power["uniform"][-1] >= sweep.power["normal"][-1]

    def test_fig5h_power_rises_with_tau(self):
        sweep = run_fig5h(seed=3, taus=(0.2, 0.7), trials=80)
        for family in DISTRIBUTION_NAMES:
            series = sweep.power[family]
            assert series[-1] > series[0]
        assert "tau" in sweep.render()


class TestAdaptiveBootstrapExperiments:
    def test_fig5a_target_consumes_prefix(self):
        base = run_fig5a(
            seed=1, n_route_queries=4, n_random_queries=4, truth_mc=3000
        )
        adaptive = run_fig5a(
            seed=1, n_route_queries=4, n_random_queries=4, truth_mc=3000,
            target_relative_width=0.6,
        )
        assert base.draw_fraction == 1.0
        assert 0.0 < adaptive.draw_fraction < 1.0

    def test_fig5b_no_target_unchanged(self):
        base = run_fig5b(seed=1, n_queries=6, truth_mc=3000)
        again = run_fig5b(seed=1, n_queries=6, truth_mc=3000)
        assert base == again
        assert base.draw_fraction == 1.0

    def test_fig5c_adaptive_configurations_present(self):
        result = run_fig5c(
            seed=0, n_items=400, repeats=1, target_ci_width=12.0
        )
        rates = result.throughputs
        assert "bootstrap adaptive" in rates
        assert "bootstrap adaptive (batched)" in rates
        assert not any("sharded" in k for k in rates)
        assert all(v > 0 for v in rates.values())

    def test_fig5c_no_target_has_no_adaptive_rows(self):
        result = run_fig5c(seed=0, n_items=400, repeats=1)
        assert not any("adaptive" in k for k in result.throughputs)
