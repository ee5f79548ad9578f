"""Tests for the vTest variance-test extension."""

import pytest
from scipy import stats

from repro.core.coupled import ThreeValued, coupled_tests
from repro.core.predicates import FieldStats, VTest, v_test
from repro.errors import AccuracyError


class TestVTest:
    def test_matches_chi_square_reference(self, rng):
        sample = rng.normal(0, 2.0, 25)
        field = FieldStats.from_sample(sample)
        result = v_test(field, ">", 3.0, 0.05)
        statistic = 24 * sample.var(ddof=1) / 3.0
        assert result.statistic == pytest.approx(statistic)
        assert result.p_value == pytest.approx(
            float(stats.chi2.sf(statistic, df=24))
        )

    def test_obvious_rejections(self):
        high_var = FieldStats(0.0, 10.0, 30)
        low_var = FieldStats(0.0, 0.1, 30)
        assert v_test(high_var, ">", 1.0, 0.05).reject
        assert not v_test(high_var, "<", 1.0, 0.05).reject
        assert v_test(low_var, "<", 1.0, 0.05).reject
        assert v_test(low_var, "<>", 1.0, 0.05).reject

    def test_null_boundary_not_rejected(self):
        field = FieldStats(0.0, 1.0, 30)  # s^2 == c
        assert not v_test(field, ">", 1.0, 0.05).reject
        assert not v_test(field, "<", 1.0, 0.05).reject

    def test_false_positive_rate_bounded(self, rng):
        rejections = 0
        trials = 400
        for _ in range(trials):
            sample = rng.normal(0, 1.0, 20)
            field = FieldStats.from_sample(sample)
            if v_test(field, ">", 1.0, 0.05).reject:
                rejections += 1
        assert rejections / trials < 0.09

    def test_rejects_bad_inputs(self):
        field = FieldStats(0.0, 1.0, 20)
        with pytest.raises(AccuracyError):
            v_test(field, ">", 0.0, 0.05)
        with pytest.raises(AccuracyError):
            v_test(FieldStats(0.0, 1.0, 1), ">", 1.0, 0.05)


class TestCoupledVTest:
    def test_three_outcomes(self):
        noisy = FieldStats(0.0, 3.0, 40)
        assert coupled_tests(
            VTest(noisy, ">", 1.0, 0.05)
        ).value is ThreeValued.TRUE
        assert coupled_tests(
            VTest(noisy, ">", 100.0, 0.05)
        ).value is ThreeValued.FALSE
        marginal = FieldStats(0.0, 1.02, 10)
        assert coupled_tests(
            VTest(marginal, ">", 1.0, 0.05)
        ).value is ThreeValued.UNSURE

    def test_error_rates_controlled(self, rng):
        false_negatives = 0
        trials = 300
        for _ in range(trials):
            sample = rng.normal(0, 2.0, 30)  # true var 4 > 1: H1 true
            field = FieldStats.from_sample(sample)
            outcome = coupled_tests(VTest(field, ">", 1.0, 0.05))
            if outcome.value is ThreeValued.FALSE:
                false_negatives += 1
        assert false_negatives / trials <= 0.08


class TestVTestInQueries:
    def test_query_integration(self, rng):
        from repro.core.dfsample import DfSized
        from repro.distributions.gaussian import GaussianDistribution
        from repro.query.executor import ExecutorConfig, run_query
        from repro.streams.tuples import UncertainTuple

        volatile = UncertainTuple(
            {"id": 1.0, "v": DfSized(GaussianDistribution(0, 25.0), 40)}
        )
        calm = UncertainTuple(
            {"id": 2.0, "v": DfSized(GaussianDistribution(0, 0.5), 40)}
        )
        results = run_query(
            "SELECT id FROM s WHERE vTest(v, '>', 4, 0.05, 0.05)",
            [volatile, calm],
            config=ExecutorConfig(seed=0),
        )
        assert len(results) == 1
        assert results[0].value("id").distribution.mean() == 1.0
