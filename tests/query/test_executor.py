"""Tests for accuracy-aware query execution."""

import pytest

from repro.core.coupled import ThreeValued
from repro.core.dfsample import DfSized
from repro.distributions.gaussian import GaussianDistribution
from repro.errors import QueryError
from repro.learning.histogram_learner import HistogramLearner
from repro.query.executor import ExecutorConfig, QueryExecutor, run_query
from repro.streams.tuples import Schema, UncertainTuple


def _gaussian_tuple(name, mu, sigma2, n, **extra):
    attributes = {name: DfSized(GaussianDistribution(mu, sigma2), n)}
    attributes.update(extra)
    return UncertainTuple(attributes)


class TestSelectEvaluation:
    def test_star_keeps_all_attributes(self):
        results = run_query(
            "SELECT * FROM s",
            [_gaussian_tuple("speed", 50, 4, 10, road=3.0)],
            config=ExecutorConfig(seed=0),
        )
        assert set(results[0].attributes) == {"speed", "road"}

    def test_expressions_with_aliases(self):
        results = run_query(
            "SELECT speed * 2 AS double FROM s",
            [_gaussian_tuple("speed", 10, 1, 10)],
            config=ExecutorConfig(seed=0),
        )
        value = results[0].value("double")
        assert value.distribution.mean() == pytest.approx(20.0)

    def test_unknown_result_field_raises(self):
        results = run_query(
            "SELECT speed FROM s",
            [_gaussian_tuple("speed", 10, 1, 10)],
            config=ExecutorConfig(seed=0),
        )
        with pytest.raises(QueryError):
            results[0].value("nope")


class TestWhereSemantics:
    def test_bare_comparison_scales_probability(self):
        results = run_query(
            "SELECT speed FROM s WHERE speed > 50",
            [_gaussian_tuple("speed", 50, 4, 20)],
            config=ExecutorConfig(seed=0),
        )
        assert results[0].probability == pytest.approx(0.5)

    def test_impossible_predicate_drops_tuple(self):
        results = run_query(
            "SELECT speed FROM s WHERE speed > 1000",
            [_gaussian_tuple("speed", 0, 1, 20)],
            config=ExecutorConfig(seed=0),
        )
        assert results == []

    def test_threshold_requires_minimum_probability(self):
        tuples = [
            _gaussian_tuple("speed", 52, 4, 20, road=1.0),  # P[>50] ~ .84
            _gaussian_tuple("speed", 49, 4, 20, road=2.0),  # P[>50] ~ .31
        ]
        results = run_query(
            "SELECT road FROM s WHERE speed > 50 PROB 0.5",
            tuples,
            config=ExecutorConfig(seed=0),
        )
        assert len(results) == 1
        assert results[0].value("road").distribution.mean() == 1.0

    def test_and_multiplies_probabilities(self):
        tup = _gaussian_tuple("a", 0, 1, 20)
        tup.attributes["b"] = DfSized(GaussianDistribution(0, 1), 30)
        results = run_query(
            "SELECT a FROM s WHERE a > 0 AND b > 0",
            [tup],
            config=ExecutorConfig(seed=0),
        )
        assert results[0].probability == pytest.approx(0.25)

    def test_or_uses_inclusion_exclusion(self):
        tup = _gaussian_tuple("a", 0, 1, 20)
        tup.attributes["b"] = DfSized(GaussianDistribution(0, 1), 20)
        results = run_query(
            "SELECT a FROM s WHERE a > 0 OR b > 0",
            [tup],
            config=ExecutorConfig(seed=0),
        )
        assert results[0].probability == pytest.approx(0.75)

    def test_not_complements(self):
        results = run_query(
            "SELECT a FROM s WHERE NOT a > 0",
            [_gaussian_tuple("a", 0, 1, 20)],
            config=ExecutorConfig(seed=0),
        )
        assert results[0].probability == pytest.approx(0.5)

    def test_input_probability_propagates(self):
        tup = UncertainTuple(
            {"a": DfSized(GaussianDistribution(100, 1), 20)},
            probability=0.5,
        )
        results = run_query(
            "SELECT a FROM s WHERE a > 0", [tup],
            config=ExecutorConfig(seed=0),
        )
        assert results[0].probability == pytest.approx(0.5)


class TestSignificanceInWhere:
    def test_single_mtest_filters(self):
        tuples = [
            _gaussian_tuple("t", 120, 100, 50, tag=1.0),
            _gaussian_tuple("t", 98, 100, 50, tag=2.0),
        ]
        results = run_query(
            "SELECT tag FROM s WHERE mTest(t, '>', 100, 0.05)",
            tuples,
            config=ExecutorConfig(seed=0),
        )
        assert len(results) == 1
        assert results[0].value("tag").distribution.mean() == 1.0
        assert results[0].decisions == (ThreeValued.TRUE,)

    def test_coupled_mtest_unsure_dropped_by_default(self):
        marginal = _gaussian_tuple("t", 100.5, 100, 20)
        results = run_query(
            "SELECT t FROM s WHERE mTest(t, '>', 100, 0.05, 0.05)",
            [marginal],
            config=ExecutorConfig(seed=0),
        )
        assert results == []

    def test_coupled_mtest_unsure_kept_by_policy(self):
        marginal = _gaussian_tuple("t", 100.5, 100, 20)
        results = run_query(
            "SELECT t FROM s WHERE mTest(t, '>', 100, 0.05, 0.05)",
            [marginal],
            config=ExecutorConfig(seed=0, keep_unsure=True),
        )
        assert len(results) == 1
        assert results[0].decisions == (ThreeValued.UNSURE,)

    def test_mdtest_between_fields(self):
        tup = UncertainTuple(
            {
                "x": DfSized(GaussianDistribution(10, 1), 30),
                "y": DfSized(GaussianDistribution(5, 1), 30),
            }
        )
        results = run_query(
            "SELECT x FROM s WHERE mdTest(x, y, '>', 0, 0.05)",
            [tup],
            config=ExecutorConfig(seed=0),
        )
        assert len(results) == 1

    def test_ptest_example9(self):
        """Paper Example 9: only the large-sample field passes pTest."""
        y = _gaussian_tuple("temp", 101.3, 25, 100)  # P[>100] ~ 0.6
        x_small = _gaussian_tuple("temp", 101.3, 25, 5)
        query = "SELECT temp FROM s WHERE pTest(temp > 100, 0.5, 0.05)"
        assert len(
            run_query(query, [y], config=ExecutorConfig(seed=0))
        ) == 1
        assert run_query(query, [x_small], config=ExecutorConfig(seed=0)) == []

    def test_ptest_rejects_exact_comparison(self):
        tup = UncertainTuple({"k": 5.0})
        with pytest.raises(QueryError):
            run_query(
                "SELECT k FROM s WHERE pTest(k > 1, 0.5, 0.05)",
                [tup],
                config=ExecutorConfig(seed=0),
            )


class TestAccuracyAttachment:
    def test_analytic_accuracy_on_fields(self):
        results = run_query(
            "SELECT speed FROM s",
            [_gaussian_tuple("speed", 50, 4, 20)],
            config=ExecutorConfig(seed=0, confidence=0.9),
        )
        info = results[0].accuracy["speed"]
        assert info.method == "analytic"
        assert info.mean.contains(50.0)
        assert info.sample_size == 20

    def test_histogram_fields_get_bin_accuracy(self, rng):
        learner = HistogramLearner(bucket_count=4)
        fitted = learner.learn(rng.normal(60, 10, 40))
        tup = UncertainTuple({"delay": fitted.as_dfsized()})
        results = run_query(
            "SELECT delay FROM s", [tup],
            config=ExecutorConfig(seed=0),
        )
        assert len(results[0].accuracy["delay"].bins) == 4

    def test_bootstrap_accuracy(self):
        results = run_query(
            "SELECT speed + speed AS s2 FROM s",
            [_gaussian_tuple("speed", 50, 4, 20)],
            config=ExecutorConfig(seed=0, accuracy_method="bootstrap"),
        )
        info = results[0].accuracy["s2"]
        assert info.method == "bootstrap"
        assert info.mean.contains(100.0)

    def test_none_method_attaches_nothing(self):
        results = run_query(
            "SELECT speed FROM s WHERE speed > 0",
            [_gaussian_tuple("speed", 50, 4, 20)],
            config=ExecutorConfig(seed=0, accuracy_method="none"),
        )
        assert results[0].accuracy == {}
        assert results[0].probability_interval is None

    def test_exact_fields_have_no_accuracy(self):
        results = run_query(
            "SELECT k FROM s",
            [UncertainTuple({"k": 5.0})],
            config=ExecutorConfig(seed=0),
        )
        assert results[0].accuracy == {}

    def test_tuple_probability_interval_example5(self):
        """Example 5: P=0.6 at n=20 -> 90% interval [0.42, 0.78]."""
        # A Gaussian with P[X > 80] = 0.6 exactly.
        from scipy import stats

        mu = 80 - stats.norm.ppf(0.4) * 2.0  # sd 2
        tup = UncertainTuple({"c": DfSized(GaussianDistribution(mu, 4.0), 20)})
        results = run_query(
            "SELECT c FROM s WHERE c > 80", [tup],
            config=ExecutorConfig(seed=0, confidence=0.9),
        )
        interval = results[0].probability_interval.interval
        assert interval.low == pytest.approx(0.42, abs=0.01)
        assert interval.high == pytest.approx(0.78, abs=0.01)

    def test_describe_renders(self):
        results = run_query(
            "SELECT speed FROM s WHERE speed > 40",
            [_gaussian_tuple("speed", 50, 4, 20)],
            config=ExecutorConfig(seed=0),
        )
        text = results[0].describe()
        assert "probability" in text
        assert "speed" in text


class TestExecutorConfig:
    def test_rejects_bad_method(self):
        with pytest.raises(QueryError):
            ExecutorConfig(accuracy_method="quantum")

    def test_rejects_bad_confidence(self):
        with pytest.raises(QueryError):
            ExecutorConfig(confidence=0.0)

    def test_rejects_bad_resamples(self):
        with pytest.raises(QueryError):
            ExecutorConfig(bootstrap_resamples=1)

    def test_schema_checked_at_construction(self):
        schema = Schema(["a"])
        with pytest.raises(QueryError):
            QueryExecutor("SELECT z FROM s", schema=schema)

    def test_seeded_runs_are_reproducible(self):
        tup = _gaussian_tuple("a", 5, 4, 10)
        first = run_query(
            "SELECT a * a AS sq FROM s", [tup],
            config=ExecutorConfig(seed=42),
        )
        second = run_query(
            "SELECT a * a AS sq FROM s", [tup],
            config=ExecutorConfig(seed=42),
        )
        assert first[0].value("sq").distribution.mean() == pytest.approx(
            second[0].value("sq").distribution.mean()
        )


class TestAdaptiveBootstrapConfig:
    def test_rejects_bad_targets(self):
        with pytest.raises(QueryError):
            ExecutorConfig(target_ci_width=0.0)
        with pytest.raises(QueryError):
            ExecutorConfig(target_relative_width=-1.0)
        with pytest.raises(QueryError):
            ExecutorConfig(bootstrap_initial_resamples=1)
        with pytest.raises(QueryError):
            ExecutorConfig(bootstrap_growth=1.0)

    def test_fixed_budget_is_multiple_of_n(self):
        # mc_samples=1000, n=300 -> rounded up to 1200, nothing dropped.
        results = run_query(
            "SELECT speed + speed AS s2 FROM s",
            [_gaussian_tuple("speed", 50, 4, 300)],
            config=ExecutorConfig(
                seed=0, accuracy_method="bootstrap", mc_samples=1000,
                bootstrap_resamples=2,
            ),
        )
        info = results[0].accuracy["s2"]
        assert info.values_dropped == 0
        assert info.values_used == 1200
        assert info.values_used % 300 == 0

    def test_budget_floor_is_two_chunks(self):
        # n so large that mc_samples < 2n: budget rises to 2n.
        results = run_query(
            "SELECT speed FROM s",
            [_gaussian_tuple("speed", 50, 4, 900)],
            config=ExecutorConfig(
                seed=0, accuracy_method="bootstrap", mc_samples=100,
                bootstrap_resamples=2,
            ),
        )
        info = results[0].accuracy["speed"]
        assert info.values_used == 1800
        assert info.values_dropped == 0

    def test_adaptive_target_stops_early_and_records_rounds(self):
        fixed = run_query(
            "SELECT speed + speed AS s2 FROM s",
            [_gaussian_tuple("speed", 50, 4, 20)],
            config=ExecutorConfig(
                seed=0, accuracy_method="bootstrap",
                bootstrap_resamples=100,
            ),
        )[0].accuracy["s2"]
        adaptive = run_query(
            "SELECT speed + speed AS s2 FROM s",
            [_gaussian_tuple("speed", 50, 4, 20)],
            config=ExecutorConfig(
                seed=0, accuracy_method="bootstrap",
                bootstrap_resamples=100,
                target_ci_width=10.0 * fixed.mean.length,
            ),
        )[0].accuracy["s2"]
        assert fixed.draws_used == 100 * 20
        assert adaptive.draws_used < fixed.draws_used
        assert adaptive.draws_used % 20 == 0
        assert adaptive.rounds >= 1
        assert adaptive.method == "bootstrap"

    def test_unreachable_target_runs_full_budget(self):
        info = run_query(
            "SELECT speed FROM s",
            [_gaussian_tuple("speed", 50, 4, 20)],
            config=ExecutorConfig(
                seed=0, accuracy_method="bootstrap",
                bootstrap_resamples=50, target_ci_width=1e-12,
            ),
        )[0].accuracy["speed"]
        assert info.draws_used == 50 * 20
