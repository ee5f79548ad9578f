"""Tests for SQL aggregate queries (AVG / SUM / COUNT)."""

import pytest

from repro.core.dfsample import DfSized
from repro.distributions.gaussian import GaussianDistribution
from repro.errors import QueryError
from repro.query.executor import ExecutorConfig, QueryExecutor, run_query
from repro.query.parser import parse_query
from repro.query.planner import compile_query
from repro.streams.tuples import UncertainTuple


def _tuples(means, n=20, probability=1.0):
    return [
        UncertainTuple(
            {"v": DfSized(GaussianDistribution(m, 4.0), n)},
            probability=probability,
        )
        for m in means
    ]


class TestParsing:
    def test_aggregate_flags(self):
        query = parse_query("SELECT AVG(v) FROM s")
        assert query.is_aggregate
        assert query.aggregates == ("avg",)
        assert query.select_items[0][1] == "avg_v"

    def test_count_star(self):
        query = parse_query("SELECT COUNT(*) AS c FROM s")
        assert query.aggregates == ("count",)
        assert query.select_items[0][1] == "c"

    def test_aggregate_over_expression(self):
        query = parse_query("SELECT SUM(v * 2 + 1) AS total FROM s")
        assert query.aggregates == ("sum",)

    def test_plain_query_has_no_aggregates(self):
        query = parse_query("SELECT v FROM s")
        assert not query.is_aggregate
        assert query.aggregates == (None,)


class TestPlanning:
    def test_rejects_mixed_select(self):
        with pytest.raises(QueryError, match="mix aggregate"):
            compile_query("SELECT AVG(v), v FROM s")

    def test_rejects_order_by_on_aggregate(self):
        with pytest.raises(QueryError, match="ORDER BY"):
            compile_query("SELECT AVG(v) FROM s ORDER BY v")

    def test_rejects_limit_on_aggregate(self):
        with pytest.raises(QueryError):
            compile_query("SELECT COUNT(*) FROM s LIMIT 1")

    def test_multiple_aggregates_fine(self):
        compiled = compile_query("SELECT AVG(v), SUM(v), COUNT(*) FROM s")
        assert compiled.is_aggregate


class TestExecution:
    def test_avg_of_gaussians(self):
        results = run_query(
            "SELECT AVG(v) AS m FROM s",
            _tuples([10.0, 20.0]),
            config=ExecutorConfig(seed=0),
        )
        assert len(results) == 1
        dist = results[0].value("m").distribution
        assert dist.mean() == pytest.approx(15.0)
        assert dist.variance() == pytest.approx(2.0)  # (4+4)/4

    def test_sum_moments(self):
        results = run_query(
            "SELECT SUM(v) AS total FROM s",
            _tuples([10.0, 20.0, 30.0]),
            config=ExecutorConfig(seed=0),
        )
        dist = results[0].value("total").distribution
        assert dist.mean() == pytest.approx(60.0)
        assert dist.variance() == pytest.approx(12.0)

    def test_count_certain_tuples_is_exact(self):
        results = run_query(
            "SELECT COUNT(*) AS c FROM s",
            _tuples([1.0] * 5),
            config=ExecutorConfig(seed=0),
        )
        dist = results[0].value("c").distribution
        assert dist.mean() == pytest.approx(5.0)
        assert dist.variance() == pytest.approx(0.0)

    def test_count_uncertain_membership(self):
        results = run_query(
            "SELECT COUNT(*) AS c FROM s",
            _tuples([1.0] * 4, probability=0.5),
            config=ExecutorConfig(seed=0),
        )
        dist = results[0].value("c").distribution
        assert dist.mean() == pytest.approx(2.0)
        assert dist.variance() == pytest.approx(1.0)  # 4 * 0.25

    def test_sum_includes_membership_variance(self):
        # One tuple with value 10 and p = 0.5: E = 5, Var = 0.5*(4+100)
        # - 0.25*100 = 27.
        results = run_query(
            "SELECT SUM(v) AS total FROM s",
            _tuples([10.0], probability=0.5),
            config=ExecutorConfig(seed=0),
        )
        dist = results[0].value("total").distribution
        assert dist.mean() == pytest.approx(5.0)
        assert dist.variance() == pytest.approx(27.0)

    def test_where_filters_before_aggregating(self):
        results = run_query(
            "SELECT COUNT(*) AS c FROM s WHERE v > 15 PROB 0.5",
            _tuples([10.0, 20.0, 30.0]),
            config=ExecutorConfig(seed=0),
        )
        dist = results[0].value("c").distribution
        # Tuples at 20 and 30 qualify; their membership carries the
        # predicate probabilities (P[N(20,4) > 15] ~ .994, ~1).
        assert dist.mean() == pytest.approx(2.0, abs=0.02)

    def test_df_sample_size_is_minimum(self):
        tuples = [
            UncertainTuple({"v": DfSized(GaussianDistribution(1, 1), 50)}),
            UncertainTuple({"v": DfSized(GaussianDistribution(2, 1), 10)}),
        ]
        results = run_query(
            "SELECT AVG(v) AS m FROM s", tuples,
            config=ExecutorConfig(seed=0),
        )
        assert results[0].value("m").sample_size == 10

    def test_accuracy_attached_to_aggregate(self):
        results = run_query(
            "SELECT AVG(v) AS m FROM s",
            _tuples([10.0, 20.0], n=25),
            config=ExecutorConfig(seed=0, confidence=0.9),
        )
        info = results[0].accuracy["m"]
        assert info.mean.contains(15.0)
        assert info.sample_size == 25

    def test_empty_input_gives_empty_result(self):
        results = run_query(
            "SELECT AVG(v) AS m FROM s", [],
            config=ExecutorConfig(seed=0),
        )
        assert results == []

    def test_nothing_qualifies_gives_empty_result(self):
        results = run_query(
            "SELECT COUNT(*) AS c FROM s WHERE v > 1000 PROB 0.5",
            _tuples([1.0, 2.0]),
            config=ExecutorConfig(seed=0),
        )
        assert results == []

    def test_execute_one_rejected(self):
        executor = QueryExecutor(
            "SELECT AVG(v) FROM s", config=ExecutorConfig(seed=0)
        )
        with pytest.raises(QueryError, match="whole stream"):
            executor.execute_one(_tuples([1.0])[0])

    def test_execute_iter_rejected(self):
        executor = QueryExecutor(
            "SELECT AVG(v) FROM s", config=ExecutorConfig(seed=0)
        )
        with pytest.raises(QueryError):
            next(executor.execute_iter(_tuples([1.0])))

    def test_matches_sliding_window_operator(self):
        """The SQL AVG agrees with the stream operator's closed form."""
        from repro.streams.engine import Pipeline
        from repro.streams.operators import CollectSink, WindowAggregate

        tuples = _tuples([5.0, 15.0, 25.0], n=20)
        sql = run_query(
            "SELECT AVG(v) AS m FROM s", tuples,
            config=ExecutorConfig(seed=0),
        )[0].value("m").distribution
        sink = Pipeline(
            [WindowAggregate("v", 10), CollectSink()]
        ).run(tuples)
        stream = sink.results[-1].value("avg").distribution
        assert sql.mean() == pytest.approx(stream.mean())
        assert sql.variance() == pytest.approx(stream.variance())


class TestGroupBy:
    def _grouped_tuples(self):
        return [
            UncertainTuple(
                {"road": road,
                 "v": DfSized(GaussianDistribution(mean, 4.0), n)}
            )
            for road, mean, n in [
                (1.0, 10.0, 20), (2.0, 30.0, 10), (1.0, 20.0, 30),
            ]
        ]

    def test_one_row_per_group_in_key_order(self):
        rows = run_query(
            "SELECT AVG(v) AS m FROM t GROUP BY road",
            self._grouped_tuples(),
            config=ExecutorConfig(seed=0),
        )
        assert len(rows) == 2
        keys = [r.value("road").distribution.mean() for r in rows]
        assert keys == [1.0, 2.0]
        assert rows[0].value("m").distribution.mean() == pytest.approx(15.0)
        assert rows[1].value("m").distribution.mean() == pytest.approx(30.0)

    def test_group_sample_size_is_group_minimum(self):
        rows = run_query(
            "SELECT SUM(v) AS s FROM t GROUP BY road",
            self._grouped_tuples(),
            config=ExecutorConfig(seed=0),
        )
        assert rows[0].value("s").sample_size == 20
        assert rows[1].value("s").sample_size == 10

    def test_text_keys_pass_through(self):
        tuples = [
            UncertainTuple(
                {"city": name,
                 "v": DfSized(GaussianDistribution(m, 1.0), 10)}
            )
            for name, m in [("boston", 5.0), ("nyc", 9.0), ("boston", 7.0)]
        ]
        rows = run_query(
            "SELECT COUNT(*) AS c FROM t GROUP BY city",
            tuples, config=ExecutorConfig(seed=0),
        )
        assert [r.value("city") for r in rows] == ["boston", "nyc"]
        assert rows[0].value("c").distribution.mean() == pytest.approx(2.0)

    def test_where_applies_before_grouping(self):
        rows = run_query(
            "SELECT COUNT(*) AS c FROM t WHERE v > 15 PROB 0.5 "
            "GROUP BY road",
            self._grouped_tuples(),
            config=ExecutorConfig(seed=0),
        )
        # Road 1 keeps only the mean-20 tuple; road 2 keeps its only one.
        assert len(rows) == 2
        assert rows[0].value("c").distribution.mean() == pytest.approx(
            1.0, abs=0.02
        )

    def test_rejects_group_by_without_aggregates(self):
        with pytest.raises(QueryError, match="GROUP BY requires"):
            compile_query("SELECT v FROM t GROUP BY road")

    def test_rejects_non_deterministic_key(self):
        tuples = [
            UncertainTuple(
                {"road": DfSized(GaussianDistribution(1, 1), 5),
                 "v": 1.0}
            )
        ]
        with pytest.raises(QueryError, match="deterministic key"):
            run_query(
                "SELECT COUNT(*) AS c FROM t GROUP BY road",
                tuples, config=ExecutorConfig(seed=0),
            )

    def test_group_key_validated_against_schema(self):
        from repro.streams.tuples import Schema

        with pytest.raises(QueryError, match="unknown attributes"):
            compile_query(
                "SELECT AVG(v) FROM t GROUP BY missing",
                Schema(["v"]),
            )
