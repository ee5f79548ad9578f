"""Tests for the streaming execute_iter API and histogram quantiles."""

import pytest

from repro.core.dfsample import DfSized
from repro.distributions.gaussian import GaussianDistribution
from repro.distributions.histogram import HistogramDistribution
from repro.errors import DistributionError, QueryError
from repro.query.executor import ExecutorConfig, QueryExecutor
from repro.streams.tuples import UncertainTuple


def _tuples(means):
    return [
        UncertainTuple(
            {"id": float(i), "v": DfSized(GaussianDistribution(m, 1.0), 10)}
        )
        for i, m in enumerate(means)
    ]


class TestExecuteIter:
    def test_streams_matching_results(self):
        executor = QueryExecutor(
            "SELECT id FROM s WHERE v > 3 PROB 0.5",
            config=ExecutorConfig(seed=0),
        )
        iterator = executor.execute_iter(_tuples([5.0, 1.0, 9.0]))
        first = next(iterator)
        assert first.value("id").distribution.mean() == 0.0
        rest = list(iterator)
        assert len(rest) == 1

    def test_lazy_consumption(self):
        executor = QueryExecutor(
            "SELECT id FROM s", config=ExecutorConfig(seed=0)
        )
        consumed = []

        def source():
            for tup in _tuples([1.0, 2.0, 3.0]):
                consumed.append(tup)
                yield tup

        iterator = executor.execute_iter(source())
        next(iterator)
        assert len(consumed) == 1  # nothing pre-buffered

    def test_rejects_order_by(self):
        executor = QueryExecutor(
            "SELECT id FROM s ORDER BY v", config=ExecutorConfig(seed=0)
        )
        with pytest.raises(QueryError):
            next(executor.execute_iter(_tuples([1.0])))

    def test_rejects_limit(self):
        executor = QueryExecutor(
            "SELECT id FROM s LIMIT 1", config=ExecutorConfig(seed=0)
        )
        with pytest.raises(QueryError):
            next(executor.execute_iter(_tuples([1.0])))

    def test_matches_execute(self):
        text = "SELECT id FROM s WHERE v > 2"
        eager = QueryExecutor(text, config=ExecutorConfig(seed=7)).execute(
            _tuples([1.0, 5.0])
        )
        lazy = list(
            QueryExecutor(text, config=ExecutorConfig(seed=7)).execute_iter(
                _tuples([1.0, 5.0])
            )
        )
        assert len(eager) == len(lazy)
        assert eager[-1].probability == pytest.approx(lazy[-1].probability)


class TestHistogramQuantile:
    def test_inverts_cdf(self):
        h = HistogramDistribution([0, 10, 20, 30], [0.2, 0.5, 0.3])
        for q in (0.05, 0.2, 0.45, 0.7, 0.95):
            assert h.cdf(h.quantile(q)) == pytest.approx(q)

    def test_endpoints(self):
        h = HistogramDistribution([0, 10], [1.0])
        assert h.quantile(0.0) == 0.0
        assert h.quantile(1.0) == 10.0

    def test_skips_zero_mass_buckets(self):
        h = HistogramDistribution([0, 1, 2, 3], [0.5, 0.0, 0.5])
        # q = 0.5 sits exactly at the boundary; quantiles past it land
        # in the third bucket.
        assert h.quantile(0.75) == pytest.approx(2.5)

    def test_median_of_uniform(self):
        h = HistogramDistribution([4, 8], [1.0])
        assert h.quantile(0.5) == pytest.approx(6.0)

    def test_rejects_out_of_range(self):
        h = HistogramDistribution([0, 1], [1.0])
        with pytest.raises(DistributionError):
            h.quantile(1.5)
