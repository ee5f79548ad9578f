"""Tests for the time-based sliding aggregate operator."""

import pytest

from repro.core.dfsample import DfSized
from repro.distributions.gaussian import GaussianDistribution
from repro.errors import StreamError
from repro.streams.engine import Pipeline
from repro.streams.operators import CollectSink, TimeWindowAggregate
from repro.streams.tuples import UncertainTuple


def _tuple(mean, ts, n=10):
    return UncertainTuple(
        {"v": DfSized(GaussianDistribution(mean, 1.0), n)},
        timestamp=ts,
    )


class TestTimeWindowAggregate:
    def test_window_keeps_recent_items(self):
        pipe = Pipeline([TimeWindowAggregate("v", 10.0), CollectSink()])
        sink = pipe.run(
            [_tuple(10.0, 0.0), _tuple(20.0, 5.0), _tuple(30.0, 12.0)]
        )
        # At t=12 the t=0 tuple has expired: avg over {20, 30}.
        final = sink.results[-1].value("avg")
        assert final.distribution.mean() == pytest.approx(25.0)

    def test_emits_per_arrival(self):
        pipe = Pipeline([TimeWindowAggregate("v", 10.0), CollectSink()])
        sink = pipe.run([_tuple(1.0, float(t)) for t in range(5)])
        assert len(sink.results) == 5

    def test_sum_variance_propagation(self):
        pipe = Pipeline(
            [TimeWindowAggregate("v", 100.0, agg="sum"), CollectSink()]
        )
        sink = pipe.run([_tuple(2.0, 0.0), _tuple(3.0, 1.0)])
        value = sink.results[-1].value("sum")
        assert value.distribution.mean() == pytest.approx(5.0)
        assert value.distribution.variance() == pytest.approx(2.0)
        assert value.sample_size == 10

    def test_count_min_max(self):
        for agg, expected in (("count", 2.0), ("min", 2.0), ("max", 7.0)):
            pipe = Pipeline(
                [TimeWindowAggregate("v", 100.0, agg=agg), CollectSink()]
            )
            sink = pipe.run([_tuple(2.0, 0.0), _tuple(7.0, 1.0)])
            assert sink.results[-1].value(agg) == pytest.approx(expected)

    def test_requires_timestamps(self):
        # A NaN timestamp would pass every ordering check and then never
        # expire, so the window would grow without bound behind it.
        for ts in (None, float("nan")):
            pipe = Pipeline([TimeWindowAggregate("v", 10.0), CollectSink()])
            with pytest.raises(StreamError, match="timestamped"):
                pipe.run([_tuple(1.0, 0.0), _tuple(0.0, ts)])

    def test_rejects_time_regression(self):
        pipe = Pipeline([TimeWindowAggregate("v", 10.0), CollectSink()])
        with pytest.raises(StreamError, match="non-decreasing"):
            pipe.run([_tuple(1.0, 5.0), _tuple(1.0, 4.0)])

    def test_rejects_bad_parameters(self):
        with pytest.raises(StreamError):
            TimeWindowAggregate("v", 0.0)
        with pytest.raises(StreamError):
            TimeWindowAggregate("v", 10.0, agg="median")
