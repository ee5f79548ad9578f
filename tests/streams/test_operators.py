"""Tests for the stream operators and pipeline engine."""

import pytest

from repro.core.coupled import ThreeValued
from repro.core.dfsample import DfSized
from repro.core.predicates import FieldStats, MTest
from repro.distributions.gaussian import GaussianDistribution
from repro.errors import DistributionError, StreamError
from repro.learning.gaussian_learner import GaussianLearner
from repro.obs import Observer
from repro.streams.engine import Pipeline
from repro.streams.operators import (
    CollectSink,
    CountingSink,
    Derive,
    ProbabilisticFilter,
    Project,
    Select,
    SignificanceFilter,
    WindowAggregate,
)
from repro.streams.tuples import UncertainTuple


def _tuples(values, probability=1.0):
    return [
        UncertainTuple({"x": float(v)}, probability=probability)
        for v in values
    ]


class TestSelect:
    def test_filters_by_predicate(self):
        pipe = Pipeline(
            [Select(lambda t: t.value("x") > 2), CollectSink()]
        )
        sink = pipe.run(_tuples([1, 2, 3, 4]))
        assert [t.value("x") for t in sink.results] == [3.0, 4.0]


class TestProject:
    def test_keeps_named_attributes(self):
        pipe = Pipeline([Project(["a"]), CollectSink()])
        sink = pipe.run([UncertainTuple({"a": 1.0, "b": 2.0})])
        assert sink.results[0].attributes == {"a": 1.0}

    def test_rejects_empty_projection(self):
        with pytest.raises(StreamError):
            Project([])


class TestDerive:
    def test_adds_computed_attribute(self):
        pipe = Pipeline(
            [Derive("double", lambda t: t.value("x") * 2), CollectSink()]
        )
        sink = pipe.run(_tuples([3]))
        assert sink.results[0].value("double") == 6.0
        assert sink.results[0].value("x") == 3.0


class TestProbabilisticFilter:
    def test_scales_membership_probability(self):
        pipe = Pipeline(
            [ProbabilisticFilter(lambda t: 0.5), CollectSink()]
        )
        sink = pipe.run(_tuples([1], probability=0.8))
        assert sink.results[0].probability == pytest.approx(0.4)

    def test_drops_zero_probability(self):
        pipe = Pipeline(
            [ProbabilisticFilter(lambda t: 0.0), CollectSink()]
        )
        sink = pipe.run(_tuples([1, 2]))
        assert len(sink.results) == 0

    def test_threshold_drops_below(self):
        pipe = Pipeline(
            [
                ProbabilisticFilter(
                    lambda t: 0.3 if t.value("x") < 2 else 0.9,
                    threshold=0.5,
                ),
                CollectSink(),
            ]
        )
        sink = pipe.run(_tuples([1, 3]))
        assert len(sink.results) == 1
        assert sink.results[0].value("x") == 3.0

    def test_rejects_out_of_range_probability(self):
        pipe = Pipeline([ProbabilisticFilter(lambda t: 1.5), CollectSink()])
        with pytest.raises(StreamError):
            pipe.run(_tuples([1]))


class TestSignificanceFilter:
    @staticmethod
    def _factory(tup):
        field = FieldStats.from_dfsized(tup.dfsized("speed"))
        return MTest(field, ">", 50.0, 0.05)

    def _tuple(self, mean, n=30):
        return UncertainTuple(
            {"speed": DfSized(GaussianDistribution(mean, 25.0), n)}
        )

    @staticmethod
    def _decisions(observer):
        return {
            value: observer.metrics.get(
                f"pipeline.00.SignificanceFilter.decisions."
                f"{value.name.lower()}"
            ).value
            for value in ThreeValued
        }

    def test_keeps_true_drops_false(self):
        op = SignificanceFilter(self._factory)
        observer = Observer()
        pipe = Pipeline([op, CollectSink()], observer=observer)
        sink = pipe.run([self._tuple(80.0), self._tuple(20.0)])
        assert len(sink.results) == 1
        assert self._decisions(observer) == {
            ThreeValued.TRUE: 1,
            ThreeValued.FALSE: 1,
            ThreeValued.UNSURE: 0,
        }

    def test_unsure_policy(self):
        marginal = self._tuple(50.5)
        dropped = SignificanceFilter(self._factory, keep_unsure=False)
        observer = Observer()
        Pipeline([dropped, CollectSink()], observer=observer).run([marginal])
        assert self._decisions(observer)[ThreeValued.UNSURE] == 1

        kept = SignificanceFilter(self._factory, keep_unsure=True)
        sink = Pipeline([kept, CollectSink()]).run([marginal])
        assert len(sink.results) == 1


class TestWindowAggregate:
    def _tuples(self, means):
        return [
            UncertainTuple(
                {"v": DfSized(GaussianDistribution(m, 1.0), 10)}
            )
            for m in means
        ]

    def _stream(self, rng, count=10, n=20):
        learner = GaussianLearner()
        return [
            UncertainTuple(
                {"value": learner.learn(rng.normal(100, 5, n)).as_dfsized()}
            )
            for _ in range(count)
        ]

    def test_avg(self):
        pipe = Pipeline([WindowAggregate("v", 2, "avg"), CollectSink()])
        sink = pipe.run(self._tuples([2.0, 4.0]))
        result = sink.results[-1].value("avg")
        assert result.distribution.mean() == pytest.approx(3.0)
        assert result.sample_size == 10

    def test_exact_average_of_gaussians(self):
        gaussians = [
            GaussianDistribution(10, 4),
            GaussianDistribution(20, 8),
        ]
        tuples = [
            UncertainTuple({"value": DfSized(g, 20)}) for g in gaussians
        ]
        pipe = Pipeline([WindowAggregate("value", 5), CollectSink()])
        sink = pipe.run(tuples)
        last = sink.results[-1].value("avg")
        assert last.distribution.mu == pytest.approx(15.0)
        assert last.distribution.sigma2 == pytest.approx(3.0)  # 12/4
        assert last.sample_size == 20

    def test_window_slides(self, rng):
        pipe = Pipeline([WindowAggregate("value", 3), CollectSink()])
        sink = pipe.run(self._stream(rng, count=10))
        assert len(sink.results) == 10

    def test_incremental_matches_direct(self, rng):
        tuples = self._stream(rng, count=50)
        # Recompute the last window directly.
        members = [t.dfsized("value").distribution for t in tuples[-8:]]
        direct = GaussianDistribution.average(members)
        for batch_size in (1, 16):  # tuple lists, then columns
            pipe = Pipeline([WindowAggregate("value", 8), CollectSink()])
            sink = pipe.run_batched(tuples, batch_size)
            result = sink.results[-1].value("avg").distribution
            assert result.mu == pytest.approx(direct.mu)
            assert result.sigma2 == pytest.approx(direct.sigma2)

    def test_min_sample_size_tracked_through_eviction(self):
        sizes = [30, 10, 20, 25]
        tuples = [
            UncertainTuple(
                {"value": DfSized(GaussianDistribution(0, 1), n)}
            )
            for n in sizes
        ]
        pipe = Pipeline([WindowAggregate("value", 2), CollectSink()])
        sink = pipe.run(tuples)
        # Window contents per step: [30], [30,10], [10,20], [20,25].
        seen = [t.value("avg").sample_size for t in sink.results]
        assert seen == [30, 10, 10, 20]

    def test_sum(self):
        pipe = Pipeline([WindowAggregate("v", 3, "sum"), CollectSink()])
        sink = pipe.run(self._tuples([1.0, 2.0, 3.0]))
        result = sink.results[-1].value("sum")
        assert result.distribution.mean() == pytest.approx(6.0)
        assert result.distribution.variance() == pytest.approx(3.0)

    def test_count_min_max(self):
        means = [5.0, 1.0, 3.0]
        for agg, expected in (("count", 3.0), ("min", 1.0), ("max", 5.0)):
            pipe = Pipeline([WindowAggregate("v", 5, agg), CollectSink()])
            sink = pipe.run(self._tuples(means))
            assert sink.results[-1].value(agg) == pytest.approx(expected)

    def test_works_on_plain_numbers(self):
        pipe = Pipeline([WindowAggregate("x", 2, "avg"), CollectSink()])
        sink = pipe.run(_tuples([2.0, 6.0]))
        result = sink.results[-1].value("avg")
        assert result.distribution.mean() == pytest.approx(4.0)
        assert result.sample_size is None  # exact inputs

    @pytest.mark.parametrize("agg", ["avg", "sum"])
    def test_non_finite_result_raises_canonical_error(self, agg):
        tuples = self._tuples([1e308, 1e308])
        for batch_size in (1, 2):  # tuple lists, then columns
            pipe = Pipeline([WindowAggregate("v", 2, agg), CollectSink()])
            with pytest.raises(DistributionError, match="finite"):
                pipe.run_batched(tuples, batch_size)

    def test_rejects_unknown_aggregate(self):
        with pytest.raises(StreamError):
            WindowAggregate("v", 2, "median")


class TestPipeline:
    def test_chains_operators_in_order(self):
        pipe = Pipeline(
            [
                Derive("y", lambda t: t.value("x") + 1),
                Select(lambda t: t.value("y") > 2),
                CountingSink(),
            ]
        )
        sink = pipe.run(_tuples([0, 1, 2, 3]))
        assert sink.count == 2

    def test_rejects_empty(self):
        with pytest.raises(StreamError):
            Pipeline([])

    def test_push_single_tuple(self):
        pipe = Pipeline([CollectSink()])
        pipe.push(UncertainTuple({"x": 1.0}))
        assert len(pipe.sink.results) == 1
