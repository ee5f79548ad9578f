"""Tests for the window join and grouped aggregation operators."""

import pytest

from repro.core.dfsample import DfSized
from repro.distributions.gaussian import GaussianDistribution
from repro.errors import StreamError
from repro.streams.engine import Pipeline
from repro.streams.groupby import GroupedAggregate
from repro.streams.join import TagSide, WindowJoin
from repro.streams.operators import CollectSink
from repro.streams.tuples import UncertainTuple


def _tagged(side, **attrs):
    tup = UncertainTuple(
        {k: v for k, v in attrs.items() if k != "probability"},
        probability=attrs.get("probability", 1.0),
    )
    collector = CollectSink()
    tagger = TagSide(side)
    tagger.connect(collector)
    tagger.receive_many([tup])
    return collector.results[0]


class TestTagSide:
    def test_tags_and_preserves(self):
        tagged = _tagged("left", road=1.0, probability=0.7)
        assert tagged.attributes["__join_side__"] == "left"
        assert tagged.value("road") == 1.0
        assert tagged.probability == 0.7

    def test_rejects_bad_side(self):
        with pytest.raises(StreamError):
            TagSide("middle")


class TestWindowJoin:
    def _run(self, tuples, window_size=10, **kwargs):
        join = WindowJoin("road", window_size, **kwargs)
        sink = CollectSink()
        pipe = Pipeline([join, sink])
        pipe.run(tuples)
        return join, sink.results

    def test_matching_keys_join(self):
        tuples = [
            _tagged("left", road=1.0, delay=10.0),
            _tagged("right", road=1.0, speed=30.0),
        ]
        join, results = self._run(tuples)
        assert len(results) == 1
        joined = results[0]
        assert joined.value("road") == 1.0
        assert joined.value("l_delay") == 10.0
        assert joined.value("r_speed") == 30.0
        assert join.matches == 1

    def test_non_matching_keys_do_not_join(self):
        tuples = [
            _tagged("left", road=1.0, delay=10.0),
            _tagged("right", road=2.0, speed=30.0),
        ]
        _join, results = self._run(tuples)
        assert results == []

    def test_probability_is_product(self):
        tuples = [
            _tagged("left", road=1.0, delay=1.0, probability=0.5),
            _tagged("right", road=1.0, speed=1.0, probability=0.4),
        ]
        _join, results = self._run(tuples)
        assert results[0].probability == pytest.approx(0.2)

    def test_symmetric_many_to_many(self):
        tuples = [
            _tagged("left", road=1.0, delay=1.0),
            _tagged("left", road=1.0, delay=2.0),
            _tagged("right", road=1.0, speed=9.0),
        ]
        _join, results = self._run(tuples)
        assert len(results) == 2
        delays = sorted(r.value("l_delay") for r in results)
        assert delays == [1.0, 2.0]

    def test_window_eviction_limits_matches(self):
        tuples = [
            _tagged("left", road=1.0, delay=1.0),
            _tagged("left", road=2.0, delay=2.0),  # evicts road-1 left
            _tagged("right", road=1.0, speed=9.0),
        ]
        _join, results = self._run(tuples, window_size=1)
        assert results == []

    def test_join_tag_stripped_from_output(self):
        tuples = [
            _tagged("left", road=1.0, delay=1.0),
            _tagged("right", road=1.0, speed=2.0),
        ]
        _join, results = self._run(tuples)
        assert "__join_side__" not in results[0].attributes

    def test_untagged_tuple_rejected(self):
        join = WindowJoin("road", 4)
        pipe = Pipeline([join, CollectSink()])
        with pytest.raises(StreamError, match="untagged"):
            pipe.run([UncertainTuple({"road": 1.0})])

    def test_side_of_override(self):
        def side_of(tup):
            return "left" if tup.value("kind") == "a" else "right"

        join = WindowJoin("road", 4, side_of=side_of)
        sink = CollectSink()
        Pipeline([join, sink]).run(
            [
                UncertainTuple({"road": 1.0, "kind": "a", "x": 1.0}),
                UncertainTuple({"road": 1.0, "kind": "b", "y": 2.0}),
            ]
        )
        assert len(sink.results) == 1
        assert sink.results[0].value("l_x") == 1.0

    def test_rejects_equal_prefixes(self):
        with pytest.raises(StreamError):
            WindowJoin("road", 4, prefix_left="p_", prefix_right="p_")

    def test_rejects_bad_window(self):
        with pytest.raises(StreamError):
            WindowJoin("road", 0)

    def test_joins_preserve_distribution_fields(self):
        dist = DfSized(GaussianDistribution(50, 4), 20)
        tuples = [
            _tagged("left", road=1.0, delay=dist),
            _tagged("right", road=1.0, speed=3.0),
        ]
        _join, results = self._run(tuples)
        joined = results[0].dfsized("l_delay")
        assert joined.sample_size == 20


class TestGroupedAggregate:
    def _tuple(self, key, mean, n=10):
        return UncertainTuple(
            {
                "road": key,
                "delay": DfSized(GaussianDistribution(mean, 1.0), n),
            }
        )

    def test_per_group_average(self):
        op = GroupedAggregate("road", "delay", window_size=10, agg="avg")
        sink = CollectSink()
        Pipeline([op, sink]).run(
            [
                self._tuple(1, 10.0),
                self._tuple(2, 100.0),
                self._tuple(1, 20.0),
            ]
        )
        assert op.group_count == 2
        # Last emission for road 1 averages both of its tuples.
        last_road1 = [
            r for r in sink.results if r.value("road") == 1
        ][-1]
        assert last_road1.value("avg").distribution.mean() == pytest.approx(
            15.0
        )

    def test_window_evicts_per_group(self):
        op = GroupedAggregate("road", "delay", window_size=2, agg="avg")
        sink = CollectSink()
        Pipeline([op, sink]).run(
            [self._tuple(1, m) for m in (10.0, 20.0, 60.0)]
        )
        final = sink.results[-1]
        assert final.value("avg").distribution.mean() == pytest.approx(40.0)

    def test_count_aggregate(self):
        op = GroupedAggregate("road", "delay", window_size=5, agg="count")
        sink = CollectSink()
        Pipeline([op, sink]).run(
            [self._tuple(1, 0.0), self._tuple(1, 0.0)]
        )
        assert sink.results[-1].value("count") == 2.0

    def test_flush_mode_emits_once_per_group(self):
        op = GroupedAggregate(
            "road", "delay", window_size=5, agg="avg", emit_every=False
        )
        sink = CollectSink()
        Pipeline([op, sink]).run(
            [
                self._tuple(2, 10.0),
                self._tuple(1, 20.0),
                self._tuple(2, 30.0),
            ]
        )
        assert len(sink.results) == 2
        roads = [r.value("road") for r in sink.results]
        assert roads == [1, 2]  # deterministic (sorted) flush order

    def test_sample_size_is_group_minimum(self):
        op = GroupedAggregate("road", "delay", window_size=5, agg="sum")
        sink = CollectSink()
        Pipeline([op, sink]).run(
            [self._tuple(1, 0.0, n=30), self._tuple(1, 0.0, n=12)]
        )
        assert sink.results[-1].value("sum").sample_size == 12

    def test_rejects_bad_aggregate(self):
        with pytest.raises(StreamError):
            GroupedAggregate("road", "delay", 5, agg="median")
