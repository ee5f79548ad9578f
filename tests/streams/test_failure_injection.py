"""Failure-injection tests: errors propagate cleanly, state stays sane.

A production stream system must not corrupt window or database state
when a tuple is malformed or an operator raises mid-pipeline.
"""

import pytest

from repro.core.dfsample import DfSized
from repro.db import StreamDatabase
from repro.distributions.gaussian import GaussianDistribution
from repro.errors import (
    CallbackError,
    DistributionError,
    ReproError,
    SchemaError,
    StreamError,
)
from repro.streams.columnar import ColumnarBatch
from repro.streams.engine import Pipeline
from repro.streams.groupby import GroupedAggregate
from repro.streams.operators import (
    CollectSink,
    Operator,
    TimeWindowAggregate,
    WindowAggregate,
)
from repro.streams.tuples import Schema, UncertainTuple


class _Bomb(Operator):
    """Raises on the Nth tuple it sees."""

    def __init__(self, explode_at: int) -> None:
        super().__init__()
        self.explode_at = explode_at
        self.seen = 0

    def process_many(self, tuples) -> None:
        out = []
        for tup in tuples:
            self.seen += 1
            if self.seen == self.explode_at:
                raise RuntimeError("injected failure")
            out.append(tup)
        self.emit_many(out)


class TestPipelineFailures:
    def test_error_propagates_to_caller(self):
        pipe = Pipeline([_Bomb(2), CollectSink()])
        with pytest.raises(RuntimeError, match="injected failure"):
            pipe.run([UncertainTuple({"x": 1.0})] * 3)

    def test_results_before_failure_survive(self):
        sink = CollectSink()
        pipe = Pipeline([_Bomb(3), sink])
        with pytest.raises(RuntimeError):
            pipe.run([UncertainTuple({"x": float(i)}) for i in range(5)])
        assert [t.value("x") for t in sink.results] == [0.0, 1.0]

    def test_pipeline_usable_after_recovered_failure(self):
        bomb = _Bomb(1)
        sink = CollectSink()
        pipe = Pipeline([bomb, sink])
        with pytest.raises(RuntimeError):
            pipe.push(UncertainTuple({"x": 1.0}))
        # The bomb only fires once; subsequent pushes flow normally.
        pipe.push(UncertainTuple({"x": 2.0}))
        assert len(sink.results) == 1

    def test_window_state_consistent_after_bad_tuple(self):
        op = WindowAggregate("value", 3)
        sink = CollectSink()
        pipe = Pipeline([op, sink])
        good = UncertainTuple(
            {"value": DfSized(GaussianDistribution(10.0, 1.0), 5)}
        )
        bad = UncertainTuple({"value": "not a distribution"})
        pipe.push(good)
        with pytest.raises(ReproError):
            pipe.push(bad)
        # The failed tuple contributed nothing; the average is untouched.
        pipe.push(good)
        final = sink.results[-1].value("avg")
        assert final.distribution.mean() == pytest.approx(10.0)


def _reading(timestamp, mean=10.0):
    return UncertainTuple(
        {"g": 0, "value": DfSized(GaussianDistribution(mean, 1.0), 5)},
        timestamp=timestamp,
    )


#: Every sliding-window operator, counting its window.
_WINDOWS = {
    "WindowAggregate": lambda: WindowAggregate("value", 10, agg="count"),
    "TimeWindowAggregate": lambda: TimeWindowAggregate(
        "value", 100.0, agg="count"
    ),
    "GroupedAggregate": lambda: GroupedAggregate(
        "g", "value", 10, agg="count"
    ),
}

_LAYOUTS = {"tuples": list, "columnar": ColumnarBatch.from_tuples}

#: Every sliding-window operator averaging its window, with the number
#: of rows its window holds.
_AVERAGES = {
    "WindowAggregate": (
        lambda: WindowAggregate("value", 10),
        lambda op: op._stats.count,
    ),
    "TimeWindowAggregate": (
        lambda: TimeWindowAggregate("value", 100.0),
        lambda op: op._stats.count,
    ),
    "GroupedAggregate": (
        lambda: GroupedAggregate("g", "value", 10),
        lambda op: op._groups[0].count,
    ),
}


class TestFailedBatch:
    """A batch with a row that cannot be read slides nothing: no ghost
    rows in the window."""

    def _fails_whole(self, operator, layout, batch, error):
        sink = CollectSink()
        pipe = Pipeline([_WINDOWS[operator](), sink])
        with pytest.raises(error):
            pipe.push_many(_LAYOUTS[layout](batch))
        assert sink.results == []
        pipe.push(_reading(10.0))
        # Only the tuple after the failed batch is in the window.
        assert [t.value("count") for t in sink.results] == [1.0]

    @pytest.mark.parametrize("layout", sorted(_LAYOUTS))
    @pytest.mark.parametrize("operator", sorted(_WINDOWS))
    def test_bad_row_leaves_window_untouched(self, operator, layout):
        bad = UncertainTuple(
            {"g": 0, "value": "not a distribution"}, timestamp=3.0
        )
        batch = [_reading(1.0), _reading(2.0), bad]
        self._fails_whole(operator, layout, batch, ReproError)

    @pytest.mark.parametrize("layout", sorted(_LAYOUTS))
    def test_time_regression_refuses_whole_batch(self, layout):
        batch = [_reading(5.0), _reading(6.0), _reading(4.0)]
        self._fails_whole(
            "TimeWindowAggregate", layout, batch, StreamError
        )

    @pytest.mark.parametrize("layout", sorted(_LAYOUTS))
    @pytest.mark.parametrize("operator", sorted(_AVERAGES))
    def test_overflow_stops_at_its_row(self, operator, layout):
        # A readable row whose average overflows raises at its own
        # slide: it and the rows ahead of it stay in the window, the
        # rows after it are never pushed — on both layouts alike.
        build, window_rows = _AVERAGES[operator]
        op = build()
        sink = CollectSink()
        pipe = Pipeline([op, sink])
        batch = [
            _reading(1.0, 1e308),
            _reading(2.0, 1e308),
            _reading(3.0, 5.0),
        ]
        with pytest.raises(DistributionError, match="finite"):
            pipe.push_many(_LAYOUTS[layout](batch))
        assert sink.results == []
        assert window_rows(op) == 2


class TestDatabaseFailures:
    def test_schema_violation_inserts_nothing(self):
        db = StreamDatabase()
        db.create_stream("s", Schema([("x", "number")]))
        with pytest.raises(SchemaError):
            db.insert("s", {"x": "wrong"})
        assert db.count("s") == 0
        assert db.stats("s")["inserted"] == 0

    def test_failing_callback_does_not_lose_the_tuple(self):
        db = StreamDatabase()
        db.create_stream("s")

        def explode(result):
            raise RuntimeError("callback failure")

        db.register_continuous("boom", "SELECT x FROM s", explode)
        with pytest.raises(CallbackError) as excinfo:
            db.insert("s", {"x": 1.0})
        assert excinfo.value.query_name == "boom"
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        # The tuple was buffered before the callback ran.
        assert db.count("s") == 1

    @pytest.mark.parametrize("shared", [True, False])
    def test_failing_callback_stops_the_batch_at_its_row(self, shared):
        db = StreamDatabase(shared_subplans=shared)
        db.create_stream("s")
        seen = []

        def explode_on_two(result):
            seen.append(result.value("x").distribution.mean())
            if seen[-1] == 2.0:
                raise RuntimeError("callback failure")

        db.register_continuous("boom", "SELECT x FROM s", explode_on_two)
        with pytest.raises(CallbackError):
            db.insert_many("s", [{"x": 1.0}, {"x": 2.0}, {"x": 3.0}])
        # The failing row is buffered; the rows after it are not.
        assert seen == [1.0, 2.0]
        assert db.count("s") == 2
        assert db.stats("s")["inserted"] == 2

    def test_bad_record_aborts_ingest_before_any_insert(self):
        db = StreamDatabase()
        db.create_stream("s")
        records = [
            {"g": 1, "v": 1.0},
            {"g": 1, "v": 2.0},
            {"broken": True},  # malformed
        ]
        with pytest.raises(SchemaError):
            db.ingest_observations(records=records, name="s",
                                   group_by="g", value="v")
        # Grouping validates every record before learning/inserting.
        assert db.count("s") == 0

    def test_unknown_stream_query_leaves_db_usable(self):
        db = StreamDatabase()
        db.create_stream("s")
        with pytest.raises(StreamError):
            db.query("SELECT x FROM ghost")
        db.insert("s", {"x": 1.0})
        assert db.count("s") == 1
