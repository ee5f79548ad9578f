"""Failure-injection tests: errors propagate cleanly, state stays sane.

A production stream system must not corrupt window or database state
when a tuple is malformed or an operator raises mid-pipeline.
"""

import pytest

from repro.db import StreamDatabase
from repro.errors import CallbackError, ReproError, SchemaError, StreamError
from repro.streams.engine import Pipeline
from repro.streams.operators import (
    CollectSink,
    Operator,
    SlidingGaussianAverage,
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
        op = SlidingGaussianAverage("value", 3)
        sink = CollectSink()
        pipe = Pipeline([op, sink])
        from repro.core.dfsample import DfSized
        from repro.distributions.gaussian import GaussianDistribution

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
