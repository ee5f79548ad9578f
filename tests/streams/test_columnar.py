"""Unit tests for the struct-of-arrays columnar batch."""

import pickle
from collections.abc import Sequence

import numpy as np
import pytest

from repro.core.dfsample import DfSized
from repro.distributions.gaussian import GaussianDistribution
from repro.errors import StreamError
from repro.streams.columnar import (
    EXACT_SIZE,
    ArrayColumn,
    ColumnarBatch,
    FloatColumn,
    GaussianDfColumn,
    IntColumn,
    ObjectColumn,
    as_columnar,
)
from repro.streams.operators import CollectSink, Derive, Project, Select
from repro.streams.tuples import UncertainTuple


def _mixed_tuples(n=8):
    rng = np.random.default_rng(3)
    return [
        UncertainTuple(
            {
                "x": float(rng.normal()),
                "k": i,
                "g": DfSized(
                    GaussianDistribution(float(i), float(i) + 1.0),
                    None if i % 3 == 0 else 10 + i,
                ),
                "points": rng.normal(0.0, 1.0, 5),
                "tag": f"t{i % 2}",
            },
            probability=0.5 + i / (2 * n),
            timestamp=float(i),
        )
        for i in range(n)
    ]


class TestInference:
    def test_column_kinds(self):
        batch = ColumnarBatch.from_tuples(_mixed_tuples())
        assert isinstance(batch.column("x"), FloatColumn)
        assert isinstance(batch.column("k"), IntColumn)
        assert isinstance(batch.column("g"), GaussianDfColumn)
        assert isinstance(batch.column("points"), ArrayColumn)
        assert isinstance(batch.column("tag"), ObjectColumn)
        assert batch.column("missing") is None

    def test_exact_size_sentinel(self):
        batch = ColumnarBatch.from_tuples(_mixed_tuples())
        sizes = batch.column("g").sizes
        assert sizes[0] == EXACT_SIZE
        assert batch[0].value("g").sample_size is None
        assert batch[1].value("g").sample_size == 11

    def test_numpy_scalars_stay_objects(self):
        # np.float64 pickles differently from float: strict inference
        # must NOT absorb it into an f8 column.
        tuples = [
            UncertainTuple({"v": np.float64(1.5)}),
            UncertainTuple({"v": np.float64(2.5)}),
        ]
        batch = ColumnarBatch.from_tuples(tuples)
        assert isinstance(batch.column("v"), ObjectColumn)
        assert type(batch[0].value("v")) is np.float64

    def test_int64_overflow_falls_back_to_objects(self):
        big = 2**70
        batch = ColumnarBatch.from_tuples(
            [UncertainTuple({"v": big}), UncertainTuple({"v": -big})]
        )
        assert isinstance(batch.column("v"), ObjectColumn)
        assert batch[0].value("v") == big

    def test_ragged_arrays_fall_back_to_objects(self):
        batch = ColumnarBatch.from_tuples(
            [
                UncertainTuple({"v": np.zeros(3)}),
                UncertainTuple({"v": np.zeros(4)}),
            ]
        )
        assert isinstance(batch.column("v"), ObjectColumn)

    def test_non_uniform_layout_rejected(self):
        tuples = [
            UncertainTuple({"a": 1.0}),
            UncertainTuple({"b": 1.0}),
        ]
        with pytest.raises(StreamError, match="uniform attribute layout"):
            ColumnarBatch.from_tuples(tuples)
        assert as_columnar(tuples) is None

    def test_as_columnar_passthrough(self):
        batch = ColumnarBatch.from_tuples(_mixed_tuples())
        assert as_columnar(batch) is batch


class TestRoundTrip:
    def test_materialized_tuples_pickle_identical(self):
        tuples = _mixed_tuples()
        batch = ColumnarBatch.from_tuples(tuples)
        assert [pickle.dumps(t) for t in batch.to_tuples()] == [
            pickle.dumps(t) for t in tuples
        ]

    def test_from_to_from_is_identity(self):
        batch = ColumnarBatch.from_tuples(_mixed_tuples())
        assert ColumnarBatch.from_tuples(batch.to_tuples()) == batch

    def test_empty(self):
        batch = ColumnarBatch.from_tuples([])
        assert len(batch) == 0
        assert batch.to_tuples() == []
        assert ColumnarBatch.from_tuples(batch.to_tuples()) == batch


class TestSequenceProtocol:
    def test_indexing(self):
        tuples = _mixed_tuples()
        batch = ColumnarBatch.from_tuples(tuples)
        assert pickle.dumps(batch[3]) == pickle.dumps(tuples[3])
        assert pickle.dumps(batch[-1]) == pickle.dumps(tuples[-1])
        with pytest.raises(IndexError):
            batch[len(tuples)]

    def test_slice_and_take(self):
        tuples = _mixed_tuples()
        batch = ColumnarBatch.from_tuples(tuples)

        def dumps(items):
            return [pickle.dumps(t) for t in items]

        assert dumps(batch.slice(2, 5)) == dumps(tuples[2:5])
        assert dumps(batch[2:5]) == dumps(tuples[2:5])
        assert dumps(batch.take([5, 0, 3])) == dumps(
            [tuples[5], tuples[0], tuples[3]]
        )

    def test_registered_sequence_not_a_base_class(self):
        batch = ColumnarBatch.from_tuples(_mixed_tuples())
        assert isinstance(batch, Sequence)
        assert not isinstance([], ColumnarBatch)
        assert not isinstance(_mixed_tuples(1), ColumnarBatch)
        assert Sequence not in type(batch).__mro__
        tuples = list(reversed(batch))
        assert [pickle.dumps(t) for t in tuples] == [
            pickle.dumps(t) for t in reversed(_mixed_tuples())
        ]

    def test_probability_and_timestamp_survive(self):
        batch = ColumnarBatch.from_tuples(_mixed_tuples())
        assert batch[2].probability == batch.probability(2)
        assert type(batch.probability(2)) is float
        assert batch[2].timestamp == 2.0
        assert type(batch.timestamp(2)) is float


class TestColumnOps:
    def test_with_column_appends_and_replaces(self):
        batch = ColumnarBatch.from_tuples(_mixed_tuples())
        doubled = FloatColumn(batch.column("x").data * 2.0)
        appended = batch.with_column("x2", doubled)
        assert appended.names == batch.names + ("x2",)
        replaced = batch.with_column("x", doubled)
        assert replaced.names == batch.names
        with pytest.raises(StreamError, match="rows"):
            batch.with_column("bad", FloatColumn(np.zeros(2)))

    def test_project(self):
        batch = ColumnarBatch.from_tuples(_mixed_tuples())
        projected = batch.project(["k", "x"])
        assert projected.names == ("k", "x")
        assert projected[0].attributes == {
            "k": batch[0].value("k"), "x": batch[0].value("x")
        }
        with pytest.raises(StreamError, match="no columns"):
            batch.project(["nope"])

    def test_concat(self):
        tuples = _mixed_tuples(10)
        batch = ColumnarBatch.from_tuples(tuples)
        merged = ColumnarBatch.concat([batch.slice(0, 4), batch.slice(4, 10)])
        assert merged == batch

    def test_concat_schema_mismatch(self):
        a = ColumnarBatch.from_tuples([UncertainTuple({"v": 1.0})])
        b = ColumnarBatch.from_tuples([UncertainTuple({"v": 1})])
        with pytest.raises(StreamError, match="schemas"):
            ColumnarBatch.concat([a, b])

    def test_interleave_restores_input_order(self):
        tuples = _mixed_tuples(9)
        batch = ColumnarBatch.from_tuples(tuples)
        evens = list(range(0, 9, 2))
        odds = list(range(1, 9, 2))
        merged = ColumnarBatch.interleave(
            [batch.take(evens), batch.take(odds)], [evens, odds], 9
        )
        assert merged == batch


class TestPayloadTransport:
    """A shard crosses the pool as the pickled batch itself."""

    @pytest.mark.parametrize("sliced", [False, True])
    def test_payload_roundtrip(self, sliced):
        batch = ColumnarBatch.from_tuples(_mixed_tuples(64))
        if sliced:
            # A worker's sink can hold a zero-copy slice of its shard.
            batch = batch.slice(5, 40)
        assert pickle.loads(pickle.dumps(batch)) == batch

    def test_list_valued_probabilities_and_timestamps_roundtrip(self):
        # Non-float probabilities and timestamps stay Python lists.
        tuples = [
            UncertainTuple({"v": float(i)}, probability=1, timestamp=i)
            for i in range(6)
        ]
        batch = ColumnarBatch.from_tuples(tuples)
        assert isinstance(batch.probabilities, list)
        assert isinstance(batch.timestamps, list)
        restored = pickle.loads(pickle.dumps(batch))
        assert restored == batch
        assert [pickle.dumps(t) for t in restored] == [
            pickle.dumps(t) for t in tuples
        ]


class TestOperatorFastPaths:
    def test_select_keeps_batch_columnar(self):
        batch = ColumnarBatch.from_tuples(_mixed_tuples())
        sink = CollectSink()
        op = Select(lambda t: t.value("k") % 2 == 0)
        op.connect(sink)
        op.receive_many(batch)
        out = sink.columnar_result()
        assert isinstance(out, ColumnarBatch)
        assert [t.value("k") for t in out] == [0, 2, 4, 6]

    def test_derive_appends_column(self):
        batch = ColumnarBatch.from_tuples(_mixed_tuples())
        sink = CollectSink()
        op = Derive("k2", lambda t: t.value("k") * 2)
        op.connect(sink)
        op.receive_many(batch)
        out = sink.columnar_result()
        assert isinstance(out, ColumnarBatch)
        assert isinstance(out.column("k2"), IntColumn)
        assert [t.value("k2") for t in out] == [2 * i for i in range(8)]

    def test_project_operator_columnar(self):
        batch = ColumnarBatch.from_tuples(_mixed_tuples())
        sink = CollectSink()
        op = Project(["k", "g"])
        op.connect(sink)
        op.receive_many(batch)
        out = sink.columnar_result()
        assert isinstance(out, ColumnarBatch)
        assert out.names == ("k", "g")

    def test_collect_sink_mixed_chunks_materialize(self):
        batch = ColumnarBatch.from_tuples(_mixed_tuples(4))
        sink = CollectSink()
        sink.process_many(batch)
        sink.process_many([UncertainTuple({"odd": "layout"})])
        assert len(sink.results) == 5
        assert sink.columnar_result() is None
