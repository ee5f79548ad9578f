"""Batched execution path: ``Pipeline.run_batched`` / ``receive_many``.

The contract is strict: for any pipeline — including windowed operators,
filters, and operators that drain buffered state at flush time — the
batched path must produce byte-identical sink contents to the per-tuple
path, for every batch size.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dfsample import DfSized
from repro.distributions.gaussian import GaussianDistribution
from repro.errors import LearningError, StreamError
from repro.experiments.fig5_throughput import _LearnGaussian
from repro.streams.engine import Pipeline
from repro.streams.groupby import GroupedAggregate
from repro.streams.operators import (
    CollectSink,
    CountingSink,
    Derive,
    Operator,
    ProbabilisticFilter,
    Project,
    RollingLearnOperator,
    Select,
    SlidingGaussianAverage,
    WindowAggregate,
)
from repro.streams.tuples import UncertainTuple


def make_tuples(count: int, seed: int) -> list[UncertainTuple]:
    rng = np.random.default_rng(seed)
    return [
        UncertainTuple(
            {
                "g": int(rng.integers(0, 3)),
                "x": DfSized(
                    GaussianDistribution(
                        float(rng.normal(0, 5)),
                        float(rng.uniform(0.1, 2.0)),
                    ),
                    int(rng.integers(2, 30)),
                ),
            },
            probability=float(rng.uniform(0.5, 1.0)),
        )
        for _ in range(count)
    ]


def windowed_pipeline() -> Pipeline:
    """Windows, filters, and a flush-time drain in one chain."""
    return Pipeline(
        [
            Derive("y", lambda t: t.dfsized("x").distribution.mean() * 2.0),
            Select(lambda t: t.value("y") > -6.0),
            SlidingGaussianAverage("x", 7),
            WindowAggregate("avg", 5, agg="avg", output="wavg"),
            GroupedAggregate(
                "g", "wavg", 4, agg="sum", output="gsum", emit_every=False
            ),
            CollectSink(),
        ]
    )


def emitting_pipeline() -> Pipeline:
    """Per-arrival emission so the sink holds many tuples."""
    return Pipeline(
        [
            ProbabilisticFilter(
                lambda t: 0.9 if t.value("g") != 1 else 0.4, threshold=0.3
            ),
            SlidingGaussianAverage("x", 5),
            Project(["g", "avg"]),
            WindowAggregate("avg", 3, agg="max", output="peak"),
            CollectSink(),
        ]
    )


def renders(sink: CollectSink) -> list[str]:
    return [repr(t) for t in sink.results]


class TestRunBatchedEquivalence:
    @given(
        batch_size=st.integers(min_value=1, max_value=400),
        seed=st.integers(min_value=0, max_value=1_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_windowed_pipeline_identical(self, batch_size, seed):
        tuples = make_tuples(120, seed)
        reference = windowed_pipeline().run(tuples)
        batched = windowed_pipeline().run_batched(tuples, batch_size)
        assert renders(batched) == renders(reference)

    @given(
        batch_size=st.integers(min_value=1, max_value=400),
        seed=st.integers(min_value=0, max_value=1_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_emitting_pipeline_identical(self, batch_size, seed):
        tuples = make_tuples(120, seed)
        reference = emitting_pipeline().run(tuples)
        batched = emitting_pipeline().run_batched(tuples, batch_size)
        assert len(batched.results) > 0
        assert renders(batched) == renders(reference)

    def test_empty_source(self):
        sink = windowed_pipeline().run_batched([], 16)
        assert sink.results == []

    def test_rejects_bad_batch_size(self):
        with pytest.raises(StreamError):
            windowed_pipeline().run_batched([], 0)

    def test_counting_sink_counts_batches(self):
        tuples = make_tuples(57, 3)
        pipeline = Pipeline([CountingSink()])
        pipeline.run_batched(tuples, 10)
        assert pipeline.sink.count == 57


class TestBatchOnlyOperators:
    def test_operator_output_is_one_downstream_batch(self):
        """What an operator emits for a batch arrives as one batch."""
        seen_batches = []

        class Doubler(Operator):
            def process_many(self, tuples) -> None:
                self.emit_many([tup for tup in tuples for _ in range(2)])

        class RecordingSink(CollectSink):
            def receive_many(self, tuples) -> None:
                seen_batches.append(len(tuples))
                super().receive_many(tuples)

        pipeline = Pipeline([Doubler(), RecordingSink()])
        tuples = [UncertainTuple({"x": float(i)}) for i in range(6)]
        pipeline.run_batched(tuples, 3)
        assert pipeline.sink is not None
        assert len(pipeline.sink.results) == 12
        # Two input batches of 3, each doubled downstream as one batch.
        assert seen_batches == [6, 6]

    def test_operator_usable_after_failed_batch(self):
        class Failing(Operator):
            def process_many(self, tuples) -> None:
                out = []
                for tup in tuples:
                    if tup.value("x") == 2.0:
                        raise StreamError("boom")
                    out.append(tup)
                self.emit_many(out)

        sink = CollectSink()
        failing = Failing()
        pipeline = Pipeline([failing, sink])
        with pytest.raises(StreamError):
            pipeline.run_batched(
                [UncertainTuple({"x": float(i)}) for i in range(4)], 10
            )
        # The downstream link survives the failure.
        pipeline.push(UncertainTuple({"x": 9.0}))
        assert [t.value("x") for t in sink.results] == [9.0]

    def test_operator_must_implement_process_many(self):
        class PerTupleOnly(Operator):
            def process(self, tup) -> None:
                pass

        with pytest.raises(TypeError, match="process_many"):
            PerTupleOnly()

    def test_run_and_push_send_one_row_batches(self):
        seen_batches = []

        class RecordingSink(CollectSink):
            def receive_many(self, tuples) -> None:
                seen_batches.append(type(tuples).__name__)
                seen_batches.append(len(tuples))
                super().receive_many(tuples)

        tuples = make_tuples(4, 1)
        pipeline = Pipeline([RecordingSink()])
        pipeline.run(tuples)
        pipeline.push(tuples[0])
        # Tuple lists, never columnarized slices, one row each.
        assert seen_batches == ["list", 1] * 5
        assert len(pipeline.sink.results) == 5

    def test_push_many_feeds_head(self):
        pipeline = Pipeline([CountingSink()])
        pipeline.push_many([UncertainTuple({"x": 1.0})] * 5)
        pipeline.push_many([])
        assert pipeline.sink.count == 5


class TestLearnGaussianBatches:
    """The Fig 5 learner on batches whose point lists differ in length."""

    @staticmethod
    def _pipeline():
        return Pipeline([_LearnGaussian("points", "value"), CollectSink()])

    @staticmethod
    def _rows(*point_lists):
        return [
            UncertainTuple({"item": i, "points": points})
            for i, points in enumerate(point_lists)
        ]

    def test_ragged_batch_matches_one_row_batches(self):
        rows = self._rows([1.0, 2.0, 3.0], [4.0, 5.0], [6.0, 8.0, 9.0, 1.0])
        batched = self._pipeline().run_batched(rows, 8)
        one_row = self._pipeline().run(rows)
        assert [pickle.dumps(t) for t in batched.results] == [
            pickle.dumps(t) for t in one_row.results
        ]
        assert [t.value("value").sample_size for t in batched] == [3, 2, 4]

    @pytest.mark.parametrize("short", [[7.0], []])
    def test_short_row_raises_the_learner_error(self, short):
        rows = self._rows([1.0, 2.0, 3.0], short)
        with pytest.raises(LearningError):
            self._pipeline().run_batched(rows, 8)


#: Every learner with incremental hooks.  The sketch rings are small, so
#: a short stream runs through ring doublings and chunk drops.
_EDGES = [-6.0, -2.0, -1.0, 0.0, 1.0, 2.0, 6.0]
_RING = {"chunk_count": 2, "chunk_size": 4}
PARTIAL_LEARNERS = {
    "gaussian": {},
    "histogram": {"edges": _EDGES},
    "sketch-quantile": {"k": 16, **_RING},
    "sketch-histogram": {"edges": _EDGES, **_RING},
    "sketch-frequency": {"cm_width": 32, "support_size": 4, **_RING},
}


def _observations(kind: str, count: int = 160) -> list[UncertainTuple]:
    rng = np.random.default_rng(7)
    if kind == "constant":
        # A varied start, then a run long enough to make the window
        # constant: the sketch quantile read collapses to one edge.
        values = np.concatenate((rng.normal(0.0, 1.5, 20), [1.25] * 60))
    elif kind == "ties":
        values = rng.integers(-2, 3, count).astype(float)
    else:
        # Some readings fall outside the pinned histogram edges.
        values = rng.normal(0.0, 2.5, count)
    return [UncertainTuple({"x": float(x), "i": i}) for i, x in
            enumerate(values)]


def _rolling_pipeline(name: str, **kwargs) -> Pipeline:
    return Pipeline(
        [
            RollingLearnOperator(
                "x", 24, name, confidence=0.9, **kwargs,
                **PARTIAL_LEARNERS[name],
            ),
            CollectSink(),
        ]
    )


def _pickles(sink: CollectSink) -> list[bytes]:
    return [pickle.dumps(t) for t in sink.results]


class TestRollingLearnerBatches:
    """Emissions do not depend on how the stream is cut into batches."""

    @pytest.mark.parametrize("kind", ["smooth", "ties", "constant"])
    @pytest.mark.parametrize("name", sorted(PARTIAL_LEARNERS))
    def test_run_and_batched_runs_pickle_equal(self, name, kind):
        if name == "gaussian" and kind == "constant":
            pytest.skip("a constant window has no Gaussian spread to fit")
        rows = _observations(kind)
        reference = _pickles(_rolling_pipeline(name).run(rows))
        assert len(reference) == len(rows) - 1
        for batch_size in (1, 7, 64):
            batched = _rolling_pipeline(name).run_batched(rows, batch_size)
            assert _pickles(batched) == reference, batch_size

    @pytest.mark.parametrize("name", sorted(PARTIAL_LEARNERS))
    def test_full_windows_only_and_no_accuracy(self, name):
        rows = _observations("ties")
        for kwargs in (
            {"emit_partial": False},
            {"emit_partial": False, "accuracy_output": None},
        ):
            reference = _pickles(_rolling_pipeline(name, **kwargs).run(rows))
            assert len(reference) == len(rows) - 23
            for batch_size in (1, 7, 64):
                batched = _rolling_pipeline(name, **kwargs).run_batched(
                    rows, batch_size
                )
                assert _pickles(batched) == reference, (kwargs, batch_size)

    def test_sketch_constant_window_is_one_unit_bucket(self):
        rows = _observations("constant")
        sink = _rolling_pipeline("sketch-quantile").run_batched(rows, 64)
        last = sink.results[-1].value("learned").distribution
        assert last.edges.tolist() == [0.75, 1.75]
        assert last.probabilities.tolist() == [1.0]


class TestRollingLearnerFailedBatch:
    """A batch with a bad observation changes nothing, then or later."""

    @pytest.mark.parametrize(
        "bad,error",
        [
            (float("nan"), LearningError),
            (float("inf"), LearningError),
            ("7", StreamError),
            (True, StreamError),
        ],
    )
    @pytest.mark.parametrize("name", sorted(PARTIAL_LEARNERS))
    def test_state_untouched_and_later_emissions_unchanged(
        self, name, bad, error
    ):
        rows = _observations("smooth")
        head, tail = rows[:40], rows[40:]
        failing = [*tail[:3], UncertainTuple({"x": bad, "i": -1}), *tail[3:6]]

        pipeline = _rolling_pipeline(name)
        pipeline.run_batched(head, 16)
        operator, sink = pipeline.operators

        def state():
            return pickle.dumps(
                (operator._state, operator._window, operator._fill)
            )

        before = state()
        emitted = len(sink.results)
        with pytest.raises(error):
            pipeline.push_many(failing)
        assert state() == before
        assert len(sink.results) == emitted
        pipeline.run_batched(tail, 16)

        clean = _rolling_pipeline(name).run_batched(rows, 16)
        assert _pickles(sink) == _pickles(clean)
