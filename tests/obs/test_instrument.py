"""operator_rows ordering and the accuracy-observation unsure path."""

import math

import pytest

from repro.core.accuracy import AccuracyInfo, ConfidenceInterval
from repro.core.dfsample import DfSized
from repro.distributions.gaussian import GaussianDistribution
from repro.errors import ObservabilityError
from repro.experiments.harness import render_metrics_table
from repro.obs import (
    Observer,
    OperatorObserver,
    TelemetryConfig,
    TraceConfig,
    operator_rows,
)
from repro.obs.instrument import _stage_sort_key
from repro.streams.columnar import ColumnarBatch
from repro.streams.engine import Pipeline
from repro.streams.operators import CollectSink, Select
from repro.streams.tuples import UncertainTuple


def _op_state(tuples_in, tuples_out, seconds):
    return {
        "tuples_in": {"type": "counter", "value": tuples_in},
        "tuples_out": {"type": "counter", "value": tuples_out},
        "batch_seconds": {
            "type": "timer",
            "count": tuples_in,
            "total_seconds": seconds,
            "mean_seconds": seconds / tuples_in if tuples_in else 0.0,
            "min_seconds": 0.0,
            "max_seconds": seconds,
        },
    }


def _snapshot(op_ids, seconds=None):
    snapshot = {}
    for position, op_id in enumerate(op_ids):
        inclusive = (
            seconds[position] if seconds is not None
            else float(len(op_ids) - position)
        )
        for metric, state in _op_state(100, 100, inclusive).items():
            snapshot[f"{op_id}.{metric}"] = state
    return snapshot


class TestStageSortKey:
    def test_numeric_segments_compare_as_integers(self):
        assert _stage_sort_key("p.2.Op") < _stage_sort_key("p.10.Op")
        assert _stage_sort_key("p.02.Op") < _stage_sort_key("p.10.Op")
        # Zero-padding does not fix lexicographic sort at 100+ stages.
        assert _stage_sort_key("p.20.Op") < _stage_sort_key("p.100.Op")

    def test_numbers_sort_before_names_within_a_segment(self):
        assert _stage_sort_key("a.1.Op") < _stage_sort_key("a.b.Op")

    def test_prefixes_stay_grouped(self):
        ids = ["b.1.Op", "a.10.Op", "b.0.Op", "a.2.Op"]
        assert sorted(ids, key=_stage_sort_key) == [
            "a.2.Op", "a.10.Op", "b.0.Op", "b.1.Op",
        ]


class TestTwelveStageOrdering:
    """Regression: at >= 10 stages with unpadded indices, lexicographic
    sort interleaves stage 10+ before stage 2, breaking both row order
    and the adjacent-stage self-time derivation."""

    OP_IDS = [f"pipeline.{i}.Stage{i}" for i in range(12)]

    def test_rows_in_execution_order(self):
        rows = operator_rows(_snapshot(self.OP_IDS))
        assert [r["operator"] for r in rows] == self.OP_IDS

    def test_self_time_uses_numeric_neighbours(self):
        # Inclusive times decrease by 1s per stage: each stage's self
        # time is exactly 1s except the sink, which keeps its inclusive.
        rows = operator_rows(_snapshot(self.OP_IDS))
        for row in rows[:-1]:
            assert row["self_seconds"] == 1.0
        assert rows[-1]["self_seconds"] == rows[-1]["inclusive_seconds"]

    def test_real_twelve_stage_pipeline_rows_and_table(self):
        observer = Observer()
        registry = observer.metrics
        operators = [Select(lambda t: True) for _ in range(11)]
        pipeline = Pipeline([*operators, CollectSink()], observer=observer)
        pipeline.run(
            [UncertainTuple({"x": float(i)}) for i in range(20)]
        )
        rows = operator_rows(registry)
        indices = [
            int(str(r["operator"]).split(".")[1]) for r in rows
        ]
        assert indices == list(range(12))
        table = render_metrics_table(registry)
        sink_pos = table.index("11.CollectSink")
        assert table.index("02.Select") < table.index("10.Select")
        assert table.index("10.Select") < sink_pos


def _accuracy(width, sample_size=16):
    return AccuracyInfo(
        mean=ConfidenceInterval(0.0, width, 0.95),
        variance=ConfidenceInterval(0.0, 1.0, 0.95),
        sample_size=sample_size,
    )


def _emitting(observer):
    metrics = OperatorObserver(
        observer, "p.00.Avg", accuracy_attribute="accuracy"
    )
    metrics.tuples_in.inc()
    metrics.tuples_out.inc()
    return metrics


class TestObserveAccuracyUnsure:
    """``keep_unsure`` passthroughs carry intervals with infinite
    bounds; their width must land in the dedicated ``unsure`` counter,
    not raise from ``Histogram.observe`` or vanish silently."""

    def test_finite_width_lands_in_histogram(self):
        observer = Observer()
        registry = observer.metrics
        metrics = _emitting(observer)
        metrics.observe_accuracy(
            UncertainTuple({"accuracy": _accuracy(0.25)})
        )
        snap = registry.snapshot()
        assert snap["p.00.Avg.interval_width"]["count"] == 1
        assert snap["p.00.Avg.interval_width.unsure"]["value"] == 0
        assert snap["p.00.Avg.sample_size"]["count"] == 1

    def test_infinite_width_counts_as_unsure(self):
        observer = Observer()
        registry = observer.metrics
        metrics = _emitting(observer)
        unsure = ConfidenceInterval(-math.inf, math.inf, 0.95)
        assert not math.isfinite(unsure.length)
        metrics.observe_accuracy(
            UncertainTuple(
                {
                    "accuracy": AccuracyInfo(
                        mean=unsure,
                        variance=unsure,
                        sample_size=8,
                    )
                }
            )
        )
        snap = registry.snapshot()
        assert snap["p.00.Avg.interval_width"]["count"] == 0
        assert snap["p.00.Avg.interval_width.unsure"]["value"] == 1
        # The de facto sample size is still real and still recorded.
        assert snap["p.00.Avg.sample_size"]["count"] == 1

    def test_missing_mean_interval_counts_as_unsure(self):
        observer = Observer()
        registry = observer.metrics
        metrics = _emitting(observer)
        record = _accuracy(0.25)
        object.__setattr__(record, "mean", None)
        metrics.observe_accuracy(UncertainTuple({"accuracy": record}))
        snap = registry.snapshot()
        assert snap["p.00.Avg.interval_width"]["count"] == 0
        assert snap["p.00.Avg.interval_width.unsure"]["value"] == 1

    def test_unsure_folds_into_operator_row_not_a_phantom_stage(self):
        observer = Observer()
        registry = observer.metrics
        metrics = _emitting(observer)
        metrics.observe_accuracy(
            UncertainTuple(
                {
                    "accuracy": AccuracyInfo(
                        mean=ConfidenceInterval(0.0, math.inf, 0.95),
                        variance=ConfidenceInterval(0.0, 1.0, 0.95),
                        sample_size=4,
                    )
                }
            )
        )
        rows = operator_rows(registry)
        assert [r["operator"] for r in rows] == ["p.00.Avg"]
        assert rows[0]["unsure"] == 1

    def test_row_omits_unsure_when_every_width_is_finite(self):
        observer = Observer()
        registry = observer.metrics
        metrics = _emitting(observer)
        metrics.observe_accuracy(
            UncertainTuple({"accuracy": _accuracy(0.5)})
        )
        (row,) = operator_rows(registry)
        assert "unsure" not in row


class TestObserver:
    def test_parts_follow_the_configs(self):
        bare = Observer()
        assert bare.tracer is None and bare.frames is None
        full = Observer(trace=TraceConfig(), frames=TelemetryConfig(4))
        assert full.tracer is not None
        # Frames always diff the registry the operators write to.
        assert full.frames.registry is full.metrics

    def test_merge_folds_every_part_and_resyncs_frames(self):
        worker = Observer(trace=TraceConfig(), frames=TelemetryConfig(4))
        Pipeline([Select(lambda t: True), CollectSink()], worker).run(
            [UncertainTuple({"x": float(i)}) for i in range(8)]
        )
        parent = Observer(trace=TraceConfig(), frames=TelemetryConfig(4))
        parent.merge(worker.snapshot())
        assert parent.metrics.snapshot() == worker.metrics.snapshot()
        assert parent.tracer.deterministic_view() == (
            worker.tracer.deterministic_view()
        )
        assert parent.frames.series.deterministic_view() == (
            worker.frames.series.deterministic_view()
        )
        # The merged history is the baseline of the next local frame.
        parent.metrics.counter("later", "test").inc()
        parent.frames.advance(4)
        assert set(parent.frames.series.frames[-1].metrics) == {"later"}

    @pytest.mark.parametrize(
        "mine, theirs",
        [
            (dict(trace=TraceConfig()), dict()),
            (dict(), dict(frames=TelemetryConfig(4))),
        ],
        ids=["spans-missing", "frames-unexpected"],
    )
    def test_merge_refuses_a_snapshot_of_other_parts(self, mine, theirs):
        with pytest.raises(ObservabilityError, match="disagree"):
            Observer(**mine).merge(Observer(**theirs).snapshot())


class TestEmitManyReadsOneColumn:
    """A batch's accuracy column is read once, without materializing
    rows; the metrics must not depend on the batch's layout."""

    def _rows(self):
        rows = []
        for i in range(12):
            width = math.inf if i % 5 == 4 else 0.1 * (i + 1)
            rows.append(
                UncertainTuple(
                    {
                        "v": float(i),
                        "accuracy": AccuracyInfo(
                            mean=ConfidenceInterval(0.0, width, 0.95),
                            variance=ConfidenceInterval(0.0, 1.0, 0.95),
                            sample_size=4 + i,
                        ),
                        "g": DfSized(
                            GaussianDistribution(float(i), 1.0 + i),
                            None if i % 4 == 0 else 2 + i,
                        ),
                    },
                    probability=1.0 - i / 24,
                )
            )
        return rows

    @pytest.mark.parametrize("attribute", ["accuracy", "g", "missing"])
    def test_columnar_and_tuple_batches_snapshot_equal(self, attribute):
        snapshots = []
        for columnar in (False, True):
            observer = Observer()
            metrics = OperatorObserver(
                observer, "p.00.Avg", accuracy_attribute=attribute
            )
            rows = self._rows()
            batch = ColumnarBatch.from_tuples(rows) if columnar else rows
            metrics.emit_many(None, batch)
            metrics.emit_many(None, batch[:3] if columnar else rows[:3])
            snapshots.append(observer.metrics.snapshot())
        assert snapshots[0] == snapshots[1]
        if attribute != "missing":
            assert snapshots[0]["p.00.Avg.sample_size"]["count"] > 0
