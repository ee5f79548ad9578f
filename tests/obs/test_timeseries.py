"""Frame-series telemetry: boundaries, deltas, folding, determinism."""

import json
import pickle

import pytest

from repro.core.accuracy import AccuracyInfo, ConfidenceInterval
from repro.errors import ObservabilityError
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import (
    Frame,
    FrameSeries,
    TelemetryConfig,
    TelemetryRecorder,
)
from repro.parallel import pipeline_payload
from repro.streams.engine import Pipeline
from repro.streams.operators import CollectSink, Operator
from repro.streams.tuples import UncertainTuple


class _WidthAccuracy(Operator):
    """Attach an AccuracyInfo with a scripted CI width per position."""

    accuracy_attribute = "accuracy"

    def __init__(self, widths):
        super().__init__()
        self.widths = list(widths)
        self._i = 0

    def process_many(self, tuples):
        out = []
        for tup in tuples:
            width = self.widths[self._i % len(self.widths)]
            self._i += 1
            info = AccuracyInfo(
                mean=ConfidenceInterval(0.0, width, 0.95),
                variance=ConfidenceInterval(0.0, 1.0, 0.95),
                sample_size=32,
                method="analytic",
            )
            attributes = dict(tup.attributes)
            attributes["accuracy"] = info
            out.append(tup.with_attributes(attributes))
        self.emit_many(out)


def _tuples(n):
    return [UncertainTuple({"x": float(i)}) for i in range(n)]


class TestTelemetryConfig:
    def test_defaults(self):
        config = TelemetryConfig()
        assert config.frame_interval == 256
        assert config.capacity == 256

    @pytest.mark.parametrize("interval", [0, -5])
    def test_rejects_bad_interval(self, interval):
        with pytest.raises(ObservabilityError):
            TelemetryConfig(frame_interval=interval)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ObservabilityError):
            TelemetryConfig(capacity=0)


class TestFrameCutting:
    def test_frames_cut_at_tuple_boundaries(self):
        recorder = TelemetryRecorder(TelemetryConfig(frame_interval=10))
        counter = recorder.registry.counter("ticks", "test")
        for _ in range(25):
            counter.inc()
            recorder.advance(1)
        assert len(recorder.series) == 2
        first, second = recorder.series.frames
        assert (first.start, first.end) == (0, 10)
        assert (second.start, second.end) == (10, 20)
        recorder.finalize()
        assert len(recorder.series) == 3
        tail = recorder.series.frames[-1]
        assert (tail.start, tail.end) == (20, 25)
        assert tail.metrics["ticks"]["value"] == 5

    def test_finalize_without_partial_frame_is_noop(self):
        recorder = TelemetryRecorder(TelemetryConfig(frame_interval=5))
        recorder.advance(5)
        recorder.finalize()
        assert len(recorder.series) == 1

    def test_batch_advance_cuts_at_most_one_frame(self):
        # A single large batch closes one (oversized) frame rather than
        # back-filling empty ones: frames are keyed by position, and the
        # registry cannot be re-snapshotted at interior positions.
        recorder = TelemetryRecorder(TelemetryConfig(frame_interval=10))
        recorder.advance(35)
        assert len(recorder.series) == 1
        frame = recorder.series.frames[0]
        assert (frame.start, frame.end) == (0, 35)

    def test_counter_deltas_are_per_frame_not_cumulative(self):
        recorder = TelemetryRecorder(TelemetryConfig(frame_interval=4))
        counter = recorder.registry.counter("seen", "test")
        for _ in range(8):
            counter.inc()
            recorder.advance(1)
        frames = recorder.series.frames
        assert [f.metrics["seen"]["value"] for f in frames] == [4, 4]

    def test_idle_metrics_are_omitted_from_frames(self):
        recorder = TelemetryRecorder(TelemetryConfig(frame_interval=4))
        busy = recorder.registry.counter("busy", "test")
        recorder.registry.counter("idle", "test")
        busy.inc(3)
        recorder.advance(4)
        frame = recorder.series.frames[0]
        assert "busy" in frame.metrics
        assert "idle" not in frame.metrics

    def test_gauge_reports_point_in_time_value(self):
        recorder = TelemetryRecorder(TelemetryConfig(frame_interval=2))
        gauge = recorder.registry.gauge("depth", "test")
        gauge.set(7.0)
        recorder.advance(2)
        gauge.set(3.0)
        recorder.advance(2)
        frames = recorder.series.frames
        assert frames[0].metrics["depth"]["value"] == 7.0
        assert frames[1].metrics["depth"]["value"] == 3.0

    def test_histogram_delta_buckets_are_cumulative_within_frame(self):
        recorder = TelemetryRecorder(TelemetryConfig(frame_interval=3))
        hist = recorder.registry.histogram(
            "widths", (1.0, 10.0), "test"
        )
        hist.observe(0.5)
        hist.observe(5.0)
        hist.observe(5.0)
        recorder.advance(3)
        hist.observe(0.5)
        recorder.advance(3)
        first, second = recorder.series.frames
        counts = [b["count"] for b in first.metrics["widths"]["buckets"]]
        # Cumulative within the frame: <=1 saw one, <=10 saw all three.
        assert counts == [1, 3, 3]
        counts = [b["count"] for b in second.metrics["widths"]["buckets"]]
        assert counts == [1, 1, 1]


class TestFrameSeries:
    def test_ring_buffer_drops_oldest(self):
        series = FrameSeries(capacity=2)
        for i in range(5):
            series.append(Frame(index=i, start=i, end=i + 1, metrics={}))
        assert len(series) == 2
        assert [f.index for f in series] == [3, 4]
        assert series.dropped == 3

    def test_fold_frame_sums_counters_by_index(self):
        series = FrameSeries(capacity=8)
        series.append(
            Frame(
                index=0,
                start=0,
                end=4,
                metrics={"n": {"type": "counter", "value": 3}},
            )
        )
        series.fold_frame(
            {
                "index": 0,
                "start": 0,
                "end": 4,
                "metrics": {"n": {"type": "counter", "value": 2}},
            }
        )
        frame = series.frames[0]
        assert frame.metrics["n"]["value"] == 5
        assert frame.end == 8  # spans sum: 4 + 4 positions covered

    def test_fold_frame_inserts_unknown_index_sorted(self):
        series = FrameSeries(capacity=8)
        series.append(Frame(index=1, start=4, end=8, metrics={}))
        series.fold_frame(
            {"index": 0, "start": 0, "end": 4, "metrics": {}}
        )
        assert [f.index for f in series] == [0, 1]

    def test_fold_state_gauge_sums_plain_gauge_last_write(self):
        frame = Frame(
            index=0,
            start=0,
            end=4,
            metrics={
                "op.state.bytes": {"type": "gauge", "value": 100.0},
                "depth": {"type": "gauge", "value": 2.0},
            },
        )
        frame.fold(
            {
                "op.state.bytes": {"type": "gauge", "value": 50.0},
                "depth": {"type": "gauge", "value": 9.0},
            }
        )
        assert frame.metrics["op.state.bytes"]["value"] == 150.0
        assert frame.metrics["depth"]["value"] == 9.0

    def test_fold_type_mismatch_raises(self):
        frame = Frame(
            index=0,
            start=0,
            end=1,
            metrics={"m": {"type": "counter", "value": 1}},
        )
        with pytest.raises(ObservabilityError, match="type mismatch"):
            frame.fold({"m": {"type": "gauge", "value": 1.0}})

    def test_fold_histogram_bucket_bounds_must_agree(self):
        state = {
            "type": "histogram",
            "count": 1,
            "sum": 0.5,
            "buckets": [{"le": 1.0, "count": 1}],
        }
        frame = Frame(index=0, start=0, end=1, metrics={"h": state})
        with pytest.raises(ObservabilityError, match="bucket bounds"):
            frame.fold(
                {
                    "h": {
                        "type": "histogram",
                        "count": 1,
                        "sum": 0.5,
                        "buckets": [{"le": 2.0, "count": 1}],
                    }
                }
            )

    def test_deterministic_view_drops_timer_seconds(self):
        series = FrameSeries(capacity=4)
        series.append(
            Frame(
                index=0,
                start=0,
                end=4,
                metrics={
                    "t": {
                        "type": "timer",
                        "count": 4,
                        "total_seconds": 0.123,
                    }
                },
            )
        )
        view = series.deterministic_view()
        assert view[0]["metrics"]["t"] == {"type": "timer", "count": 4}
        # The underlying frame is untouched.
        assert "total_seconds" in series.frames[0].metrics["t"]


class TestRecorderMergeResync:
    def test_merge_snapshot_rejects_interval_mismatch(self):
        a = TelemetryRecorder(TelemetryConfig(frame_interval=8))
        b = TelemetryRecorder(TelemetryConfig(frame_interval=16))
        b.advance(16)
        with pytest.raises(ObservabilityError, match="frame_interval"):
            a.merge_snapshot(b.snapshot())

    def test_merge_snapshot_accumulates_dropped(self):
        parent = TelemetryRecorder(
            TelemetryConfig(frame_interval=1, capacity=2)
        )
        worker = TelemetryRecorder(
            TelemetryConfig(frame_interval=1, capacity=2)
        )
        for _ in range(5):
            worker.advance(1)
        parent.merge_snapshot(worker.snapshot())
        assert parent.series.dropped == 3

    def test_resync_prevents_double_counting_merged_metrics(self):
        # Simulates the sharded path: worker metrics fold into the parent
        # registry, then the parent records more frames of its own.
        parent = TelemetryRecorder(TelemetryConfig(frame_interval=4))
        counter = parent.registry.counter("seen", "test")
        worker = MetricsRegistry()
        worker.counter("seen", "test").inc(100)
        parent.registry.merge_snapshot(worker.snapshot())
        parent.resync()
        counter.inc(2)
        parent.advance(4)
        frame = parent.series.frames[-1]
        assert frame.metrics["seen"]["value"] == 2

    def test_to_json_is_strict_and_round_trips(self):
        recorder = TelemetryRecorder(TelemetryConfig(frame_interval=2))
        recorder.registry.counter("n", "test").inc(3)
        recorder.advance(2)
        payload = json.loads(recorder.to_json())
        assert payload["frame_interval"] == 2
        assert payload["frames"][0]["metrics"]["n"]["value"] == 3
        deterministic = json.loads(recorder.to_json(deterministic=True))
        assert deterministic["frames"][0]["end"] == 2


class TestPipelineIntegration:
    def test_run_records_accuracy_histogram_deltas(self):
        recorder = TelemetryRecorder(TelemetryConfig(frame_interval=8))
        pipeline = Pipeline(
            [_WidthAccuracy([0.1]), CollectSink()], telemetry=recorder
        )
        pipeline.run(_tuples(24))
        assert len(recorder.series) == 3
        for frame in recorder.series:
            state = frame.metrics[
                "pipeline.00.WidthAccuracy.interval_width"
            ]
            assert state["count"] == 8

    def test_run_batched_matches_run_frame_boundaries(self):
        per_tuple = TelemetryRecorder(TelemetryConfig(frame_interval=8))
        Pipeline(
            [_WidthAccuracy([0.1]), CollectSink()], telemetry=per_tuple
        ).run(_tuples(20))
        batched = TelemetryRecorder(TelemetryConfig(frame_interval=8))
        Pipeline(
            [_WidthAccuracy([0.1]), CollectSink()], telemetry=batched
        ).run_batched(_tuples(20), batch_size=4)
        spans = [(f.start, f.end) for f in per_tuple.series]
        assert spans == [(f.start, f.end) for f in batched.series]

    def test_telemetry_rides_on_existing_registry(self):
        registry = MetricsRegistry()
        recorder = TelemetryRecorder(
            TelemetryConfig(frame_interval=8), registry=registry
        )
        pipeline = Pipeline([_WidthAccuracy([0.1]), CollectSink()])
        pipeline.attach_metrics(registry)
        pipeline.attach_telemetry(recorder)
        assert pipeline.registry is registry
        pipeline.run(_tuples(8))
        assert len(recorder.series) == 1

    def test_detach_telemetry_stops_frame_cutting(self):
        recorder = TelemetryRecorder(TelemetryConfig(frame_interval=4))
        pipeline = Pipeline(
            [_WidthAccuracy([0.1]), CollectSink()], telemetry=recorder
        )
        pipeline.detach_telemetry()
        pipeline.run(_tuples(8))
        assert len(recorder.series) == 0

    def test_pristine_clone_is_detached_original_keeps_telemetry(self):
        # Sharded workers unpickle a detached payload (each builds a
        # private recorder); the original must keep its attachment for
        # the post-merge fold.
        recorder = TelemetryRecorder(TelemetryConfig(frame_interval=4))
        pipeline = Pipeline(
            [_WidthAccuracy([0.1]), CollectSink()], telemetry=recorder
        )
        clone = pickle.loads(pipeline_payload(pipeline))
        assert clone.telemetry is None
        assert clone.registry is None
        assert pipeline.telemetry is recorder
        assert pipeline.registry is recorder.registry
