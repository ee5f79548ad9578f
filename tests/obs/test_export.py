"""Trace exporters: Chrome trace events, strict JSON, text tree."""

import json
import math

import pytest

from repro.core.dfsample import DfSized
from repro.distributions.gaussian import GaussianDistribution
from repro.errors import ObservabilityError
from repro.obs.export import (
    chrome_trace_events,
    render_trace_tree,
    spans_to_json,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs import Observer
from repro.obs.trace import TraceConfig, Tracer
from repro.streams.engine import Pipeline
from repro.streams.operators import CollectSink, WindowAggregate
from repro.streams.tuples import UncertainTuple


def _traced_tracer(n=30, batch_size=None, seed=0):
    observer = Observer(trace=TraceConfig(seed=seed))
    tracer = observer.tracer
    pipeline = Pipeline(
        [WindowAggregate("value", 8), CollectSink()],
        observer=observer,
    )
    tuples = [
        UncertainTuple(
            attributes={
                "value": DfSized(GaussianDistribution(float(i), 1.0), 10)
            },
            timestamp=float(i),
        )
        for i in range(n)
    ]
    if batch_size is None:
        pipeline.run(tuples)
    else:
        pipeline.run_batched(tuples, batch_size=batch_size)
    return tracer


class TestChromeTrace:
    def test_events_cover_every_span(self):
        tracer = _traced_tracer(batch_size=8)
        events = chrome_trace_events(tracer)
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == len(tracer.spans)
        span_ids = {e["args"]["span_id"] for e in complete}
        assert span_ids == {s.span_id for s in tracer.spans}

    def test_metadata_names_processes_and_tracks(self):
        events = chrome_trace_events(_traced_tracer())
        meta = [e for e in events if e["ph"] == "M"]
        names = {e["name"] for e in meta}
        assert names == {"process_name", "thread_name"}
        process = next(e for e in meta if e["name"] == "process_name")
        assert process["args"]["name"] == "repro shard main"

    def test_timestamps_rebased_nonnegative_microseconds(self):
        events = chrome_trace_events(_traced_tracer(batch_size=8))
        complete = [e for e in events if e["ph"] == "X"]
        assert min(e["ts"] for e in complete) == 0.0
        assert all(e["dur"] >= 0.0 for e in complete)

    def test_stages_land_on_distinct_threads(self):
        events = chrome_trace_events(_traced_tracer())
        tids = {
            e["name"]: e["tid"]
            for e in events
            if e["ph"] == "X" and e.get("cat") == "stage"
        }
        assert len(set(tids.values())) == len(tids) == 2

    def test_export_validates_and_roundtrips(self, tmp_path):
        tracer = _traced_tracer(batch_size=8)
        path = tmp_path / "trace.json"
        text = write_chrome_trace(tracer, str(path))
        assert path.read_text() == text + "\n"
        obj = validate_chrome_trace(text)
        assert obj == json.loads(text)
        assert obj["displayTimeUnit"] == "ms"
        assert obj["otherData"]["format"] == "repro-trace"

    def test_nonfinite_span_attrs_become_null(self):
        tracer = Tracer()
        span = tracer.begin("x")
        tracer.end(span, ratio=float("nan"), peak=float("inf"))
        text = json.dumps(to_chrome_trace(tracer), allow_nan=False)
        event = validate_chrome_trace(text)["traceEvents"][-1]
        assert event["args"]["ratio"] is None
        assert event["args"]["peak"] is None


class TestValidateChromeTrace:
    def test_rejects_nan_literal(self):
        with pytest.raises(ObservabilityError, match="NaN"):
            validate_chrome_trace(
                '{"traceEvents": [{"name": "x", "ph": "X", "pid": 0, '
                '"tid": 0, "ts": NaN, "dur": 1}]}'
            )

    def test_rejects_infinity_literal(self):
        with pytest.raises(ObservabilityError):
            validate_chrome_trace('{"traceEvents": [], "x": Infinity}')

    def test_rejects_invalid_json(self):
        with pytest.raises(ObservabilityError, match="not valid JSON"):
            validate_chrome_trace("{nope")

    def test_rejects_missing_container(self):
        with pytest.raises(ObservabilityError, match="traceEvents"):
            validate_chrome_trace('{"events": []}')
        with pytest.raises(ObservabilityError, match="list"):
            validate_chrome_trace('{"traceEvents": {}}')

    def test_rejects_malformed_events(self):
        with pytest.raises(ObservabilityError, match="missing required"):
            validate_chrome_trace(
                '{"traceEvents": [{"name": "x", "ph": "X", "pid": 0}]}'
            )
        with pytest.raises(ObservabilityError, match="phase"):
            validate_chrome_trace(
                '{"traceEvents": [{"name": "x", "ph": "B", "pid": 0, '
                '"tid": 0}]}'
            )
        with pytest.raises(ObservabilityError, match="negative"):
            validate_chrome_trace(
                '{"traceEvents": [{"name": "x", "ph": "X", "pid": 0, '
                '"tid": 0, "ts": 0, "dur": -1}]}'
            )


class TestSpansToJson:
    def test_strict_json_roundtrip(self):
        tracer = _traced_tracer(batch_size=8)
        for deterministic in (False, True):
            text = spans_to_json(tracer, deterministic=deterministic)
            obj = json.loads(
                text,
                parse_constant=lambda lit: pytest.fail(
                    f"non-strict constant {lit}"
                ),
            )
            assert obj["spans"]
            assert obj["provenance"]

    def test_deterministic_dump_is_worker_order_free(self):
        tracer = _traced_tracer(seed=5)
        shuffled = Tracer(TraceConfig(seed=5), shard="other")
        # Merge main's snapshot into a differently-labelled tracer; the
        # deterministic dump sorts by (shard, seq) so it matches a dump
        # taken from a tracer that saw the spans in any order.
        shuffled.merge_spans(tracer.snapshot())
        ours = json.loads(spans_to_json(tracer, deterministic=True))
        theirs = json.loads(spans_to_json(shuffled, deterministic=True))
        assert ours["spans"] == theirs["spans"]
        assert ours["provenance"] == theirs["provenance"]

    def test_nonfinite_values_serialize_as_null(self):
        tracer = Tracer()
        tracer.end(tracer.begin("x"), bad=float("-inf"))
        obj = json.loads(spans_to_json(tracer))
        assert obj["spans"][0]["attrs"]["bad"] is None


class TestRenderTraceTree:
    def test_empty_tracer(self):
        assert render_trace_tree(Tracer()) == "(no spans recorded)"

    def test_tree_shape(self):
        tracer = _traced_tracer(batch_size=16)
        text = render_trace_tree(tracer)
        lines = text.splitlines()
        assert lines[0].startswith("run pipeline.run_batched")
        assert any(
            line.startswith(("|- ", "`- ")) and "stage" in line
            for line in lines
        )
        assert "batch" in text
        assert "tuples_in=30" in text

    def test_orphaned_parents_surface_as_roots(self):
        worker = Tracer(TraceConfig(seed=1), shard="shard0")
        parent_span = worker.begin("root")
        child = worker.begin("stage", kind="stage", parent=parent_span)
        worker.end(child)
        worker.end(parent_span)
        merged = Tracer(TraceConfig(seed=1), shard="merge-target")
        snapshot = worker.snapshot()
        # Drop the root span: the child's parent is now unknown.
        snapshot["spans"] = [
            s for s in snapshot["spans"] if s["name"] != "root"
        ]
        merged.merge_spans(snapshot)
        text = render_trace_tree(merged)
        assert text.startswith("stage stage")

    def test_duration_formatting_is_finite(self):
        tracer = Tracer()
        span = tracer.begin("x")
        tracer.end(span, end=span.start + 2.5)
        assert "2.500s" in render_trace_tree(tracer)
        assert math.isfinite(span.duration)
