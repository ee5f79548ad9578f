"""Span tracer: identity, sampling, merging, and pipeline wiring."""

import json
import pickle

import pytest

from repro.core.dfsample import DfSized
from repro.distributions.gaussian import GaussianDistribution
from repro.errors import ObservabilityError
from repro.obs import Observer
from repro.obs.trace import (
    Span,
    TraceConfig,
    Tracer,
    _sample_decision,
    _stable_id,
)
from repro.parallel import pipeline_payload
from repro.streams.engine import Pipeline
from repro.streams.operators import (
    CollectSink,
    WindowAggregate,
)
from repro.streams.tuples import UncertainTuple


def _tuples(n=40, window_sizes=(10, 12, 14)):
    return [
        UncertainTuple(
            attributes={
                "value": DfSized(
                    GaussianDistribution(float(i), 1.0),
                    window_sizes[i % len(window_sizes)],
                )
            },
            timestamp=float(i),
        )
        for i in range(n)
    ]


def _pipeline(observer=None):
    return Pipeline(
        [WindowAggregate("value", 8), CollectSink()],
        observer=observer,
    )


class TestTraceConfig:
    def test_defaults(self):
        config = TraceConfig()
        assert config.sample_rate == 1.0
        assert config.provenance is True

    @pytest.mark.parametrize("rate", [-0.1, 1.5])
    def test_rejects_bad_sample_rate(self, rate):
        with pytest.raises(ObservabilityError):
            TraceConfig(sample_rate=rate)

    def test_rejects_negative_caps(self):
        with pytest.raises(ObservabilityError):
            TraceConfig(max_spans=-1)
        with pytest.raises(ObservabilityError):
            TraceConfig(max_records=-1)

    def test_picklable(self):
        config = TraceConfig(sample_rate=0.5, seed=9, max_spans=10)
        assert pickle.loads(pickle.dumps(config)) == config


class TestSpanIdentity:
    def test_stable_id_is_pure(self):
        assert _stable_id(3, "main", 7) == _stable_id(3, "main", 7)
        assert _stable_id(3, "main", 7) != _stable_id(3, "main", 8)
        assert _stable_id(3, "main", 7) != _stable_id(3, "shard0", 7)
        assert _stable_id(3, "main", 7) != _stable_id(4, "main", 7)

    def test_id_is_16_hex_chars(self):
        span_id = _stable_id(0, "main", 0)
        assert len(span_id) == 16
        int(span_id, 16)

    def test_same_seed_same_ids_across_tracers(self):
        first = Tracer(TraceConfig(seed=5))
        second = Tracer(TraceConfig(seed=5))
        a = first.begin("x")
        b = second.begin("x")
        assert a.span_id == b.span_id

    def test_sample_decision_deterministic_and_rate_shaped(self):
        decisions = [
            _sample_decision(1, "main", seq, 0.25) for seq in range(2000)
        ]
        assert decisions == [
            _sample_decision(1, "main", seq, 0.25) for seq in range(2000)
        ]
        kept = sum(decisions)
        assert 0.15 < kept / 2000 < 0.35
        assert all(_sample_decision(1, "m", s, 1.0) for s in range(10))
        assert not any(_sample_decision(1, "m", s, 0.0) for s in range(10))


class TestTracer:
    def test_begin_end_records_span(self):
        tracer = Tracer()
        span = tracer.begin("work", kind="run")
        tracer.end(span, items=3)
        assert len(tracer) == 1
        assert span.end is not None and span.end >= span.start
        assert span.attrs["items"] == 3
        assert span.duration >= 0.0

    def test_parentage(self):
        tracer = Tracer()
        parent = tracer.begin("run")
        child = tracer.begin("stage", kind="stage", parent=parent)
        assert child.parent_id == parent.span_id

    def test_batch_sampling_advances_seq_for_dropped_spans(self):
        kept_all = Tracer(TraceConfig(seed=2, sample_rate=1.0))
        sampled = Tracer(TraceConfig(seed=2, sample_rate=0.3))
        all_spans = [kept_all.begin_batch(f"b{i}") for i in range(100)]
        some_spans = [sampled.begin_batch(f"b{i}") for i in range(100)]
        kept = [s for s in some_spans if s is not None]
        assert 0 < len(kept) < 100
        # Sampling never shifts IDs: the kept spans carry the same IDs
        # they would have had at sample_rate=1.0.
        by_seq = {s.seq: s.span_id for s in all_spans}
        for span in kept:
            assert span.span_id == by_seq[span.seq]

    def test_max_spans_head_cap(self):
        tracer = Tracer(TraceConfig(max_spans=3))
        spans = [tracer.begin_batch(f"b{i}") for i in range(10)]
        assert sum(s is not None for s in spans) == 3

    def test_structural_spans_ignore_sampling(self):
        tracer = Tracer(TraceConfig(sample_rate=0.0, max_spans=0))
        assert tracer.begin("run") is not None
        assert tracer.begin_batch("batch") is None

    def test_reset(self):
        tracer = Tracer()
        tracer.end(tracer.begin("x"))
        tracer.reset()
        assert len(tracer) == 0
        assert tracer.begin("y").seq == 0

    def test_span_roundtrip_dict(self):
        span = Span(
            span_id="ab", parent_id=None, name="n", kind="run",
            shard="main", seq=0, start=1.0, end=2.0, attrs={"k": 1},
        )
        assert Span.from_dict(span.to_dict()) == span

    def test_snapshot_merge_roundtrip(self):
        worker = Tracer(TraceConfig(seed=1), shard="shard0")
        worker.end(worker.begin("work"))
        parent = Tracer(TraceConfig(seed=1))
        parent.end(parent.begin("parent-work"))
        parent.merge_spans(worker.snapshot())
        assert len(parent) == 2
        shards = {span.shard for span in parent.spans}
        assert shards == {"main", "shard0"}

    def test_merge_rejects_malformed_snapshot(self):
        with pytest.raises(ObservabilityError):
            Tracer().merge_spans({"nope": []})

    def test_deterministic_view_excludes_wall_clock(self):
        tracer = Tracer()
        tracer.end(tracer.begin("x"))
        (view,) = tracer.deterministic_view()
        assert "start" not in view and "end" not in view
        assert view["span_id"] == tracer.spans[0].span_id

    def test_explain_without_provenance_raises(self):
        tracer = Tracer(TraceConfig(provenance=False))
        with pytest.raises(ObservabilityError):
            tracer.explain(object())


class TestPipelineWiring:
    def test_run_records_run_and_stage_spans(self):
        observer = Observer(trace=TraceConfig())
        tracer = observer.tracer
        sink = _pipeline(observer).run(_tuples())
        assert len(sink.results) == 40
        kinds = [span.kind for span in tracer.spans]
        assert kinds.count("run") == 1
        assert kinds.count("stage") == 2
        run_span = tracer.spans[0]
        assert run_span.attrs["tuples"] == 40
        stage = tracer.spans[1]
        assert stage.parent_id == run_span.span_id
        assert stage.attrs["tuples_in"] == 40
        assert stage.attrs["tuples_out"] == 40
        assert stage.name == "pipeline.00.WindowAggregate"

    def test_run_records_one_batch_span_per_row(self):
        observer = Observer(trace=TraceConfig(max_spans=10))
        tracer = observer.tracer
        _pipeline(observer).run(_tuples())
        batches = [s for s in tracer.spans if s.kind == "batch"]
        # Capped by max_spans like any batch span; each holds one row.
        assert len(batches) == 10
        assert {s.attrs["batch_size"] for s in batches} == {1}
        stage = next(s for s in tracer.spans if s.kind == "stage")
        assert stage.attrs["batches"] == stage.attrs["calls"] == 40

    def test_failed_run_closes_every_span(self):
        class OneShotBomb(WindowAggregate):
            armed = True

            def process_many(self, tuples):
                if self.armed and any(t.timestamp == 5.0 for t in tuples):
                    self.armed = False
                    raise RuntimeError("injected failure")
                super().process_many(tuples)

        for batch_size in (1, 4):
            observer = Observer(trace=TraceConfig())
            tracer = observer.tracer
            pipeline = Pipeline(
                [OneShotBomb("value", 8), CollectSink()], observer=observer
            )
            with pytest.raises(RuntimeError, match="injected failure"):
                pipeline.run_batched(_tuples(), batch_size)
            failed = list(tracer.spans)
            assert [s.kind for s in failed].count("stage") == 2
            assert all(span.end is not None for span in failed)
            # The next run opens fresh stage spans that count only it.
            pipeline.run_batched(_tuples(), batch_size)
            stages = [
                s for s in tracer.spans[len(failed):] if s.kind == "stage"
            ]
            assert [s.attrs["tuples_in"] for s in stages] == [40, 40]
            assert all(span.end is not None for span in tracer.spans)

    def test_run_batched_records_batch_spans(self):
        observer = Observer(trace=TraceConfig())
        tracer = observer.tracer
        _pipeline(observer).run_batched(_tuples(), batch_size=16)
        batches = [s for s in tracer.spans if s.kind == "batch"]
        assert len(batches) == 6  # ceil(40/16)=3 batches x 2 stages
        sizes = [
            s.attrs["batch_size"] for s in batches
            if s.name.startswith("pipeline.00")
        ]
        assert sizes == [16, 16, 8]
        for span in batches:
            assert span.attrs["emitted"] >= 0

    def test_output_identical_with_and_without_tracer(self):
        plain = _pipeline().run(_tuples()).results
        traced = _pipeline(Observer(TraceConfig())).run(_tuples()).results
        assert pickle.dumps(plain) == pickle.dumps(traced)
        plain_b = _pipeline().run_batched(_tuples(), 16).results
        traced_b = (
            _pipeline(Observer(TraceConfig())).run_batched(_tuples(), 16)
        ).results
        assert pickle.dumps(plain_b) == pickle.dumps(traced_b)

    def test_tracer_and_registry_coexist(self):
        observer = Observer(trace=TraceConfig())
        tracer = observer.tracer
        sink = _pipeline(observer).run(_tuples())
        assert len(sink.results) == 40
        # run + 2 stages + one one-row batch span per tuple per stage.
        assert len(tracer) == 3 + 2 * 40
        assert observer.metrics.get("pipeline.tuples").value == 40
        # The stage span's counts are the stage's own counters.
        stage = next(s for s in tracer.spans if s.kind == "stage")
        counter = observer.metrics.get(f"{stage.name}.tuples_in")
        assert stage.attrs["tuples_in"] == counter.value

    def test_detach_trace_stops_recording(self):
        observer = Observer(trace=TraceConfig())
        tracer = observer.tracer
        pipeline = _pipeline(observer)
        pipeline.detach()
        pipeline.run(_tuples())
        assert len(tracer) == 0

    def test_pristine_clone_has_no_tracer(self):
        # The sharded payload is pickled with the tracer detached.
        observer = Observer(trace=TraceConfig())
        tracer = observer.tracer
        pipeline = _pipeline(observer)
        clone = pickle.loads(pipeline_payload(pipeline))
        assert clone.observer is None
        assert all(op._obs is None for op in clone.operators)
        # The original is re-attached and still records.
        assert pipeline.observer is observer
        pipeline.run(_tuples())
        assert len(tracer) == 3 + 2 * 40

    def test_two_runs_share_one_tracer(self):
        observer = Observer(trace=TraceConfig())
        tracer = observer.tracer
        pipeline = Pipeline(
            [WindowAggregate("value", 4), CollectSink()], observer=observer
        )
        pipeline.run(_tuples(10))
        pipeline.run(_tuples(10))
        runs = [s for s in tracer.spans if s.kind == "run"]
        assert len(runs) == 2
        assert runs[0].span_id != runs[1].span_id

    def test_trace_names_follow_prefix(self):
        observer = Observer(trace=TraceConfig())
        tracer = observer.tracer
        pipeline = _pipeline()
        pipeline.attach(observer, prefix="fig9.case")
        pipeline.run(_tuples(5))
        assert tracer.spans[0].name == "fig9.case.run"
        assert tracer.spans[1].name.startswith("fig9.case.00.")

    def test_deterministic_view_stable_across_runs(self):
        views = []
        for _ in range(2):
            observer = Observer(trace=TraceConfig(seed=4))
            tracer = observer.tracer
            _pipeline(observer).run_batched(_tuples(), 16)
            views.append(json.dumps(tracer.deterministic_view()))
        assert views[0] == views[1]
