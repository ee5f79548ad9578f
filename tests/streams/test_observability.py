"""Pipeline observability: instrumentation hooks, snapshots, and the
no-registry identity guarantee."""

import math
import types

import numpy as np
import pytest

from repro.core.dfsample import DfSized
from repro.distributions.gaussian import GaussianDistribution
from repro.experiments.harness import render_metrics_table
from repro.obs import Observer, operator_rows
from repro.streams.engine import Pipeline
from repro.streams.operators import (
    CollectSink,
    CountingSink,
    Operator,
    Select,
    WindowAggregate,
)
from repro.streams.throughput import measure_throughput
from repro.streams.tuples import UncertainTuple


def make_tuples(n, seed=0, mean=100.0, std=10.0):
    rng = np.random.default_rng(seed)
    return [
        UncertainTuple(
            {
                "item": float(i),
                "value": DfSized(
                    GaussianDistribution(
                        float(rng.normal(mean, std)), float(std**2)
                    ),
                    20,
                ),
            }
        )
        for i in range(n)
    ]


def build_pipeline(observer=None):
    """A Fig 5-shaped chain: filter -> sliding AVG -> collect."""
    return Pipeline(
        [
            Select(lambda t: t.value("item") % 10 != 0.0),
            WindowAggregate("value", 8),
            CollectSink(),
        ],
        observer=observer,
    )


def renders(sink):
    return [repr(t) for t in sink.results]


# --- Uninstrumented execution semantics, rebound per instance, so the
# --- identity guarantee is checked against genuinely bare paths.

def _bare_receive_many(self, tuples):
    self.process_many(tuples)


def _bare_emit_many(self, tuples):
    if self._downstream is not None and tuples:
        self._downstream.receive_many(tuples)


def _bare_flush(self):
    self.on_flush()
    if self._downstream is not None:
        self._downstream.flush()


def strip_instrumentation(pipeline):
    """Rebind every hook to its uninstrumented body (baseline semantics)."""
    for op in pipeline.operators:
        op.receive_many = types.MethodType(_bare_receive_many, op)
        op.emit_many = types.MethodType(_bare_emit_many, op)
        op.flush = types.MethodType(_bare_flush, op)
    return pipeline


class TestIdentityWithoutRegistry:
    """With no registry attached the sink contents must be unchanged."""

    @pytest.mark.parametrize("batch_size", [None, 1, 7, 64])
    def test_sink_matches_bare_pipeline(self, batch_size):
        tuples = make_tuples(120, seed=5)
        instrumented = build_pipeline()
        bare = strip_instrumentation(build_pipeline())
        if batch_size is None:
            instrumented.run(tuples)
            bare.run(tuples)
        else:
            instrumented.run_batched(tuples, batch_size)
            bare.run_batched(tuples, batch_size)
        assert renders(instrumented.sink) == renders(bare.sink)

    def test_sink_matches_with_registry_attached(self):
        tuples = make_tuples(90, seed=6)
        plain = build_pipeline()
        observed = build_pipeline(observer=Observer())
        plain.run(tuples)
        observed.run(tuples)
        assert renders(plain.sink) == renders(observed.sink)

    def test_batched_sink_matches_with_registry_attached(self):
        tuples = make_tuples(90, seed=7)
        plain = build_pipeline()
        observed = build_pipeline(observer=Observer())
        plain.run_batched(tuples, 16)
        observed.run_batched(tuples, 16)
        assert renders(plain.sink) == renders(observed.sink)


class TestOperatorMetrics:
    def test_tuples_in_out_and_selectivity(self):
        observer = Observer()
        registry = observer.metrics
        pipeline = build_pipeline(observer=observer)
        pipeline.run(make_tuples(100, seed=1))
        snap = registry.snapshot()
        assert snap["pipeline.00.Select.tuples_in"]["value"] == 100
        kept = snap["pipeline.00.Select.tuples_out"]["value"]
        assert kept == 90  # every 10th item dropped
        assert snap["pipeline.01.WindowAggregate.tuples_in"][
            "value"
        ] == 90
        assert snap["pipeline.02.CollectSink.tuples_in"]["value"] == 90
        rows = operator_rows(registry)
        select_row = next(
            r for r in rows if r["operator"].endswith("Select")
        )
        assert select_row["selectivity"] == pytest.approx(0.9)

    def test_timers_record_every_call(self):
        observer = Observer()
        registry = observer.metrics
        pipeline = build_pipeline(observer=observer)
        pipeline.run(make_tuples(40, seed=2))
        snap = registry.snapshot()
        # run() pushes one-row batches: one timed call per tuple.
        timer = snap["pipeline.00.Select.batch_seconds"]
        assert timer["count"] == 40
        assert timer["total_seconds"] >= 0.0
        # flush propagated through the whole chain exactly once
        for index, name in enumerate(
            ["Select", "WindowAggregate", "CollectSink"]
        ):
            flush = snap[f"pipeline.{index:02d}.{name}.flush_seconds"]
            assert flush["count"] == 1

    def test_batch_sizes_recorded_on_batched_path(self):
        observer = Observer()
        registry = observer.metrics
        pipeline = build_pipeline(observer=observer)
        pipeline.run_batched(make_tuples(100, seed=3), 32)
        hist = registry.get("pipeline.00.Select.batch_size")
        assert hist.count == 4  # 32 + 32 + 32 + 4
        assert hist.sum == 100.0
        timer = registry.get("pipeline.00.Select.batch_seconds")
        assert timer.count == 4
        assert "pipeline.00.Select.process_seconds" not in registry.snapshot()

    def test_interval_width_histogram_from_dfsized(self):
        observer = Observer()
        registry = observer.metrics
        pipeline = build_pipeline(observer=observer)
        pipeline.run(make_tuples(50, seed=4))
        widths = registry.get(
            "pipeline.01.WindowAggregate.interval_width"
        )
        sizes = registry.get(
            "pipeline.01.WindowAggregate.sample_size"
        )
        assert widths.count == 45  # one per emitted window result
        assert widths.sum > 0.0
        assert sizes.count == 45
        # every input carried n=20, so the window minimum is 20
        assert sizes.snapshot()["min"] == 20.0
        assert sizes.snapshot()["max"] == 20.0

    def test_interval_width_from_accuracy_info_operator(self):
        from repro.experiments.fig5_throughput import _AnalyticAccuracy

        observer = Observer()
        registry = observer.metrics
        pipeline = Pipeline(
            [
                WindowAggregate("value", 4, agg="avg"),
                _AnalyticAccuracy("avg", confidence=0.9),
                CollectSink(),
            ],
            observer=observer,
        )
        pipeline.run(make_tuples(30, seed=8))
        widths = registry.get("pipeline.01.AnalyticAccuracy.interval_width")
        assert widths.count == 30
        # AccuracyInfo path uses the operator's own confidence level: the
        # recorded widths must match the attached intervals exactly.
        total = sum(
            t.value("accuracy").mean.length for t in pipeline.sink.results
        )
        assert widths.sum == pytest.approx(total)

    def test_exact_valued_attributes_are_skipped(self):
        observer = Observer()
        registry = observer.metrics
        pipeline = Pipeline(
            [WindowAggregate("item", 4, agg="count"), CollectSink()],
            observer=observer,
        )
        pipeline.run(make_tuples(20, seed=9))
        # count aggregate emits plain floats: nothing to measure
        assert registry.get(
            "pipeline.00.WindowAggregate.interval_width"
        ).count == 0

    def test_detach_metrics_stops_recording(self):
        observer = Observer()
        registry = observer.metrics
        pipeline = build_pipeline(observer=observer)
        pipeline.run(make_tuples(10, seed=10))
        before = registry.get("pipeline.00.Select.tuples_in").value
        pipeline.detach()
        pipeline.run(make_tuples(10, seed=11))
        assert registry.get("pipeline.00.Select.tuples_in").value == before

    def test_default_operator_name_used_without_pipeline(self):
        observer = Observer()
        registry = observer.metrics
        sink = CountingSink()
        sink.attach(observer)
        sink.receive_many([UncertainTuple({"x": 1.0})])
        assert registry.get("CountingSink.tuples_in").value == 1


class TestPipelineMetrics:
    def test_run_counters_and_timer(self):
        observer = Observer()
        registry = observer.metrics
        pipeline = build_pipeline(observer=observer)
        pipeline.run(make_tuples(25, seed=12))
        pipeline.run_batched(make_tuples(25, seed=13), 8)
        snap = registry.snapshot()
        assert snap["pipeline.runs"]["value"] == 2
        assert snap["pipeline.tuples"]["value"] == 50
        assert snap["pipeline.run_seconds"]["count"] == 2

    def test_prefix_keeps_pipelines_distinguishable(self):
        observer = Observer()
        registry = observer.metrics
        first = build_pipeline()
        second = build_pipeline()
        first.attach(observer, "a")
        second.attach(observer, "b")
        first.run(make_tuples(5, seed=14))
        second.run(make_tuples(7, seed=15))
        assert registry.get("a.00.Select.tuples_in").value == 5
        assert registry.get("b.00.Select.tuples_in").value == 7

    def test_render_metrics_table_lists_every_stage(self):
        observer = Observer()
        registry = observer.metrics
        pipeline = build_pipeline(observer=observer)
        pipeline.run(make_tuples(30, seed=16))
        table = render_metrics_table(registry)
        for name in ("Select", "WindowAggregate", "CollectSink"):
            assert name in table


class TestThroughputIntegration:
    def test_measure_throughput_collects_metrics(self):
        tuples = make_tuples(300, seed=17)
        observer = Observer()
        registry = observer.metrics
        rate = measure_throughput(
            build_pipeline,
            tuples,
            repeats=1,
            observer=observer,
            prefix="probe",
        )
        assert rate > 0.0
        assert registry.get("probe.00.Select.tuples_in").value == 300
        assert math.isfinite(
            registry.get("probe.run_seconds").snapshot()["total_seconds"]
        )

    def test_no_registry_means_no_metrics(self):
        tuples = make_tuples(100, seed=18)
        rate = measure_throughput(build_pipeline, tuples, repeats=1)
        assert rate > 0.0


class TestBatchInstrumentation:
    def test_fan_out_operator_counts_once(self):
        """An operator emitting twice per input is counted once per row."""

        class Doubler(Operator):
            def process_many(self, tuples):
                self.emit_many([tup for tup in tuples for _ in range(2)])

        observer = Observer()
        registry = observer.metrics
        pipeline = Pipeline([Doubler(), CollectSink()], observer=observer)
        pipeline.run_batched(
            [UncertainTuple({"x": float(i)}) for i in range(6)], 3
        )
        snap = registry.snapshot()
        assert snap["pipeline.00.Doubler.tuples_in"]["value"] == 6
        assert snap["pipeline.00.Doubler.tuples_out"]["value"] == 12
        assert snap["pipeline.01.CollectSink.tuples_in"]["value"] == 12
        assert len(pipeline.sink.results) == 12
