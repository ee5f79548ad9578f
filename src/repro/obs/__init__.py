"""Observability for the stream engine and database: one :class:`Observer`.

Attach one observer, once.  It always records metrics — per operator
tuples in/out, wall time, batch sizes and, for accuracy-producing
operators, emitted confidence-interval widths and de facto sample
sizes.  Spans with accuracy provenance and a frame series for SLO rules
are options set at construction::

    from repro.obs import Observer, TelemetryConfig, TraceConfig

    observer = Observer(trace=TraceConfig(), frames=TelemetryConfig())
    pipeline = Pipeline([...], observer=observer)   # or pipeline.attach()
    sink = pipeline.run(source)

    observer.metrics.snapshot()                     # MetricsRegistry
    write_chrome_trace(observer.tracer, "trace.json")
    print(explain(sink.results[-1], observer.tracer))
    AlertLog().evaluate(observer.frames.series, [parse_rule(
        "ci_width p95 <= 0.5")])

``StreamDatabase(observer=...)``, ``measure_throughput(observer=...)``
and ``run_fig5c``/``run_fig5f`` take the same handle, and a sharded run
folds each shard's observer home with one :meth:`Observer.merge`.  With
no observer attached each operator hook is one attribute check and the
output is unchanged — see docs/OBSERVABILITY.md, docs/TRACING.md and
docs/MONITORING.md.
"""

from repro.obs.alerts import AlertEvent, AlertLog, render_health_table
from repro.obs.export import (
    chrome_trace_events,
    render_trace_tree,
    spans_to_json,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.instrument import (
    BATCH_SIZE_BUCKETS,
    DRAWS_USED_BUCKETS,
    INTERVAL_WIDTH_BUCKETS,
    SAMPLE_SIZE_BUCKETS,
    SYNOPSIS_ERROR_BUCKETS,
    Observer,
    OperatorObserver,
    operator_rows,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    exponential_buckets,
    gauge_folds_by_sum,
    linear_buckets,
    prometheus_sample,
)
from repro.obs.provenance import (
    ProvenanceRecord,
    ProvenanceRecorder,
    explain,
    lineage_from_operands,
)
from repro.obs.slo import (
    DriftEvent,
    FrameVerdict,
    RuleEvaluation,
    SloRule,
    detect_drift,
    evaluate_rule,
    evaluate_rules,
    frame_signal,
    parse_rule,
)
from repro.obs.timeseries import (
    Frame,
    FrameSeries,
    TelemetryConfig,
    TelemetryRecorder,
)
from repro.obs.trace import Span, TraceConfig, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Timer",
    "Histogram",
    "MetricsRegistry",
    "Observer",
    "OperatorObserver",
    "operator_rows",
    "exponential_buckets",
    "linear_buckets",
    "gauge_folds_by_sum",
    "prometheus_sample",
    "BATCH_SIZE_BUCKETS",
    "INTERVAL_WIDTH_BUCKETS",
    "SAMPLE_SIZE_BUCKETS",
    "SYNOPSIS_ERROR_BUCKETS",
    "DRAWS_USED_BUCKETS",
    "TelemetryConfig",
    "TelemetryRecorder",
    "Frame",
    "FrameSeries",
    "SloRule",
    "parse_rule",
    "frame_signal",
    "FrameVerdict",
    "RuleEvaluation",
    "evaluate_rule",
    "evaluate_rules",
    "DriftEvent",
    "detect_drift",
    "AlertEvent",
    "AlertLog",
    "render_health_table",
    "TraceConfig",
    "Span",
    "Tracer",
    "ProvenanceRecord",
    "ProvenanceRecorder",
    "lineage_from_operands",
    "explain",
    "chrome_trace_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "spans_to_json",
    "render_trace_tree",
    "validate_chrome_trace",
]
