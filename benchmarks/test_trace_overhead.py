"""Disabled-tracer overhead + export validity on the Fig 5(c) workload.

Three claims from ``docs/TRACING.md``, verified directly:

1. With no tracer attached, the ``_trace is None`` check added to every
   operator hook costs less than 5% of throughput against the bare
   (hook-free) execution paths — same methodology as
   ``test_obs_overhead.py``: interleaved best-of-N rounds, re-measured
   up to ``ATTEMPTS`` times so only a reproducible regression fails.
2. Pipeline output is byte-identical with a tracer attached vs not.
3. An exported trace of the workload passes the Chrome trace-event
   schema check (strict RFC 8259, required keys, finite timestamps).

Results land in ``benchmarks/results/trace_overhead.txt`` and
``BENCH_trace_overhead.json``.  ``OBS_SMOKE=1`` shrinks the workload
for CI smoke runs.
"""

import json
import os
import pickle
import types

from benchmarks.conftest import save_result
from repro.experiments.fig5_throughput import (
    WINDOW_SIZE,
    _AnalyticAccuracy,
    _LearnGaussian,
    make_stream,
)
from repro.obs.export import validate_chrome_trace, write_chrome_trace
from repro.obs.trace import TraceConfig, Tracer
from repro.streams.engine import Pipeline
from repro.streams.operators import (
    CollectSink,
    CountingSink,
    SlidingGaussianAverage,
)
from repro.streams.throughput import measure_throughput

SMOKE = os.environ.get("OBS_SMOKE", "") not in ("", "0")
N_ITEMS = 2000 if SMOKE else 6000
ROUNDS = 4 if SMOKE else 5
ATTEMPTS = 3
MAX_OVERHEAD = 0.05


def _bare_receive_many(self, tuples):
    self.process_many(tuples)


def _bare_emit_many(self, tuples):
    if self._downstream is not None and tuples:
        self._downstream.receive_many(tuples)


def _bare_flush(self):
    self.on_flush()
    if self._downstream is not None:
        self._downstream.flush()


def _strip(pipeline: Pipeline) -> Pipeline:
    """Rebind every hook to its uninstrumented body (pre-hooks semantics)."""
    for op in pipeline.operators:
        op.receive_many = types.MethodType(_bare_receive_many, op)
        op.emit_many = types.MethodType(_bare_emit_many, op)
        op.flush = types.MethodType(_bare_flush, op)
    return pipeline


def _fig5c_pipeline(sink=CountingSink) -> Pipeline:
    return Pipeline(
        [
            _LearnGaussian("points", "value"),
            SlidingGaussianAverage("value", WINDOW_SIZE),
            _AnalyticAccuracy("avg"),
            sink(),
        ]
    )


def _bare_pipeline() -> Pipeline:
    return _strip(_fig5c_pipeline())


def test_no_tracer_overhead_under_5_percent(benchmark, results_dir):
    tuples = make_stream(N_ITEMS, seed=21)

    def measure(rounds: int) -> tuple[float, float]:
        bare = 0.0
        untraced = 0.0
        for _ in range(rounds):
            bare = max(
                bare, measure_throughput(_bare_pipeline, tuples, repeats=1)
            )
            untraced = max(
                untraced,
                measure_throughput(_fig5c_pipeline, tuples, repeats=1),
            )
        return bare, untraced

    def measure_until_stable() -> tuple[float, float]:
        measure(1)  # warm caches so neither variant pays the cold start
        bare, untraced = measure(ROUNDS)
        for attempt in range(1, ATTEMPTS):
            if untraced / bare >= 1.0 - MAX_OVERHEAD:
                break
            more_bare, more_untraced = measure(ROUNDS * (attempt + 1))
            bare = max(bare, more_bare)
            untraced = max(untraced, more_untraced)
        return bare, untraced

    bare, untraced = benchmark.pedantic(
        measure_until_stable, rounds=1, iterations=1
    )
    # Informational: throughput with the tracer actually on (one pass;
    # tracing enabled is allowed to cost more than 5%).
    tracer = Tracer(TraceConfig())
    traced = measure_throughput(
        _fig5c_pipeline, tuples, repeats=1, tracer=tracer
    )
    ratio = untraced / bare
    save_result(
        results_dir,
        "trace_overhead",
        "Tracing disabled-mode overhead (Fig 5(c) analytic)\n"
        f"  bare hooks:       {int(bare):>8} tuples/s\n"
        f"  no tracer:        {int(untraced):>8} tuples/s\n"
        f"  tracer attached:  {int(traced):>8} tuples/s "
        f"({len(tracer)} spans, {len(tracer.provenance)} records)\n"
        f"  ratio:            {ratio:>8.3f} (floor {1 - MAX_OVERHEAD})",
    )
    (results_dir / "BENCH_trace_overhead.json").write_text(
        json.dumps(
            {
                "workload": "fig5c-analytic",
                "n_items": N_ITEMS,
                "smoke": SMOKE,
                "bare_tuples_per_sec": bare,
                "untraced_tuples_per_sec": untraced,
                "traced_tuples_per_sec": traced,
                "disabled_overhead_ratio": ratio,
                "max_overhead": MAX_OVERHEAD,
            },
            indent=2,
        )
        + "\n"
    )
    assert ratio >= 1.0 - MAX_OVERHEAD, (
        f"disabled-mode tracing costs {(1 - ratio):.1%} of throughput "
        f"(budget {MAX_OVERHEAD:.0%}): {int(bare)} -> {int(untraced)} "
        "tuples/s"
    )


def test_output_byte_identical_with_tracer_on_vs_off():
    tuples = make_stream(600, seed=22)
    plain = _fig5c_pipeline(sink=CollectSink)
    traced = _fig5c_pipeline(sink=CollectSink)
    traced.attach_trace(Tracer(TraceConfig()))
    plain.run(tuples)
    traced.run(tuples)
    assert [pickle.dumps(t) for t in plain.sink.results] == [
        pickle.dumps(t) for t in traced.sink.results
    ]


def test_exported_trace_passes_schema_check(tmp_path):
    tuples = make_stream(600, seed=23)
    tracer = Tracer(TraceConfig())
    pipeline = _fig5c_pipeline()
    pipeline.attach_trace(tracer)
    pipeline.run_batched(tuples, batch_size=128)
    text = write_chrome_trace(tracer, str(tmp_path / "fig5c.trace.json"))
    obj = validate_chrome_trace(text)
    complete = [e for e in obj["traceEvents"] if e["ph"] == "X"]
    assert len(complete) == len(tracer.spans)
