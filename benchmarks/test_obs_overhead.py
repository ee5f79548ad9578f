"""Observability cost on the Figure 5(c) workload: disabled and enabled.

Every operator hook (``receive_many``/``emit_many``/``flush``) begins
with one ``if self._obs is None`` check, and the run loop with one
``observer is None`` check.  ``docs/OBSERVABILITY.md`` promises that
with no :class:`~repro.obs.Observer` attached this costs less than 5%
of throughput.

1. **The gate.**  The analytic Fig 5(c) configuration is measured as
   shipped (hooks present, no observer) and with the hook methods
   rebound to bare bodies that skip the check entirely; the shipped
   pipeline must keep >= 95% of the bare throughput.  Runs are
   interleaved (bare, shipped, bare, shipped, ...) and best-of-N so a
   load spike hits both variants equally, and a ratio below the floor
   re-measures with more rounds (up to ``ATTEMPTS``) so only a
   reproducible regression fails.
2. **The enabled cost** (recorded, not gated): tuples/s with no
   observer, ``Observer()``, ``Observer(trace=...)`` and
   ``Observer(trace=..., frames=...)``, on the per-tuple and the
   batched path, in ``BENCH_obs_overhead.json``.
3. Sink contents are byte-identical with a full observer attached, and
   its Chrome trace, frame series and alert log export as strict JSON.

``OBS_SMOKE=1`` shrinks the workload for CI smoke runs.
"""

import json
import os
import pickle
import platform
import statistics
import types

import numpy as np

from benchmarks.conftest import save_result
from repro.experiments.fig5_throughput import (
    WINDOW_SIZE,
    _AnalyticAccuracy,
    _LearnGaussian,
    make_stream,
)
from repro.obs import Observer, TelemetryConfig, TraceConfig
from repro.obs.alerts import AlertLog
from repro.obs.export import validate_chrome_trace, write_chrome_trace
from repro.obs.slo import parse_rule
from repro.streams.engine import Pipeline
from repro.streams.operators import (
    CollectSink,
    CountingSink,
    WindowAggregate,
)
from repro.streams.throughput import measure_throughput

SMOKE = os.environ.get("OBS_SMOKE", "") not in ("", "0")
N_ITEMS = 2000 if SMOKE else 6000
ROUNDS = 4 if SMOKE else 5
# Measurement attempts: a ratio below the floor re-measures with more
# rounds before failing, so only a *reproducible* regression trips the
# gate rather than a one-off load spike on a shared runner.
ATTEMPTS = 3
MAX_OVERHEAD = 0.05
FRAME_INTERVAL = 256
BATCH_SIZE = 256

RULES = [
    parse_rule("ci_width p95 <= 10.0"),
    parse_rule("de_facto_n p5 >= 2"),
]

#: Enabled-cost configurations: label -> observer factory (or None).
OBSERVERS = {
    "no observer": None,
    "Observer()": Observer,
    "Observer(trace)": lambda: Observer(trace=TraceConfig()),
    "Observer(trace, frames)": lambda: Observer(
        trace=TraceConfig(), frames=TelemetryConfig(FRAME_INTERVAL)
    ),
}


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
    """Rebind every hook to its unobserved body (no observer check)."""
    for op in pipeline.operators:
        op.receive_many = types.MethodType(_bare_receive_many, op)
        op.emit_many = types.MethodType(_bare_emit_many, op)
        op.flush = types.MethodType(_bare_flush, op)
    return pipeline


def _fig5c_pipeline(sink=CountingSink, observer=None) -> Pipeline:
    return Pipeline(
        [
            _LearnGaussian("points", "value"),
            WindowAggregate("value", WINDOW_SIZE),
            _AnalyticAccuracy("avg"),
            sink(),
        ],
        observer=observer,
    )


def _bare_pipeline() -> Pipeline:
    return _strip(_fig5c_pipeline())


def test_disabled_mode_overhead_under_5_percent(benchmark, results_dir):
    tuples = make_stream(N_ITEMS, seed=11)

    def measure(rounds: int) -> tuple[float, float]:
        bare = 0.0
        shipped = 0.0
        for _ in range(rounds):
            bare = max(
                bare, measure_throughput(_bare_pipeline, tuples, repeats=1)
            )
            shipped = max(
                shipped,
                measure_throughput(_fig5c_pipeline, tuples, repeats=1),
            )
        return bare, shipped

    def measure_until_stable() -> tuple[float, float]:
        measure(1)  # warm caches so neither variant pays the cold start
        bare, shipped = measure(ROUNDS)
        for attempt in range(1, ATTEMPTS):
            if shipped / bare >= 1.0 - MAX_OVERHEAD:
                break
            more_bare, more_shipped = measure(ROUNDS * (attempt + 1))
            bare = max(bare, more_bare)
            shipped = max(shipped, more_shipped)
        return bare, shipped

    bare, shipped = benchmark.pedantic(
        measure_until_stable, rounds=1, iterations=1
    )
    enabled = _enabled_cost(tuples)
    ratio = shipped / bare
    lines = [
        "Observability cost (Fig 5(c) analytic, "
        f"{N_ITEMS} tuples, best of {ROUNDS} interleaved rounds)",
        f"  bare hooks:           {int(bare):>8} tuples/s",
        f"  no observer:          {int(shipped):>8} tuples/s",
        f"  disabled ratio:       {ratio:>8.3f} (floor {1 - MAX_OVERHEAD})",
        "  enabled (median tuples/s; ratio to no observer):",
    ]
    for path, rows in enabled.items():
        base = rows["no observer"]["median"]
        for label, row in rows.items():
            lines.append(
                f"    {path:<8} {label:<24} {int(row['median']):>8} "
                f"({row['median'] / base:.3f})"
            )
    save_result(results_dir, "obs_overhead", "\n".join(lines))
    (results_dir / "BENCH_obs_overhead.json").write_text(
        json.dumps(
            {
                "workload": "fig5c-analytic",
                "n_items": N_ITEMS,
                "rounds": ROUNDS,
                "smoke": SMOKE,
                "machine": {
                    "cpus": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": np.__version__,
                },
                "disabled": {
                    "bare_tuples_per_sec": bare,
                    "no_observer_tuples_per_sec": shipped,
                    "ratio": ratio,
                    "max_overhead": MAX_OVERHEAD,
                },
                "enabled_tuples_per_sec": enabled,
                "frame_interval": FRAME_INTERVAL,
                "batch_size": BATCH_SIZE,
            },
            indent=2,
        )
        + "\n"
    )
    assert ratio >= 1.0 - MAX_OVERHEAD, (
        f"disabled-mode observability costs {(1 - ratio):.1%} of "
        f"throughput (budget {MAX_OVERHEAD:.0%}): {int(bare)} -> "
        f"{int(shipped)} tuples/s"
    )


def _enabled_cost(tuples) -> dict[str, dict[str, dict[str, float]]]:
    """Interleaved tuples/s of every observer configuration, per path.

    Each run builds a fresh pipeline with a fresh observer, so spans
    and frames never accumulate across rounds.  Informational: enabled
    observability is allowed to cost more than 5%.
    """
    paths = {"run": None, "batched": BATCH_SIZE}
    samples = {
        path: {label: [] for label in OBSERVERS} for path in paths
    }
    for _ in range(ROUNDS):
        for path, batch_size in paths.items():
            for label, make in OBSERVERS.items():
                factory = (
                    lambda make=make: _fig5c_pipeline(
                        observer=None if make is None else make()
                    )
                )
                samples[path][label].append(
                    measure_throughput(
                        factory, tuples, repeats=1, batch_size=batch_size
                    )
                )
    return {
        path: {
            label: {
                "median": statistics.median(runs),
                "min": min(runs),
                "max": max(runs),
            }
            for label, runs in rows.items()
        }
        for path, rows in samples.items()
    }


def test_output_byte_identical_with_full_observer():
    tuples = make_stream(600, seed=22)
    plain = _fig5c_pipeline(sink=CollectSink)
    observed = _fig5c_pipeline(
        sink=CollectSink, observer=OBSERVERS["Observer(trace, frames)"]()
    )
    for batch_size in (1, 128):
        plain.run_batched(tuples, batch_size)
        observed.run_batched(tuples, batch_size)
        assert [pickle.dumps(t) for t in plain.sink.results] == [
            pickle.dumps(t) for t in observed.sink.results
        ]


def test_exported_trace_passes_schema_check(tmp_path):
    tuples = make_stream(600, seed=23)
    observer = Observer(trace=TraceConfig())
    _fig5c_pipeline(observer=observer).run_batched(tuples, batch_size=128)
    text = write_chrome_trace(
        observer.tracer, str(tmp_path / "fig5c.trace.json")
    )
    obj = validate_chrome_trace(text)
    complete = [e for e in obj["traceEvents"] if e["ph"] == "X"]
    assert len(complete) == len(observer.tracer.spans)


def test_frame_and_alert_exports_stay_strict(tmp_path):
    tuples = make_stream(600, seed=33)
    observer = Observer(frames=TelemetryConfig(frame_interval=128))
    _fig5c_pipeline(observer=observer).run_batched(tuples, batch_size=128)
    frames = observer.frames
    assert len(frames.series) >= 4
    json.loads(frames.to_json(indent=2), parse_constant=lambda lit: 1 / 0)
    log = AlertLog()
    log.evaluate(frames.series, RULES)
    jsonl = log.to_jsonl()
    for line in jsonl.splitlines():
        json.loads(line, parse_constant=lambda lit: 1 / 0)
    out = tmp_path / "slo_alerts.jsonl"
    out.write_text(jsonl)
    assert out.read_text() == jsonl
