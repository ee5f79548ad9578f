"""Disabled-telemetry overhead + export validity on the Fig 5(c) workload.

Three claims from ``docs/MONITORING.md``, verified directly:

1. With no telemetry recorder attached, the ``telemetry is None`` checks
   added to the run loops cost less than 5% of throughput against the
   bare (hook-free) execution paths — same methodology as
   ``test_trace_overhead.py``: interleaved best-of-N rounds, re-measured
   up to ``ATTEMPTS`` times so only a reproducible regression fails.
2. Pipeline output is byte-identical with a recorder attached vs not.
3. The workload's frame series exports as strict JSON and an alert log
   evaluated over it exports as strict JSON lines.

Results land in ``benchmarks/results/slo_overhead.txt`` and
``BENCH_slo_overhead.json``.  ``SLO_SMOKE=1`` shrinks the workload for
CI smoke runs.
"""

import json
import os
import pickle

from benchmarks.conftest import save_result
from benchmarks.test_trace_overhead import _fig5c_pipeline, _strip
from repro.experiments.fig5_throughput import make_stream
from repro.obs.alerts import AlertLog
from repro.obs.slo import parse_rule
from repro.obs.timeseries import TelemetryConfig, TelemetryRecorder
from repro.streams.engine import Pipeline
from repro.streams.operators import CollectSink
from repro.streams.throughput import measure_throughput

SMOKE = os.environ.get("SLO_SMOKE", "") not in ("", "0")
N_ITEMS = 2000 if SMOKE else 6000
ROUNDS = 4 if SMOKE else 5
ATTEMPTS = 3
MAX_OVERHEAD = 0.05
FRAME_INTERVAL = 256

RULES = [
    parse_rule("ci_width p95 <= 10.0"),
    parse_rule("de_facto_n p5 >= 2"),
]


def _bare_pipeline() -> Pipeline:
    return _strip(_fig5c_pipeline())


def test_no_telemetry_overhead_under_5_percent(benchmark, results_dir):
    tuples = make_stream(N_ITEMS, seed=31)

    def measure(rounds: int) -> tuple[float, float]:
        bare = 0.0
        silent = 0.0
        for _ in range(rounds):
            bare = max(
                bare, measure_throughput(_bare_pipeline, tuples, repeats=1)
            )
            silent = max(
                silent,
                measure_throughput(_fig5c_pipeline, tuples, repeats=1),
            )
        return bare, silent

    def measure_until_stable() -> tuple[float, float]:
        measure(1)  # warm caches so neither variant pays the cold start
        bare, silent = measure(ROUNDS)
        for attempt in range(1, ATTEMPTS):
            if silent / bare >= 1.0 - MAX_OVERHEAD:
                break
            more_bare, more_silent = measure(ROUNDS * (attempt + 1))
            bare = max(bare, more_bare)
            silent = max(silent, more_silent)
        return bare, silent

    bare, silent = benchmark.pedantic(
        measure_until_stable, rounds=1, iterations=1
    )
    # Informational: throughput with the recorder actually on (one pass;
    # enabled telemetry is allowed to cost more than 5%).
    recorder = TelemetryRecorder(TelemetryConfig(FRAME_INTERVAL))
    recorded = measure_throughput(
        _fig5c_pipeline, tuples, repeats=1, telemetry=recorder
    )
    log = AlertLog()
    log.evaluate(recorder.series, RULES)
    ratio = silent / bare
    save_result(
        results_dir,
        "slo_overhead",
        "SLO telemetry disabled-mode overhead (Fig 5(c) analytic)\n"
        f"  bare hooks:        {int(bare):>8} tuples/s\n"
        f"  no telemetry:      {int(silent):>8} tuples/s\n"
        f"  recorder attached: {int(recorded):>8} tuples/s "
        f"({len(recorder.series)} frames, {len(log)} transitions)\n"
        f"  ratio:             {ratio:>8.3f} (floor {1 - MAX_OVERHEAD})",
    )
    (results_dir / "BENCH_slo_overhead.json").write_text(
        json.dumps(
            {
                "workload": "fig5c-analytic",
                "n_items": N_ITEMS,
                "smoke": SMOKE,
                "frame_interval": FRAME_INTERVAL,
                "bare_tuples_per_sec": bare,
                "silent_tuples_per_sec": silent,
                "recorded_tuples_per_sec": recorded,
                "disabled_overhead_ratio": ratio,
                "max_overhead": MAX_OVERHEAD,
            },
            indent=2,
        )
        + "\n"
    )
    assert ratio >= 1.0 - MAX_OVERHEAD, (
        f"disabled-mode telemetry costs {(1 - ratio):.1%} of throughput "
        f"(budget {MAX_OVERHEAD:.0%}): {int(bare)} -> {int(silent)} "
        "tuples/s"
    )


def test_output_byte_identical_with_telemetry_on_vs_off():
    tuples = make_stream(600, seed=32)
    plain = _fig5c_pipeline(sink=CollectSink)
    recorded = _fig5c_pipeline(sink=CollectSink)
    recorded.attach_telemetry(
        TelemetryRecorder(TelemetryConfig(frame_interval=128))
    )
    plain.run(tuples)
    recorded.run(tuples)
    assert [pickle.dumps(t) for t in plain.sink.results] == [
        pickle.dumps(t) for t in recorded.sink.results
    ]


def test_frame_and_alert_exports_stay_strict(tmp_path):
    tuples = make_stream(600, seed=33)
    recorder = TelemetryRecorder(TelemetryConfig(frame_interval=128))
    pipeline = _fig5c_pipeline()
    pipeline.attach_telemetry(recorder)
    pipeline.run_batched(tuples, batch_size=128)
    assert len(recorder.series) >= 4
    frames_text = recorder.to_json(indent=2)
    json.loads(frames_text, parse_constant=lambda lit: 1 / 0)
    log = AlertLog()
    log.evaluate(recorder.series, RULES)
    jsonl = log.to_jsonl()
    for line in jsonl.splitlines():
        json.loads(line, parse_constant=lambda lit: 1 / 0)
    out = tmp_path / "slo_alerts.jsonl"
    out.write_text(jsonl)
    assert out.read_text() == jsonl
