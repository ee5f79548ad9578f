"""Regenerate every paper figure's data table from the command line.

Usage::

    python -m repro.experiments            # full scale (same as benchmarks)
    python -m repro.experiments --quick    # reduced scale for a fast look

Tables print to stdout; pass ``--out DIR`` to also save one text file
per figure.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from repro.experiments.fig4 import run_fig4, run_fig4d
from repro.experiments.fig5_bootstrap import run_fig5a, run_fig5b
from repro.experiments.fig5_power import run_fig5g, run_fig5h
from repro.experiments.fig5_predicates import run_fig5d, run_fig5e
from repro.experiments.fig5_throughput import run_fig5c, run_fig5f
from repro.experiments.harness import render_metrics_table
from repro.obs.alerts import AlertLog, render_health_table
from repro.obs.export import spans_to_json, write_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import parse_rule
from repro.obs.timeseries import TelemetryRecorder
from repro.obs.trace import TraceConfig, Tracer


def _experiments(
    quick: bool,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    telemetry: TelemetryRecorder | None = None,
):
    """(name, callable) pairs for every figure, scaled by --quick."""
    obs = dict(registry=registry, tracer=tracer, telemetry=telemetry)
    if quick:
        return [
            ("fig4abc", lambda: run_fig4(
                seed=7, n_segments=25, sample_sizes=(10, 20, 40, 80),
                true_sample_size=600,
            )),
            ("fig4d", lambda: run_fig4d(seed=7, trials=60)),
            ("fig5a", lambda: run_fig5a(
                seed=11, n_route_queries=10, n_random_queries=10,
                truth_mc=5000,
            )),
            ("fig5b", lambda: run_fig5b(seed=11, n_queries=20, truth_mc=5000)),
            ("fig5c", lambda: run_fig5c(
                seed=3, n_items=1500, repeats=2, **obs
            )),
            ("fig5d", lambda: run_fig5d(
                seed=17, n_pairs=30, sample_sizes=(10, 40, 80)
            )),
            ("fig5e", lambda: run_fig5e(
                seed=17, n_pairs=30, sample_sizes=(10, 40, 80)
            )),
            ("fig5f", lambda: run_fig5f(
                seed=3, n_items=1500, repeats=2, **obs
            )),
            ("fig5g", lambda: run_fig5g(seed=23, trials=100)),
            ("fig5h", lambda: run_fig5h(seed=23, trials=100)),
        ]
    return [
        ("fig4abc", lambda: run_fig4(seed=7, n_segments=100)),
        ("fig4d", lambda: run_fig4d(seed=7, trials=300)),
        ("fig5a", lambda: run_fig5a(
            seed=11, n_route_queries=30, n_random_queries=30,
        )),
        ("fig5b", lambda: run_fig5b(seed=11, n_queries=60)),
        ("fig5c", lambda: run_fig5c(seed=3, **obs)),
        ("fig5d", lambda: run_fig5d(seed=17)),
        ("fig5e", lambda: run_fig5e(seed=17)),
        ("fig5f", lambda: run_fig5f(seed=3, **obs)),
        ("fig5g", lambda: run_fig5g(seed=23)),
        ("fig5h", lambda: run_fig5h(seed=23)),
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's figure data tables.",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced scale (~10x faster, noisier numbers)",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="directory to save one .txt table per figure",
    )
    parser.add_argument(
        "--only", default=None,
        help="comma-separated figure names (e.g. fig5d,fig5e)",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="collect and print a per-stage observability breakdown "
             "for the throughput figures (fig5c, fig5f)",
    )
    parser.add_argument(
        "--trace", type=pathlib.Path, default=None, metavar="OUT.json",
        help="record a span trace of the throughput figures' "
             "instrumented passes (fig5c, fig5f) and export it as "
             "Chrome trace-event JSON (loads in ui.perfetto.dev)",
    )
    parser.add_argument(
        "--trace-provenance", action="store_true",
        help="with --trace, also record per-result accuracy provenance "
             "and write a strict-JSON span+provenance dump next to the "
             "trace (OUT.provenance.json)",
    )
    parser.add_argument(
        "--slo", action="append", default=None, metavar="RULE",
        help="evaluate an SLO rule over the throughput figures' "
             "telemetry frames (fig5c, fig5f) and print the alert log "
             "as JSON lines; repeatable.  Rule grammar: "
             "'[operator:] signal agg <=|>= threshold', e.g. "
             "'ci_width p95 <= 0.5' or 'avg: de_facto_n p5 >= 30' "
             "(see docs/MONITORING.md)",
    )
    parser.add_argument(
        "--health", action="store_true",
        help="with --slo, also print the per-rule SLO health table",
    )
    args = parser.parse_args(argv)
    if args.health and not args.slo:
        parser.error("--health requires at least one --slo RULE")
    if args.trace_provenance and args.trace is None:
        parser.error("--trace-provenance requires --trace OUT.json")

    selected = None
    if args.only:
        selected = {name.strip() for name in args.only.split(",")}
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)

    rules = [parse_rule(text) for text in (args.slo or [])]
    registry = MetricsRegistry() if args.metrics or args.slo else None
    tracer = None
    if args.trace is not None:
        tracer = Tracer(TraceConfig(provenance=args.trace_provenance))
    telemetry = None
    if args.slo:
        # SLO telemetry rides on the metrics registry: frames are deltas
        # of its snapshots, cut at tuple-count boundaries.
        telemetry = TelemetryRecorder(registry=registry)
    for name, runner in _experiments(
        args.quick, registry, tracer, telemetry
    ):
        if selected is not None and name not in selected:
            continue
        started = time.perf_counter()
        result = runner()
        elapsed = time.perf_counter() - started
        table = result.render()
        print(table)
        print(f"[{name}: {elapsed:.1f}s]\n")
        if args.out is not None:
            (args.out / f"{name}.txt").write_text(table + "\n")
    if args.metrics and registry is not None and len(registry):
        breakdown = render_metrics_table(registry)
        print(breakdown)
        if args.out is not None:
            (args.out / "metrics.txt").write_text(breakdown + "\n")
            (args.out / "metrics.json").write_text(
                registry.to_json(indent=2) + "\n"
            )
    if telemetry is not None:
        provenance = tracer.provenance if tracer is not None else None
        log = AlertLog()
        log.evaluate(telemetry.series, rules, provenance=provenance)
        jsonl = log.to_jsonl()
        print(
            f"[slo: {len(telemetry.series)} frames, {len(rules)} rules, "
            f"{len(log)} transitions]"
        )
        if jsonl:
            print(jsonl, end="")
        health = (
            render_health_table(telemetry.series, rules, log)
            if args.health
            else None
        )
        if health is not None:
            print(health)
        if args.out is not None:
            (args.out / "slo_alerts.jsonl").write_text(jsonl)
            (args.out / "slo_frames.json").write_text(
                telemetry.to_json(indent=2) + "\n"
            )
            if health is not None:
                (args.out / "slo_health.txt").write_text(health + "\n")
    if tracer is not None and len(tracer):
        write_chrome_trace(tracer, str(args.trace))
        print(f"[trace: {len(tracer)} spans -> {args.trace}]")
        if args.trace_provenance:
            provenance_path = args.trace.with_suffix(".provenance.json")
            provenance_path.write_text(spans_to_json(tracer) + "\n")
            print(
                f"[provenance: "
                f"{len(tracer.provenance) if tracer.provenance else 0} "
                f"records -> {provenance_path}]"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
