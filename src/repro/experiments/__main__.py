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
from repro.obs.instrument import Observer
from repro.obs.slo import parse_rule
from repro.obs.timeseries import TelemetryConfig
from repro.obs.trace import TraceConfig


def _experiments(quick: bool, observer: Observer | None = None):
    """(name, callable) pairs for every figure, scaled by --quick."""
    obs = dict(observer=observer)
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
        "--observe", action="store_true",
        help="observe the throughput figures' extra passes (fig5c, "
             "fig5f) and print the per-stage breakdown; with --out, "
             "also write metrics.txt, metrics.json, trace.json (Chrome "
             "trace-event JSON for ui.perfetto.dev) and "
             "trace.provenance.json (spans + accuracy provenance)",
    )
    parser.add_argument(
        "--slo", action="append", default=None, metavar="RULE",
        help="record frames of the throughput figures' observed passes "
             "(fig5c, fig5f), evaluate an SLO rule over them and print "
             "the alert log "
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

    selected = None
    if args.only:
        selected = {name.strip() for name in args.only.split(",")}
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)

    rules = [parse_rule(text) for text in (args.slo or [])]
    observer = None
    if args.observe or args.slo:
        # --slo turns frames on; frames diff the observer's metrics,
        # cut at tuple-count boundaries.
        observer = Observer(
            trace=TraceConfig() if args.observe else None,
            frames=TelemetryConfig() if args.slo else None,
        )
    for name, runner in _experiments(args.quick, observer):
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
    if args.observe and len(observer.metrics):
        _report_observer(observer, args.out)
    if args.slo:
        _report_slo(observer, rules, args.health, args.out)
    return 0


def _report_observer(observer: Observer, out: pathlib.Path | None) -> None:
    """Print the per-stage breakdown; with ``out``, write every export."""
    breakdown = render_metrics_table(observer.metrics)
    print(breakdown)
    tracer = observer.tracer
    print(
        f"[observe: {len(tracer)} spans, {len(tracer.provenance)} "
        f"provenance records]"
    )
    if out is None:
        return
    (out / "metrics.txt").write_text(breakdown + "\n")
    (out / "metrics.json").write_text(
        observer.metrics.to_json(indent=2) + "\n"
    )
    write_chrome_trace(tracer, str(out / "trace.json"))
    (out / "trace.provenance.json").write_text(spans_to_json(tracer) + "\n")


def _report_slo(
    observer: Observer,
    rules: list,
    health: bool,
    out: pathlib.Path | None,
) -> None:
    """Evaluate the SLO rules over the observer's frames and report."""
    frames, tracer = observer.frames, observer.tracer
    provenance = None if tracer is None else tracer.provenance
    log = AlertLog()
    log.evaluate(frames.series, rules, provenance=provenance)
    jsonl = log.to_jsonl()
    print(
        f"[slo: {len(frames.series)} frames, {len(rules)} rules, "
        f"{len(log)} transitions]"
    )
    if jsonl:
        print(jsonl, end="")
    table = render_health_table(frames.series, rules, log) if health else None
    if table is not None:
        print(table)
    if out is not None:
        (out / "slo_alerts.jsonl").write_text(jsonl)
        (out / "slo_frames.json").write_text(frames.to_json(indent=2) + "\n")
        if table is not None:
            (out / "slo_health.txt").write_text(table + "\n")


if __name__ == "__main__":
    sys.exit(main())
