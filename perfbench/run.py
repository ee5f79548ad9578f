"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sql_ingest --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics on unmodified code;
``--trace 1`` measures half the time untraced and half with span
wrappers installed, and prints the per-layer metrics, the traced wall
time no layer span covers, and the trace overhead.  Human-readable
tables go first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The full record
(environment, sample counts, percentiles named) is written to
``perfbench/results/``.

Timings are reported at a nominal host speed.  On a shared host the
same code can run up to twice as fast or as slow from one minute to
the next.  A fixed probe (pure-Python and NumPy work that
involves no ``repro`` code) is timed after every call, outside the
timed region, and every timing is scaled by ``PROBE_NOMINAL_MS`` over
the median of the probe times nearest to it.  The raw timings and the
probe times are in the record.

Load model: closed loop, one caller thread.  Each call is issued after
the previous one returns and every layer runs in the caller's thread,
so ingest throughput is the sustainable input rate.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

#: Tail percentiles, fixed so that a faster program is compared at the
#: same percentile as its parent.  The timed phase goes on past
#: ``--seconds`` (up to ``OVERTIME`` times as long) until at least
#: ``TAIL_MIN_BEYOND`` samples lie beyond each; the run records the
#: count and warns if it still falls short.
INGEST_TAIL = 95.0
READ_TAIL = 90.0
TAIL_MIN_BEYOND = 10
OVERTIME = 3.0


def min_samples(tail: float) -> int:
    """Samples needed for ``TAIL_MIN_BEYOND`` beyond the ``tail``-th
    percentile."""
    return math.ceil(TAIL_MIN_BEYOND * 100.0 / (100.0 - tail)) + 1


#: Host-speed probe: a probe follows every timed call, and the call's
#: time is scaled to a host on which one probe takes
#: ``PROBE_NOMINAL_MS``, using the median of the probes that follow the
#: ``PROBE_RADIUS`` calls before it, itself, and the ``PROBE_RADIUS``
#: calls after it.
PROBE_NOMINAL_MS = 2.0
PROBE_RADIUS = 3
_probe_rng = numpy.random.default_rng(0)
_PROBE_VALUES = _probe_rng.random(8192)
_PROBE_RECORDS = [{"x": float(i)} for i in range(16384)]
_PROBE_ORDER = [int(k) for k in _probe_rng.permutation(16384)[:1500]]

#: End-to-end metrics: name -> (unit, better).  Every workload reports
#: all of them.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "tuples_per_s": ("tuples/s", "higher"),
    "ingest_p50_ms": ("ms", "lower"),
    "ingest_tail_ms": ("ms", "lower"),
    "read_p50_ms": ("ms", "lower"),
    "read_tail_ms": ("ms", "lower"),
    "ci_width_mean": ("value", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "state_bytes": ("bytes", "lower"),
}


def _import_program() -> None:
    """Make the checkout's ``src`` importable; fail without it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        sys.exit(f"error: imported repro from {repro.__file__}, not {src}")


def git_sha() -> "str | None":
    """HEAD of the checkout when it is a git work tree, else ``None``."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(),
    }


def probe_ms() -> float:
    """Time of a fixed piece of work that runs no program code: how fast
    the host runs now.  It mixes what the workloads spend their time on:
    interpreter arithmetic and dict stores, scattered object reads, a
    NumPy sort and many small NumPy calls."""
    start = time.perf_counter()
    total = 0.0
    table: dict[int, float] = {}
    for i in range(3000):
        total += i * i
        table[i & 63] = total
    for k in _PROBE_ORDER:
        total += _PROBE_RECORDS[k]["x"]
    numpy.sort(_PROBE_VALUES)
    head = _PROBE_VALUES[:64]
    for _ in range(12):
        numpy.histogram(head, bins=8)
    return (time.perf_counter() - start) * 1e3


def scaled(samples: list[float], probes: list[float]) -> list[float]:
    """``samples[k]`` at the nominal host speed; ``probes[k]`` is the
    probe taken right after it."""
    out = []
    for k, sample in enumerate(samples):
        near = probes[max(0, k - PROBE_RADIUS) : k + PROBE_RADIUS + 1]
        out.append(sample * PROBE_NOMINAL_MS / statistics.median(near))
    return out


def summary(samples: list[float], tail: float) -> dict:
    """Median and fixed tail of latency samples (seconds -> ms)."""
    if not samples:
        raise RuntimeError("the timed phase made no calls")
    p50, cut = numpy.percentile(samples, [50.0, tail])
    beyond = sum(1 for s in samples if s > cut)
    return {
        "samples": len(samples),
        "p50_ms": float(p50) * 1e3,
        "tail_percentile": tail,
        "tail_ms": float(cut) * 1e3,
        "beyond_tail": beyond,
        "tail_ok": beyond >= TAIL_MIN_BEYOND,
    }


class Phase:
    """Closed-loop calls for a fixed wall time, with per-call checks."""

    def __init__(self, workload, system, first_call: int, recorder=None):
        self.workload = workload
        self.system = system
        self.next_call = first_call
        self.next_read = 0
        self.recorder = recorder
        self.ingest_s: list[float] = []
        self.read_s: list[float] = []
        #: The probe after each ingest call and read; the latest probe.
        self.ingest_probe: list[float] = []
        self.read_probe: list[float] = []
        self.probe = 0.0
        self.tuples = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _checked(self, call, check) -> "tuple[float, object]":
        """Time ``call()``; count it, and count it failed when it raises
        or ``check(result)`` is false."""
        self.attempted += 1
        if self.recorder is not None:
            self.recorder.batch_id = self.attempted
        start = time.perf_counter()
        try:
            result = call()
        except Exception:  # noqa: BLE001 - a failed call is a data point
            elapsed = time.perf_counter() - start
            self.probe = probe_ms()
            self.failed += 1
            self.errors.append(traceback.format_exc(limit=3))
            return elapsed, None
        elapsed = time.perf_counter() - start
        self.probe = probe_ms()
        try:
            ok = check(result)
        except Exception:  # noqa: BLE001 - a raising check is a failure
            ok = False
            self.errors.append(traceback.format_exc(limit=3))
        self.failed += not ok
        return elapsed, result

    def run(self, seconds: float, full_tails: bool = False) -> None:
        """Closed-loop calls for ``seconds``; with ``full_tails``, on
        until both tails have enough samples beyond them."""
        wl, system = self.workload, self.system
        start = time.perf_counter()
        need_ingest = min_samples(INGEST_TAIL) if full_tails else 0
        need_reads = min_samples(READ_TAIL) if full_tails else 0
        while (now := time.perf_counter()) < start + seconds or (
            (len(self.ingest_s) < need_ingest or len(self.read_s) < need_reads)
            and now < start + OVERTIME * seconds
        ):
            i = self.next_call
            elapsed, n = self._checked(
                lambda: wl.ingest(system, i),
                lambda _n: wl.check_ingest(system, i),
            )
            self.ingest_s.append(elapsed)
            self.ingest_probe.append(self.probe)
            self.tuples += n or 0
            self.next_call += 1
            if self.next_call % wl.read_every == 0:
                j = self.next_read
                elapsed, _rows = self._checked(
                    lambda: wl.read(system, j),
                    lambda rows: wl.check_read(system, j, rows),
                )
                self.read_s.append(elapsed)
                self.read_probe.append(self.probe)
                self.next_read += 1

    def finish_cycle(self) -> None:
        """Untimed, checked ingest calls up to the next pass boundary of
        the input pool, so that end-of-run state is taken at a stream
        position that repeats, however far the timed phase got."""
        wl, system = self.workload, self.system
        while self.next_call % wl.cycle:
            i = self.next_call
            self._checked(
                lambda: wl.ingest(system, i),
                lambda _n: wl.check_ingest(system, i),
            )
            self.next_call += 1

    @property
    def ingest_scaled(self) -> list[float]:
        """Ingest latencies at the nominal host speed."""
        return scaled(self.ingest_s, self.ingest_probe)

    @property
    def read_scaled(self) -> list[float]:
        return scaled(self.read_s, self.read_probe)

    @property
    def busy_s(self) -> float:
        return sum(self.ingest_s) + sum(self.read_s)

    @property
    def tuples_per_s(self) -> float:
        """Tuples ÷ time inside the ingest calls, at the nominal speed."""
        ingest = sum(self.ingest_scaled)
        return self.tuples / ingest if ingest else 0.0

    @property
    def raw_tuples_per_s(self) -> float:
        ingest = sum(self.ingest_s)
        return self.tuples / ingest if ingest else 0.0


def set_up(workload) -> "tuple[object, list[float], list[float]]":
    """Build the system ``workload.setup_repeats`` times (a fixed count,
    so that every run's median covers the same builds); return the last
    one and the build times, scaled to the nominal host speed and raw."""
    times: list[float] = []
    probes: list[float] = []
    for _ in range(workload.setup_repeats):
        # Free the previous build outside the timed region, so that
        # every build starts with the same collector state.
        system = None
        gc.collect()
        start = time.perf_counter()
        system = workload.build()
        times.append(time.perf_counter() - start)
        probes.append(probe_ms())
    return system, scaled(times, probes), times


def measure(workload, seconds: float, trace: bool) -> dict:
    """One run of ``workload``: set-up, warm-up, timed phase(s).

    Returns ``correct``/``attempted``/``failed``, the metrics, a record
    of sample counts, and (traced runs) the span recorder.
    """
    # The input pool and its oracle are benchmark scaffolding that lives
    # for the whole run.  Frozen, they stay out of the collector's full
    # scans, which otherwise add pauses of tens of milliseconds to random
    # calls; the system's own objects are collected as usual.
    gc.collect()
    gc.freeze()
    try:
        return _measure(workload, seconds, trace)
    finally:
        gc.unfreeze()


def _measure(workload, seconds: float, trace: bool) -> dict:
    recorder = None
    system, setup_times, setup_raw = set_up(workload)
    warm = workload.warmup(system)
    record: dict = {
        "setup_repeats": len(setup_times),
        "setup_s_all": setup_times,
        "setup_raw_s_all": setup_raw,
        "warmup_checks": warm.attempted,
        "ci_width_samples": len(warm.ci_widths),
        "result_digest": warm.digest,
        "input_digest": workload.input_digest(),
    }
    phase = Phase(workload, system, first_call=warm.calls)
    attempted, failed = warm.attempted, warm.failed
    if not trace:
        phase.run(seconds, full_tails=True)
        ingest = summary(phase.ingest_scaled, INGEST_TAIL)
        read = summary(phase.read_scaled, READ_TAIL)
        for label, tail in (("ingest", ingest), ("read", read)):
            if not tail["tail_ok"]:
                print(
                    f"warning: only {tail['beyond_tail']} {label} samples "
                    f"beyond p{tail['tail_percentile']:g}",
                    file=sys.stderr,
                )
        metrics = {
            "setup_s": statistics.median(setup_times),
            "tuples_per_s": phase.tuples_per_s,
            "ingest_p50_ms": ingest["p50_ms"],
            "ingest_tail_ms": ingest["tail_ms"],
            "read_p50_ms": read["p50_ms"],
            "read_tail_ms": read["tail_ms"],
            "ci_width_mean": statistics.fmean(warm.ci_widths),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        }
        timed_calls = phase.next_call
        phase.finish_cycle()
        metrics["state_bytes"] = float(workload.state_bytes(system))
        record |= {
            "ingest": ingest,
            "read": read,
            "raw": {
                "setup_s": statistics.median(setup_raw),
                "tuples_per_s": phase.raw_tuples_per_s,
                "ingest": summary(phase.ingest_s, INGEST_TAIL),
                "read": summary(phase.read_s, READ_TAIL),
            },
            "phases": [_phase_record(phase)],
            "timed_calls": timed_calls,
            "state_at_call": phase.next_call,
        }
        attempted += phase.attempted
        failed += phase.failed
        errors = phase.errors
    else:
        metrics, trace_record, traced, recorder = _traced(
            workload, system, phase, seconds
        )
        record |= trace_record
        attempted += phase.attempted + traced.attempted
        failed += phase.failed + traced.failed
        errors = phase.errors + traced.errors
    record["failed_frac"] = failed / attempted
    record["errors"] = errors[:5]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "record": record,
        "recorder": recorder,
    }


def _phase_record(phase: Phase) -> dict:
    return {
        "ingest_calls": len(phase.ingest_s),
        "reads": len(phase.read_s),
        "tuples": phase.tuples,
        "busy_s": phase.busy_s,
        "tuples_per_s": phase.tuples_per_s,
        "raw_tuples_per_s": phase.raw_tuples_per_s,
        "ingest_ms": [round(s * 1e3, 4) for s in phase.ingest_s],
        "read_ms": [round(s * 1e3, 4) for s in phase.read_s],
        "ingest_probe_ms": [round(p, 4) for p in phase.ingest_probe],
        "read_probe_ms": [round(p, 4) for p in phase.read_probe],
    }


def _traced(workload, system, untraced: Phase, seconds: float):
    """Half the time untraced, then a traced set-up and half traced."""
    import layers
    from tracing import SpanRecorder, traced

    untraced.run(seconds / 2.0)
    recorder = SpanRecorder()
    traced_phase = Phase(
        workload, system, untraced.next_call, recorder=recorder
    )
    traced_phase.next_read = untraced.next_read
    before = workload.layer_counts(system)
    with traced(recorder, layers.targets()) as missing:
        start = time.perf_counter()
        built = workload.build()
        setup_traced_s = time.perf_counter() - start
        build_counts = workload.layer_counts(built)
        del built
        traced_phase.run(seconds / 2.0)
    after = workload.layer_counts(system)
    for key in ("plan_cache.hits", "plan_cache.misses"):
        if key in build_counts:
            after[key] = build_counts[key]
    table = recorder.layer_table()
    wall = setup_traced_s + traced_phase.busy_s
    uncovered = wall - recorder.root_seconds()
    metrics = layers.layer_metrics(table, recorder.counts, before, after)
    metrics["trace.wall_s"] = wall
    metrics["trace.uncovered_s"] = uncovered
    untraced_rate = untraced.tuples_per_s
    traced_rate = traced_phase.tuples_per_s
    metrics["trace.overhead"] = (
        untraced_rate / traced_rate - 1.0 if traced_rate else 0.0
    )
    metrics["trace.spans"] = float(len(recorder))
    record = {
        "phases": [_phase_record(untraced), _phase_record(traced_phase)],
        "layer_table": table,
        "unwrapped": missing,
        "setup_traced_s": setup_traced_s,
    }
    return metrics, record, traced_phase, recorder


def print_tables(name: str, result: dict, trace: bool, units: dict) -> None:
    record = result["record"]
    print(f"# workload {name}: {result['attempted']} calls checked, "
          f"{result['failed']} failed "
          f"(failed_frac {record['failed_frac']:.4g})")
    for key, value in result["metrics"].items():
        print(f"{key:48s} {value:16.6g} {units[key][0]}")
    if trace:
        wall = result["metrics"]["trace.wall_s"]
        print(f"# per-layer self time, traced wall {wall:.3f} s")
        rows = sorted(
            record["layer_table"].items(), key=lambda kv: -kv[1]["self_s"]
        )
        for span, row in rows:
            share = row["self_s"] / wall if wall else 0.0
            print(f"{span:48s} {row['calls']:10d} calls "
                  f"{row['self_s']:10.4f} s {share:7.1%}")
        uncovered = result["metrics"]["trace.uncovered_s"]
        print(f"{'(not covered by any layer span)':48s} {'':16s} "
              f"{uncovered:10.4f} s {uncovered / wall if wall else 0:7.1%}")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}"
        )
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload](args.seed)
    trace = bool(args.trace)
    result = measure(workload, args.seconds, trace)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if trace:
        import layers

        units = layers.PER_LAYER
        spans = RESULTS / f"{stem}-spans.npz"
        result["recorder"].write(spans)
        result["record"]["spans_file"] = str(spans.relative_to(ROOT))
    else:
        units = END_TO_END
    record = result["record"] | {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "metrics": {
            k: {"value": v, "unit": units[k][0]}
            for k, v in result["metrics"].items()
        },
    }
    (RESULTS / f"{stem}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n"
    )
    print_tables(args.workload, result, trace, units)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
