"""Bounded-memory sketch synopses vs exact rolling state.

The sketch learners (:mod:`repro.learning.sketch`) exist so that
million-tuple windows and million-key GROUP BYs stop costing O(window)
and O(keys x window) resident bytes.  This benchmark measures both
claims on the shipped operators:

* ``RollingLearnOperator`` with the exact Gaussian learner vs
  ``sketch-quantile`` at window sizes up to 1M tuples — retained state
  bytes (the ``state.bytes`` gauge input) and tuples/sec, with the
  acceptance gate "sketch state is >=10x smaller at window >= 64k"
  while the emitted accuracy stays within the advertised synopsis
  error;
* the interval-width inflation the sketch pays for that memory (mean
  emitted CI width sketch / exact at the same window) — reported, and
  loosely gated so a regression cannot hide;
* a churning GROUP BY over 1M distinct keys (``synopsis="chunked"`` +
  ``expire_after``) run in a subprocess so its peak RSS can be read
  from ``getrusage`` and gated against a CI memory cap.

Results land in ``benchmarks/results/BENCH_sketch.json``.
``SKETCH_SMOKE=1`` shrinks the workload (and the key count to 50k) for
CI smoke runs.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np

from benchmarks.conftest import save_result
from repro.streams.engine import Pipeline
from repro.streams.operators import (
    CollectSink,
    CountingSink,
    RollingLearnOperator,
)
from repro.streams.tuples import UncertainTuple

SMOKE = os.environ.get("SKETCH_SMOKE", "") not in ("", "0")
WINDOW_SIZES = (1_000, 8_000) if SMOKE else (1_000, 64_000, 1_000_000)
#: The window size at which the >=10x memory gate applies.
GATED_WINDOW = 8_000 if SMOKE else 64_000
GROUPBY_KEYS = 50_000 if SMOKE else 1_000_000
#: CI memory cap for the churning GROUP BY child process.
RSS_CAP_MB = 512 if SMOKE else 900


def _stream(n, seed=11):
    rng = np.random.default_rng(seed)
    for x in rng.normal(50.0, 8.0, size=n):
        yield UncertainTuple({"obs": float(x)})


def _rolling_pipeline(window_size, learner, **kwargs):
    return Pipeline(
        [
            RollingLearnOperator(
                "obs",
                window_size=window_size,
                learner=learner,
                emit_partial=False,
                **kwargs,
            ),
            CountingSink(),
        ]
    )


def _measure_rolling(window_size, learner, **kwargs):
    """One pass of 1.25x window tuples: state bytes + tuples/sec."""
    n = window_size + window_size // 4
    pipeline = _rolling_pipeline(window_size, learner, **kwargs)
    start = time.perf_counter()
    pipeline.run(_stream(n))
    elapsed = time.perf_counter() - start
    operator = pipeline.operators[0]
    return operator.state_bytes(), n / elapsed


def _mean_interval_width(window_size, learner, **kwargs):
    op = RollingLearnOperator(
        "obs", window_size=window_size, learner=learner, **kwargs
    )
    sink = CollectSink()
    pipeline = Pipeline([op, sink])
    pipeline.run(_stream(window_size * 2))
    infos = [
        t.value("accuracy")
        for t in sink.results[window_size:]
    ]
    assert infos, "no full-window emissions"
    for info in infos:
        # The memory gate only counts if the certificate survives: every
        # sketch emission must still carry a bounded synopsis error.
        assert 0.0 <= info.synopsis_error <= 1.0
    return float(np.mean([info.mean.length for info in infos]))


# Child workload for the RSS-gated GROUP BY: built tuples are consumed
# immediately (generator), so peak RSS is operator state + interpreter.
_GROUPBY_CHILD = """
import resource, sys, time
import numpy as np
from repro.streams.groupby import GroupedAggregate
from repro.streams.operators import CountingSink
from repro.streams.tuples import UncertainTuple

n_keys = int(sys.argv[1])
op = GroupedAggregate(
    "k", "v", window_size=8, agg="avg", emit_every=False,
    synopsis="chunked", expire_after=8192,
)
op.connect(CountingSink())
rng = np.random.default_rng(29)
values = rng.normal(0.0, 1.0, size=65536)
start = time.perf_counter()
for i in range(n_keys):
    op.receive_many([UncertainTuple({"k": i, "v": float(values[i % 65536])})])
elapsed = time.perf_counter() - start
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(n_keys / elapsed, op.group_count, op.state_bytes(), peak_kb)
"""


def _run_groupby_child(n_keys):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _GROUPBY_CHILD, str(n_keys)],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    rate, live_groups, state_bytes, peak_kb = out.stdout.split()
    return (
        float(rate),
        int(live_groups),
        int(state_bytes),
        float(peak_kb) / 1024.0,
    )


def test_sketch_memory(results_dir):
    records = []
    state = {}

    for window_size in WINDOW_SIZES:
        for config, learner, kwargs in (
            ("exact-gaussian", "gaussian", {}),
            ("sketch-quantile", "sketch-quantile", {"k": 200}),
        ):
            bytes_retained, rate = _measure_rolling(
                window_size, learner, **kwargs
            )
            state[(config, window_size)] = bytes_retained
            records.append(
                {
                    "benchmark": "rolling_window",
                    "config": config,
                    "window_size": window_size,
                    "state_bytes": bytes_retained,
                    "tuples_per_sec": rate,
                }
            )

    inflation_window = WINDOW_SIZES[0]
    exact_width = _mean_interval_width(inflation_window, "gaussian")
    # Size the chunks to the window (32 chunks), as a deployment would:
    # staleness — and with it the interval widening — is ~1/chunks, so
    # the default 512-tuple chunks would be absurdly coarse at 1k.
    sketch_width = _mean_interval_width(
        inflation_window,
        "sketch-quantile",
        k=200,
        chunk_size=max(16, inflation_window // 32),
    )
    inflation = sketch_width / exact_width
    records.append(
        {
            "benchmark": "interval_inflation",
            "window_size": inflation_window,
            "exact_width": exact_width,
            "sketch_width": sketch_width,
            "inflation": inflation,
        }
    )

    group_rate, live_groups, group_state, peak_rss_mb = _run_groupby_child(
        GROUPBY_KEYS
    )
    records.append(
        {
            "benchmark": "groupby_churn",
            "config": "chunked+expire_after",
            "keys": GROUPBY_KEYS,
            "tuples_per_sec": group_rate,
            "live_groups": live_groups,
            "state_bytes": group_state,
            "peak_rss_mb": peak_rss_mb,
        }
    )

    (results_dir / "BENCH_sketch.json").write_text(
        json.dumps(records, indent=1) + "\n"
    )

    lines = ["config            window     state_bytes   tuples/s"]
    for (config, window_size), bytes_retained in sorted(state.items()):
        rate = next(
            r["tuples_per_sec"]
            for r in records
            if r.get("config") == config
            and r.get("window_size") == window_size
        )
        lines.append(
            f"{config:<16} {window_size:>7}  {bytes_retained:>13}  "
            f"{rate:>9.0f}"
        )
    lines.append(
        f"interval inflation @ {inflation_window}: {inflation:.2f}x"
    )
    lines.append(
        f"groupby {GROUPBY_KEYS} keys: {live_groups} live, "
        f"peak RSS {peak_rss_mb:.0f} MB"
    )
    save_result(results_dir, "sketch_memory", "\n".join(lines))

    # The tentpole gates.
    for window_size in WINDOW_SIZES:
        if window_size < GATED_WINDOW:
            continue
        exact = state[("exact-gaussian", window_size)]
        sketch = state[("sketch-quantile", window_size)]
        assert sketch * 10 <= exact, (
            f"sketch state {sketch}B not 10x below exact {exact}B "
            f"at window {window_size}"
        )
    # Sketch state must not grow with the window (bounded-memory claim).
    # Below ~chunk_count x chunk_size the ring is still filling up, so
    # the comparison starts at the gated window: growing the window 16x
    # beyond it must not grow the state more than a small constant (the
    # chunk ring pair-merges; per-sketch size grows logarithmically).
    reference = state[("sketch-quantile", GATED_WINDOW)]
    largest = state[("sketch-quantile", WINDOW_SIZES[-1])]
    assert largest <= reference * 4
    # Memory is bought with interval width; a regression that blows the
    # intervals up by an order of magnitude must not pass silently.
    assert inflation < 20.0
    assert peak_rss_mb < RSS_CAP_MB, (
        f"churning GROUP BY peaked at {peak_rss_mb:.0f} MB "
        f"(cap {RSS_CAP_MB} MB)"
    )
