"""A/B timing behind docs/PARALLELISM.md: does keyed sharding pay?

Arm A is ``Pipeline.run_batched``; arm B is ``Pipeline.run_sharded``
partitioned by the group key on one long-lived ``WorkerPool`` of
``min(2, available_cpus())`` workers.  The pipeline is the one shape
sharding accepts that does real per-key work: a chunked keyed GROUP BY
(``GroupedAggregate("sensor", "reading", 16, agg="avg",
synopsis="chunked")``, no TTL) into a ``CollectSink``, over the churning
sensor keys of the ``sketch_stream`` workload (16,384 distinct readings
tiled to ``--tuples``).  Both arms take the same columnar source.

Before timing, one untimed run of each arm starts the pool and checks
that the two sinks are byte-identical, tuple by tuple in order.  Then
``--pairs`` pairs are timed, one run per arm, alternating which arm
goes first (A first in even pairs).  Prints one JSON line per pair,
then the median and interquartile range of the per-pair ratio B/A.

Run from the repository root::

    PYTHONPATH=src python benchmarks/ab_parallel.py --pairs 10
"""

from __future__ import annotations

import argparse
import json
import pathlib
import pickle
import platform
import subprocess
import time

import numpy as np

from repro import (
    CollectSink,
    GroupedAggregate,
    Pipeline,
    UncertainTuple,
    WorkerPool,
    available_cpus,
)
from repro.streams.columnar import as_columnar

POOL_SIZE = 16384
BATCH_SIZE = 256


def _stream(n_tuples: int, seed: int = 0):
    """``sketch_stream``'s drifting readings over churning sensor keys."""
    rng = np.random.default_rng([seed, 3])
    t = np.arange(POOL_SIZE)
    readings = (
        52.0
        + 3.0 * np.sin(2.0 * np.pi * t / 8192)
        + rng.uniform(-14.0, 14.0, POOL_SIZE)
    )
    sensors = (t // 16 + rng.integers(0, 128, POOL_SIZE)) % (POOL_SIZE // 16)
    pool = [
        UncertainTuple({"sensor": int(s), "reading": float(x)})
        for s, x in zip(sensors, readings)
    ]
    tiled = (pool * (n_tuples // POOL_SIZE + 1))[:n_tuples]
    return as_columnar(tiled)


def _pipeline() -> Pipeline:
    return Pipeline(
        [
            GroupedAggregate(
                "sensor", "reading", 16, agg="avg", synopsis="chunked"
            ),
            CollectSink(),
        ]
    )


def _run(arm: str, source, pool: WorkerPool):
    pipeline = _pipeline()
    start = time.perf_counter()
    if arm == "A":
        sink = pipeline.run_batched(source, BATCH_SIZE)
    else:
        sink = pipeline.run_sharded(source, "sensor", pool, BATCH_SIZE)
    return time.perf_counter() - start, sink


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
            cwd=pathlib.Path(__file__).parent,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--tuples", type=int, default=200_000)
    args = parser.parse_args()
    workers = min(2, available_cpus())
    source = _stream(args.tuples)
    ratios = []
    with WorkerPool(workers) as pool:
        _, batched = _run("A", source, pool)
        _, sharded = _run("B", source, pool)
        same = [pickle.dumps(t) for t in batched.results] == [
            pickle.dumps(t) for t in sharded.results
        ]
        del batched, sharded
        if not same:
            raise SystemExit("sharded sink differs from run_batched")
        for pair in range(args.pairs):
            seconds = {}
            for arm in "AB" if pair % 2 == 0 else "BA":
                seconds[arm] = _run(arm, source, pool)[0]
            ratio = seconds["A"] / seconds["B"]
            ratios.append(ratio)
            print(json.dumps({
                "pair": pair,
                "first": "A" if pair % 2 == 0 else "B",
                "A_s": round(seconds["A"], 4),
                "B_s": round(seconds["B"], 4),
                "ratio": round(ratio, 4),
            }), flush=True)
    q1, median, q3 = np.percentile(ratios, [25, 50, 75])
    wins = sum(r > 1.0 for r in ratios)
    print(
        f"\nkeyed GROUP BY, {args.tuples} tuples, workers={workers}, "
        f"cpus={available_cpus()}, python {platform.python_version()}, "
        f"numpy {np.__version__}, git {_git_sha()}; outputs byte-identical"
    )
    print("| shape | median B/A speedup | IQR | B faster |")
    print("|---|---|---|---|")
    print(
        f"| chunked GROUP BY avg, window 16 | {median:.2f}x | "
        f"{q1:.2f}-{q3:.2f} | {wins}/{len(ratios)} |"
    )


if __name__ == "__main__":
    main()
