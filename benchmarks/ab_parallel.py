"""A/B timings behind docs/PARALLELISM.md: does sharded execution pay?

Runs one pair of timings per seed, alternates which arm goes first
(arm A on even seeds, arm B on odd seeds), and reports per
configuration the median and interquartile range of the per-seed
throughput ratio B/A.  Arm B uses ``WORKERS`` processes: the shard
count, capped at ``available_cpus()``.  In each arm, one untimed
warm-up run comes first, and then the best of ``REPEATS`` timed runs
is reported (tuples/s):

* ``sharded`` — the Fig 5(c)/(f) pipelines (``fig5c_pipelines`` /
  ``fig5f_pipelines``) over ``N_ITEMS`` stream items.  Arm A is
  1-process ``Pipeline.run_batched``; arm B is ``Pipeline.run_sharded``
  with ``N_SHARDS`` round-robin shards.  Both arms take a columnar
  source.  Arm B's warm-up also starts the pool.

Run from the repository root::

    PYTHONPATH=src python benchmarks/ab_parallel.py sharded --seeds 30

Prints one JSON line per pair, then the summary table.
"""

from __future__ import annotations

import argparse
import json
import platform
from collections import defaultdict

import numpy as np

from repro import available_cpus, measure_throughput
from repro.experiments.fig5_throughput import (
    BATCH_SIZE,
    N_SHARDS,
    fig5c_pipelines,
    fig5f_pipelines,
    make_stream,
)

N_ITEMS = 8000
REPEATS = 3
WORKERS = min(N_SHARDS, available_cpus())


def _time_fig5(factory, tuples, seed: int, arm: str) -> float:
    if arm == "B":
        # measure_throughput runs its own untimed warm-up on this path.
        return measure_throughput(
            factory, tuples, REPEATS, batch_size=BATCH_SIZE,
            layout="columnar", n_workers=WORKERS, n_shards=N_SHARDS,
            shard_seed=seed,
        )
    # It warms up only the pool path: give the batched arm the same
    # untimed first run.
    measure_throughput(
        factory, tuples, 1, batch_size=BATCH_SIZE, layout="columnar"
    )
    return measure_throughput(
        factory, tuples, REPEATS, batch_size=BATCH_SIZE, layout="columnar"
    )


def _sharded_pairs(seeds: int):
    for seed in range(seeds):
        tuples = make_stream(N_ITEMS, seed)
        pipelines = {
            **{f"5c {k}": v for k, v in fig5c_pipelines(seed).items()},
            # "no predicate" is the same pipeline as "QP only".
            **{
                f"5f {k}": v
                for k, v in fig5f_pipelines().items()
                if k != "no predicate"
            },
        }
        for config, factory in pipelines.items():
            yield config, seed, {
                arm: _time_fig5(factory, tuples, seed, arm)
                for arm in ("AB" if seed % 2 == 0 else "BA")
            }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("what", choices=("sharded",))
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    ratios: dict[str, list[float]] = defaultdict(list)
    for config, seed, rates in _sharded_pairs(args.seeds):
        ratio = rates["B"] / rates["A"]
        ratios[config].append(ratio)
        print(json.dumps({
            "config": config, "seed": seed, "A": rates["A"],
            "B": rates["B"], "ratio": ratio,
        }), flush=True)
    print(
        f"\n{args.what}: workers={WORKERS}, cpus={available_cpus()}, "
        f"python {platform.python_version()}, numpy {np.__version__}, "
        f"seeds={args.seeds}"
    )
    print("| config | median B/A | IQR |")
    print("|---|---|---|")
    for config, values in ratios.items():
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        print(f"| {config} | {median:.2f}x | {q1:.2f}-{q3:.2f} |")


if __name__ == "__main__":
    main()
