"""A/B timings behind docs/PARALLELISM.md: does process parallelism pay?

Two measurements.  Each runs one pair of timings per seed, alternates
which arm goes first (arm A on even seeds, arm B on odd seeds), and
reports per configuration the median and interquartile range of the
per-seed throughput ratio B/A.  Both use ``WORKERS`` processes: the
shard count, capped at ``available_cpus()``.  In each arm, one untimed
warm-up run comes first, and then the best of ``REPEATS`` timed runs
is reported (tuples/s):

* ``sharded`` — the Fig 5(c)/(f) pipelines (``fig5c_pipelines`` /
  ``fig5f_pipelines``) over ``N_ITEMS`` stream items.  Arm A is
  1-process ``Pipeline.run_batched``; arm B is ``Pipeline.run_sharded``
  with ``N_SHARDS`` round-robin shards.  Both arms take a columnar
  source.  Arm B's warm-up also starts the pool.
* ``montecarlo`` — a bootstrap SQL query (``SELECT speed FROM s`` over
  learned Gaussians).  Arm A is ``ExecutorConfig(parallel=None)``; arm B
  is ``parallel=ParallelConfig(n_workers=WORKERS)``.  Arm B's warm-up
  also starts the pool.  It runs at the default budget
  (``mc_samples=1000``: one chunk per field, 2,000 rows) and at
  ``mc_samples=262144`` (four ``DEFAULT_CHUNK_SIZE`` chunks per field,
  24 rows).

Run from the repository root::

    PYTHONPATH=src python benchmarks/ab_parallel.py sharded --seeds 30
    PYTHONPATH=src python benchmarks/ab_parallel.py montecarlo --seeds 10

Prints one JSON line per pair, then the summary table.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from collections import defaultdict

import numpy as np

from repro import (
    DfSized,
    ExecutorConfig,
    GaussianDistribution,
    ParallelConfig,
    QueryExecutor,
    UncertainTuple,
    available_cpus,
    measure_throughput,
)
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


def _mc_rows(n: int) -> list[UncertainTuple]:
    return [
        UncertainTuple(
            {"speed": DfSized(GaussianDistribution(50.0 + i % 10, 4.0), 20)}
        )
        for i in range(n)
    ]


def _time_query(config: ExecutorConfig, rows) -> float:
    executor = QueryExecutor("SELECT speed FROM s", config=config)
    try:
        executor.execute(rows)
        best = 0.0
        for _ in range(REPEATS):
            start = time.perf_counter()
            executor.execute(rows)
            best = max(best, len(rows) / (time.perf_counter() - start))
        return best
    finally:
        executor.close()


def _montecarlo_pairs(seeds: int):
    scales = (
        ("mc_samples=1000", 2000, 1000),
        ("mc_samples=262144", 24, 262144),
    )
    for seed in range(seeds):
        for label, n_rows, mc_samples in scales:
            rows = _mc_rows(n_rows)
            arms = {
                "A": ExecutorConfig(
                    seed=seed, accuracy_method="bootstrap",
                    mc_samples=mc_samples,
                ),
                "B": ExecutorConfig(
                    seed=seed, accuracy_method="bootstrap",
                    mc_samples=mc_samples,
                    parallel=ParallelConfig(n_workers=WORKERS),
                ),
            }
            yield label, seed, {
                arm: _time_query(arms[arm], rows)
                for arm in ("AB" if seed % 2 == 0 else "BA")
            }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("what", choices=("sharded", "montecarlo"))
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    pairs = _sharded_pairs if args.what == "sharded" else _montecarlo_pairs
    ratios: dict[str, list[float]] = defaultdict(list)
    for config, seed, rates in pairs(args.seeds):
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
