"""The rolling operators under sharded execution.

A keyed rolling GROUP BY (``GroupedAggregate`` partitioned by its key)
runs each group's drift-guarded kernel on exactly the members a serial
run gives it, so the sharded sink equals ``run_batched`` at any worker
count.  The global rolling operators (RollingLearnOperator, min/max
WindowAggregate) need the whole stream in order: sharding refuses them
before any worker starts.
"""

import pickle

import numpy as np
import pytest

from repro.core.dfsample import DfSized
from repro.distributions.gaussian import GaussianDistribution
from repro.errors import StreamError
from repro.streams.engine import Pipeline
from repro.streams.groupby import GroupedAggregate
from repro.streams.operators import (
    CollectSink,
    RollingLearnOperator,
    WindowAggregate,
)
from repro.streams.tuples import UncertainTuple
from tests.parallel.conftest import WORKER_COUNTS


def _raw_tuples(n=160, seed=7):
    rng = np.random.default_rng(seed)
    return [
        UncertainTuple(
            {
                "sensor": int(rng.integers(5)),
                # Mixed magnitudes so the compensated sums actually work.
                "obs": float(rng.normal(0.0, 1.0) * 10.0 ** rng.integers(6)),
                "seq": i,
            }
        )
        for i in range(n)
    ]


def _dist_tuples(n=160, seed=7):
    rng = np.random.default_rng(seed)
    return [
        UncertainTuple(
            {
                "sensor": int(rng.integers(5)),
                "reading": DfSized(
                    GaussianDistribution(
                        float(rng.normal(100.0, 40.0)),
                        float(rng.uniform(0.5, 4.0)),
                    ),
                    int(rng.integers(5, 50)),
                ),
                "seq": i,
            }
        )
        for i in range(n)
    ]


# Module-level factories so the pipelines pickle into spawn workers.
def _learn_pipeline():
    return Pipeline(
        [
            RollingLearnOperator("obs", window_size=12, resum_interval=16),
            CollectSink(),
        ]
    )


def _minmax_pipeline(agg):
    return Pipeline(
        [
            WindowAggregate("reading", 10, agg=agg, resum_interval=16),
            CollectSink(),
        ]
    )


def _grouped_min_pipeline():
    return Pipeline(
        [
            GroupedAggregate(
                key="sensor",
                attribute="reading",
                window_size=6,
                agg="min",
                resum_interval=16,
            ),
            CollectSink(),
        ]
    )


def _element_bytes(results):
    return [pickle.dumps(tup) for tup in results]


class TestRollingWorkerCountInvariance:
    def test_rolling_learn_invariant_across_workers(self, pools):
        # One global window over the stream: refused at every pool size.
        tuples = _raw_tuples()
        for workers in WORKER_COUNTS:
            pipeline = _learn_pipeline()
            with pytest.raises(StreamError, match="RollingLearnOperator"):
                pipeline.run_sharded(tuples, "sensor", pools[workers])
            assert pipeline.sink.results == []

    def test_minmax_aggregate_invariant_across_workers(self, pools):
        tuples = _dist_tuples()
        for agg in ("min", "max"):
            for workers in WORKER_COUNTS:
                with pytest.raises(StreamError, match="WindowAggregate"):
                    _minmax_pipeline(agg).run_sharded(
                        tuples, "sensor", pools[workers]
                    )

    def test_grouped_min_partitioned_matches_serial(self, pools):
        # Partitioned by the group key, shard-local rolling state equals
        # global state: the sharded run must equal the serial run.
        tuples = _dist_tuples()
        expected = _element_bytes(
            _grouped_min_pipeline().run_batched(tuples, 32).results
        )
        for workers in WORKER_COUNTS:
            sink = _grouped_min_pipeline().run_sharded(
                tuples, "sensor", pools[workers]
            )
            assert _element_bytes(sink.results) == expected, (
                f"grouped min diverged at n_workers={workers}"
            )

    def test_rolling_learn_batched_matches_serial_run(self):
        # run() (scalar accuracy path) vs run_batched() (vectorized
        # Theorem-1 path): byte-identical.
        tuples = _raw_tuples()
        serial = _element_bytes(_learn_pipeline().run(tuples).results)
        batched = _element_bytes(
            _learn_pipeline().run_batched(tuples, 32).results
        )
        assert batched == serial
