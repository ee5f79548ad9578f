"""The sketch synopses under sharded execution.

A chunked GROUP BY partitioned by its key keeps every group's chunk
ring equal to the serial one, so the sharded sink equals
``run_batched`` at any worker count.  The rolling sketch learners hold
one window over the whole stream, and a GROUP BY TTL counts arrivals of
every key: sharding refuses both before any worker starts.
"""

import pickle

import numpy as np
import pytest

from repro.core.dfsample import DfSized
from repro.distributions.gaussian import GaussianDistribution
from repro.errors import StreamError
from repro.streams.engine import Pipeline
from repro.streams.groupby import GroupedAggregate
from repro.streams.operators import CollectSink, RollingLearnOperator
from repro.streams.tuples import UncertainTuple
from tests.parallel.conftest import WORKER_COUNTS


def _raw_tuples(n=200, seed=7):
    rng = np.random.default_rng(seed)
    return [
        UncertainTuple(
            {
                "sensor": int(rng.integers(5)),
                # Mixed magnitudes + ties: the adversarial cases for
                # rank and frequency sketches.
                "obs": float(
                    round(rng.normal(0.0, 1.0), 1) * 10.0 ** rng.integers(3)
                ),
                "seq": i,
            }
        )
        for i in range(n)
    ]


def _dist_tuples(n=200, seed=7):
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
def _quantile_pipeline():
    return Pipeline(
        [
            RollingLearnOperator(
                "obs",
                window_size=24,
                learner="sketch-quantile",
                k=64,
                chunk_size=8,
            ),
            CollectSink(),
        ]
    )


def _frequency_pipeline():
    return Pipeline(
        [
            RollingLearnOperator(
                "obs",
                window_size=24,
                learner="sketch-frequency",
                cm_width=64,
                support_size=8,
                chunk_size=8,
            ),
            CollectSink(),
        ]
    )


def _chunked_groupby_pipeline():
    return Pipeline(
        [
            GroupedAggregate(
                key="sensor",
                attribute="reading",
                window_size=16,
                synopsis="chunked",
            ),
            CollectSink(),
        ]
    )


def _chunked_ttl_pipeline():
    return Pipeline(
        [
            GroupedAggregate(
                key="sensor",
                attribute="reading",
                window_size=16,
                synopsis="chunked",
                expire_after=64,
            ),
            CollectSink(),
        ]
    )


def _element_bytes(results):
    return [pickle.dumps(tup) for tup in results]


class TestSketchWorkerCountInvariance:
    def test_quantile_learner_invariant_across_workers(self, pools):
        # One global sketch window: refused at every pool size.
        tuples = _raw_tuples()
        for workers in WORKER_COUNTS:
            with pytest.raises(StreamError, match="RollingLearnOperator"):
                _quantile_pipeline().run_sharded(
                    tuples, "sensor", pools[workers]
                )

    def test_frequency_learner_invariant_across_workers(self, pools):
        tuples = _raw_tuples()
        for workers in WORKER_COUNTS:
            with pytest.raises(StreamError, match="RollingLearnOperator"):
                _frequency_pipeline().run_sharded(
                    tuples, "sensor", pools[workers]
                )

    def test_chunked_groupby_partitioned_matches_serial(self, pools):
        # Partitioned by the group key, shard-local chunk rings equal the
        # global ones: the sharded run must equal the serial run.
        tuples = _dist_tuples()
        expected = _element_bytes(
            _chunked_groupby_pipeline().run_batched(tuples, 32).results
        )
        for workers in WORKER_COUNTS:
            sink = _chunked_groupby_pipeline().run_sharded(
                tuples, "sensor", pools[workers]
            )
            assert _element_bytes(sink.results) == expected, (
                f"chunked GROUP BY diverged at n_workers={workers}"
            )

    def test_chunked_groupby_with_ttl_invariant_across_workers(self, pools):
        # With expire_after the TTL clock counts arrivals of every key,
        # so a shard that sees only its own keys expires members on
        # another schedule: the sharded output used to differ from
        # run_batched without a warning.  It is refused at every pool
        # size, before the pipeline is pickled or a worker starts.
        tuples = _dist_tuples()
        for workers in WORKER_COUNTS:
            pipeline = _chunked_ttl_pipeline()
            before = pickle.dumps(pipeline)
            with pytest.raises(StreamError, match="whole stream"):
                pipeline.run_sharded(
                    tuples, partition_by="sensor", pool=pools[workers]
                )
            assert pickle.dumps(pipeline) == before
            assert pipeline.sink.results == []

    def test_quantile_learner_batched_matches_serial_run(self):
        tuples = _raw_tuples()
        serial = _element_bytes(_quantile_pipeline().run(tuples).results)
        batched = _element_bytes(
            _quantile_pipeline().run_batched(tuples, 32).results
        )
        assert batched == serial
