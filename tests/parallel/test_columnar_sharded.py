"""Byte-identical sinks for the columnar sharded transport.

The tentpole contract: switching the sharded path from pickled tuple
lists to columnar shared-memory payloads changes *nothing* about sink
contents — fixed seed + pinned ``n_shards`` gives byte-identical
results (per-element ``pickle.dumps``) at 1, 2, and 4 workers, on the
Fig 5(c) accuracy workload and on a keyed :class:`GroupedAggregate`
workload, and identical to the legacy tuple-list transport.
"""

import pickle

import numpy as np

from repro.core.dfsample import DfSized
from repro.distributions.gaussian import GaussianDistribution
from repro.experiments.fig5_throughput import (
    _AnalyticAccuracy,
    _LearnGaussian,
    make_stream,
)
from repro.streams.columnar import ColumnarBatch
from repro.streams.engine import Pipeline
from repro.streams.groupby import GroupedAggregate
from repro.streams.operators import CollectSink, SlidingGaussianAverage
from repro.streams.tuples import UncertainTuple

N_SHARDS = 4
WORKER_COUNTS = (1, 2, 4)


def _fig5c_pipeline():
    # The Fig 5(c) "analytic" configuration, scaled down: learn a
    # Gaussian per item, slide a window average, attach Lemma-2
    # accuracy, collect.
    return Pipeline(
        [
            _LearnGaussian("points", "value"),
            SlidingGaussianAverage("value", window_size=40),
            _AnalyticAccuracy("avg"),
            CollectSink(),
        ]
    )


def _grouped_tuples(n=160, n_sensors=5, seed=7):
    rng = np.random.default_rng(seed)
    return [
        UncertainTuple(
            {
                "sensor": int(rng.integers(n_sensors)),
                "reading": DfSized(
                    GaussianDistribution(
                        float(rng.normal(50.0, 10.0)),
                        float(rng.uniform(1.0, 9.0)),
                    ),
                    int(rng.integers(10, 40)),
                ),
                "seq": i,
            }
        )
        for i in range(n)
    ]


def _grouped_pipeline():
    return Pipeline(
        [
            GroupedAggregate(
                key="sensor", attribute="reading", window_size=8, agg="avg"
            ),
            CollectSink(),
        ]
    )


def _element_bytes(results):
    return [pickle.dumps(tup) for tup in results]


class TestFig5cWorkload:
    def test_worker_count_invariant(self):
        # The 240x20 points matrix is large enough per shard to cross
        # the shared-memory threshold, so multi-worker rounds exercise
        # the SharedSpec transport end to end.
        tuples = make_stream(240, seed=11)

        def run(workers):
            sink = _fig5c_pipeline().run_sharded(
                tuples, n_workers=workers, n_shards=N_SHARDS, seed=5
            )
            return _element_bytes(sink.results)

        baseline = run(1)
        assert baseline  # the window emits on every arrival
        for workers in WORKER_COUNTS[1:]:
            assert run(workers) == baseline, (
                f"fig5c sink diverged at n_workers={workers}"
            )

    def test_matches_legacy_tuple_transport(self, monkeypatch):
        # Forcing as_columnar to fail in the sharded driver reinstates
        # the pickled-tuple-list transport; sinks must not change.
        tuples = make_stream(160, seed=2)
        columnar = _element_bytes(
            _fig5c_pipeline()
            .run_sharded(tuples, n_workers=1, n_shards=N_SHARDS, seed=5)
            .results
        )
        import repro.parallel.sharded as sharded_module

        monkeypatch.setattr(
            sharded_module, "as_columnar", lambda source: None
        )
        legacy = _element_bytes(
            _fig5c_pipeline()
            .run_sharded(tuples, n_workers=1, n_shards=N_SHARDS, seed=5)
            .results
        )
        assert columnar == legacy

    def test_merged_sink_stays_columnar(self):
        tuples = make_stream(120, seed=3)
        pipeline = _fig5c_pipeline()
        sink = pipeline.run_sharded(
            tuples, n_workers=1, n_shards=N_SHARDS, seed=5
        )
        merged = sink.columnar_result()
        assert isinstance(merged, ColumnarBatch)
        assert len(merged) == len(sink.results)


class TestGroupedWorkload:
    def test_matches_per_tuple_serial_run(self):
        # Keyed partitioning makes shard-local group state equal global
        # group state, so the sharded columnar run must reproduce the
        # per-tuple serial path byte for byte — at every worker count.
        tuples = _grouped_tuples()
        expected = _element_bytes(_grouped_pipeline().run(tuples).results)
        assert len(expected) == len(tuples)
        for workers in WORKER_COUNTS:
            sink = _grouped_pipeline().run_sharded(
                tuples,
                n_workers=workers,
                partition_by="sensor",
                n_shards=N_SHARDS,
                seed=5,
            )
            assert _element_bytes(sink.results) == expected, (
                f"grouped sink diverged at n_workers={workers}"
            )

    def test_grouped_merge_is_columnar_interleave(self):
        tuples = _grouped_tuples(80)
        sink = _grouped_pipeline().run_sharded(
            tuples,
            n_workers=1,
            partition_by="sensor",
            n_shards=N_SHARDS,
            seed=5,
        )
        merged = sink.columnar_result()
        assert isinstance(merged, ColumnarBatch)
        assert [t.value("sensor") for t in merged] == [
            t.value("sensor") for t in tuples
        ]
