"""Byte-identical sinks for the columnar sharded transport.

Shipping shards as pickled :class:`ColumnarBatch` columns instead of
pickled tuple lists changes *nothing* about sink contents: the sharded run
equals ``run_batched`` (per-element ``pickle.dumps``) at 1, 2, and 4
workers, on the Fig 5(c) learning + accuracy stages around a keyed
:class:`GroupedAggregate` and on a plain keyed GROUP BY, and equals the
tuple-list transport.
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
from repro.streams.operators import CollectSink
from repro.streams.tuples import UncertainTuple
from tests.parallel.conftest import WORKER_COUNTS


def _fig5c_pipeline():
    # The Fig 5(c) "analytic" configuration with the global sliding
    # window replaced by a per-sensor one (a global window is refused):
    # learn a Gaussian per item, average per sensor, attach Lemma-2
    # accuracy, collect.
    return Pipeline(
        [
            _LearnGaussian("points", "value"),
            GroupedAggregate("sensor", "value", window_size=40),
            _AnalyticAccuracy("avg"),
            CollectSink(),
        ]
    )


def _fig5c_stream(n, seed):
    """The Fig 5(c) stream (raw point vectors) with a sensor key."""
    return [
        UncertainTuple({**tup.attributes, "sensor": tup.value("item") % 6})
        for tup in make_stream(n, seed=seed)
    ]


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
    def test_worker_count_invariant(self, pools):
        # Multi-worker rounds ship each shard's 20-point matrix as one
        # pickled column and bring the sinks back as batches.
        tuples = _fig5c_stream(240, seed=11)
        expected = _element_bytes(
            _fig5c_pipeline().run_batched(tuples, 32).results
        )
        assert len(expected) == len(tuples)
        for workers in WORKER_COUNTS:
            sink = _fig5c_pipeline().run_sharded(
                tuples, "sensor", pools[workers]
            )
            assert _element_bytes(sink.results) == expected, (
                f"fig5c sink diverged at n_workers={workers}"
            )

    def test_matches_legacy_tuple_transport(self, monkeypatch, pools):
        # Forcing as_columnar to fail in the sharded driver reinstates
        # the pickled-tuple-list transport; sinks must not change.
        tuples = _fig5c_stream(160, seed=2)
        columnar = _element_bytes(
            _fig5c_pipeline().run_sharded(tuples, "sensor", pools[2]).results
        )
        import repro.parallel.sharded as sharded_module

        monkeypatch.setattr(
            sharded_module, "as_columnar", lambda source: None
        )
        legacy = _element_bytes(
            _fig5c_pipeline().run_sharded(tuples, "sensor", pools[2]).results
        )
        assert columnar == legacy

    def test_merged_sink_stays_columnar(self, pools):
        tuples = _fig5c_stream(120, seed=3)
        sink = _fig5c_pipeline().run_sharded(tuples, "sensor", pools[1])
        merged = sink.columnar_result()
        assert isinstance(merged, ColumnarBatch)
        assert len(merged) == len(sink.results)


class TestGroupedWorkload:
    def test_matches_per_tuple_serial_run(self, pools):
        # Keyed partitioning makes shard-local group state equal global
        # group state, so the sharded columnar run must reproduce the
        # per-tuple serial path byte for byte — at every worker count.
        tuples = _grouped_tuples()
        expected = _element_bytes(_grouped_pipeline().run(tuples).results)
        assert len(expected) == len(tuples)
        for workers in WORKER_COUNTS:
            sink = _grouped_pipeline().run_sharded(
                tuples, "sensor", pools[workers]
            )
            assert _element_bytes(sink.results) == expected, (
                f"grouped sink diverged at n_workers={workers}"
            )

    def test_grouped_merge_is_columnar_interleave(self, pools):
        tuples = _grouped_tuples(80)
        sink = _grouped_pipeline().run_sharded(tuples, "sensor", pools[4])
        merged = sink.columnar_result()
        assert isinstance(merged, ColumnarBatch)
        assert [t.value("sensor") for t in merged] == [
            t.value("sensor") for t in tuples
        ]
