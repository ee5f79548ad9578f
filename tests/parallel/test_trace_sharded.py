"""Cross-worker trace merge determinism.

There is one shard per pool worker, so the merged span set — IDs,
parentage, attributes, and provenance payloads; wall-clock timestamps
excluded — is a function of the trace seed, the stream and the pool
size.  At each of 1, 2 and 4 workers it is identical whether the shards
run in worker processes or in-process, and the traced sink still equals
the untraced ``run_batched`` one.
"""

import json
import pickle

import numpy as np

from repro.core.dfsample import DfSized
from repro.distributions.gaussian import GaussianDistribution
from repro.experiments.fig5_throughput import _AnalyticAccuracy
from repro.obs.export import spans_to_json
from repro.obs.trace import TraceConfig, Tracer
from repro.streams.engine import Pipeline
from repro.streams.groupby import GroupedAggregate
from repro.streams.operators import CollectSink
from repro.streams.tuples import UncertainTuple
from tests.parallel.conftest import WORKER_COUNTS, InProcessPool

SEED = 3


def _tuples(n=96, seed=0):
    rng = np.random.default_rng(seed)
    return [
        UncertainTuple(
            {
                "sensor": int(rng.integers(5)),
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


def _pipeline(tracer=None):
    return Pipeline(
        [
            GroupedAggregate("sensor", "reading", window_size=10),
            _AnalyticAccuracy("avg"),
            CollectSink(),
        ],
        tracer=tracer,
    )


def _merged_deterministic_dump(pool, tuples, trace_config=None):
    tracer = Tracer(trace_config or TraceConfig(seed=SEED))
    pipeline = _pipeline(tracer)
    sink = pipeline.run_sharded(tuples, "sensor", pool)
    return tracer, sink, spans_to_json(tracer, deterministic=True)


class TestMergedTraceDeterminism:
    def test_identical_merged_trace_at_1_2_4_workers(self, pools):
        tuples = _tuples()
        plain = [
            pickle.dumps(t) for t in _pipeline().run_batched(tuples).results
        ]
        for workers in WORKER_COUNTS:
            tracer, sink, dump = _merged_deterministic_dump(
                pools[workers], tuples
            )
            assert len(tracer) > 0
            assert len(tracer.provenance) > 0
            _, _, twin = _merged_deterministic_dump(
                InProcessPool(workers), tuples
            )
            assert dump == twin, f"merged trace diverged at {workers} workers"
            # Tracing never perturbs the merged output.
            assert [pickle.dumps(t) for t in sink.results] == plain

    def test_every_shard_contributes_spans_and_records(self, pools):
        tracer, _, dump = _merged_deterministic_dump(pools[2], _tuples())
        payload = json.loads(dump)
        span_shards = {span["shard"] for span in payload["spans"]}
        record_shards = {
            record["shard"] for record in payload["provenance"]
        }
        expected = {"shard0", "shard1"}
        assert span_shards == expected
        assert record_shards == expected
        # Each worker ran the batched path: one run span per shard with
        # its stage spans parented to it.
        runs = [s for s in tracer.spans if s.kind == "run"]
        assert len(runs) == 2
        run_ids = {s.span_id for s in runs}
        stages = [s for s in tracer.spans if s.kind == "stage"]
        assert len(stages) == 3 * 2
        assert all(s.parent_id in run_ids for s in stages)

    def test_span_ids_distinct_across_shards(self, pools):
        tracer, _, _ = _merged_deterministic_dump(pools[4], _tuples())
        ids = [span.span_id for span in tracer.spans]
        assert len(ids) == len(set(ids))

    def test_explain_works_on_merged_trace(self, pools):
        # Worker payloads were re-pickled, so lookup relies on the
        # content-fingerprint fallback rather than object identity.
        tracer, sink, _ = _merged_deterministic_dump(pools[2], _tuples())
        text = tracer.explain(sink.results[-1])
        assert "accuracy provenance" in text
        assert "AnalyticAccuracy" in text

    def test_sampled_trace_is_still_worker_count_invariant(self, pools):
        # Sampling decisions depend on (seed, shard label, seq) only, so
        # where a shard runs never changes which spans are kept.
        tuples = _tuples()
        config = TraceConfig(seed=SEED, sample_rate=0.3)
        for workers in WORKER_COUNTS:
            dump = _merged_deterministic_dump(pools[workers], tuples, config)
            twin = _merged_deterministic_dump(
                InProcessPool(workers), tuples, config
            )
            assert dump[2] == twin[2]
            kept = len(json.loads(dump[2])["provenance"])
            assert 0 < kept < len(tuples)

    def test_trace_seed_changes_ids_but_not_shape(self, pools):
        tuples = _tuples()
        first, _, _ = _merged_deterministic_dump(
            pools[2], tuples, TraceConfig(seed=1)
        )
        second, _, _ = _merged_deterministic_dump(
            pools[2], tuples, TraceConfig(seed=2)
        )
        shape = lambda tracer: sorted(
            (s.shard, s.seq, s.name, s.kind) for s in tracer.spans
        )
        assert shape(first) == shape(second)
        assert {s.span_id for s in first.spans}.isdisjoint(
            {s.span_id for s in second.spans}
        )
