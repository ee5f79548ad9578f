"""Sharded observer merge determinism: one ``Observer``, one fold.

A sharded run builds one worker observer per shard (shard label
``shard{i}``) and folds each home with one ``Observer.merge``, in shard
order.  There is one shard per pool worker, so everything the merged
observer holds — the metrics snapshot, the span set (IDs, parentage,
attributes and provenance payloads) and the frame series, all minus
wall-clock fields — is a function of the stream, the configs and the
pool size.  At each of 1, 2 and 4 workers it is identical whether the
shards run in worker processes or in-process, and the observed sink
still equals the unobserved ``run_batched`` one.  The frame series'
own checks (frame folding, SLO evaluations, alert logs) run on the same
fold in ``tests/parallel/test_telemetry_sharded.py``.
"""

import json
import pickle

import numpy as np

from repro.core.coupled import ThreeValued
from repro.core.dfsample import DfSized
from repro.core.predicates import FieldStats, MTest
from repro.distributions.gaussian import GaussianDistribution
from repro.experiments.fig5_throughput import _AnalyticAccuracy
from repro.obs import Observer, TelemetryConfig, TraceConfig
from repro.obs.export import spans_to_json
from repro.parallel import WorkerPool
from repro.streams.engine import Pipeline
from repro.streams.groupby import GroupedAggregate
from repro.streams.operators import (
    CollectSink,
    CountingSink,
    SignificanceFilter,
)
from repro.streams.tuples import UncertainTuple
from tests.parallel.conftest import WORKER_COUNTS, InProcessPool

SEED = 3
FRAME_INTERVAL = 8
BATCH_SIZE = 8


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


def _pipeline(observer=None):
    return Pipeline(
        [
            GroupedAggregate("sensor", "reading", window_size=10),
            _AnalyticAccuracy("avg"),
            CollectSink(),
        ],
        observer=observer,
    )


def _above_50(tup):
    return MTest(FieldStats.from_dfsized(tup.dfsized("reading")), ">", 50.0)


def _filter_pipeline(observer=None):
    return Pipeline(
        [SignificanceFilter(_above_50), CountingSink()], observer=observer
    )


def _observer(trace_config=None):
    return Observer(
        trace=trace_config or TraceConfig(seed=SEED),
        frames=TelemetryConfig(frame_interval=FRAME_INTERVAL),
    )


def _merged(pool, tuples, trace_config=None):
    observer = _observer(trace_config)
    sink = _pipeline(observer).run_sharded(
        tuples, "sensor", pool, batch_size=BATCH_SIZE
    )
    return observer, sink


def _metrics_view(observer):
    """The metrics snapshot minus wall-clock timer seconds."""
    return {
        name: {"type": "timer", "count": state["count"]}
        if state["type"] == "timer"
        else state
        for name, state in observer.metrics.snapshot().items()
    }


def _views(observer):
    """Everything the determinism contract covers, as one JSON text."""
    return json.dumps(
        {
            "metrics": _metrics_view(observer),
            "spans": json.loads(
                spans_to_json(observer.tracer, deterministic=True)
            ),
            "frames": observer.frames.series.deterministic_view(),
        },
        sort_keys=True,
    )


def _decisions(observer):
    return {
        value: observer.metrics.get(
            f"pipeline.00.SignificanceFilter.decisions.{value.name.lower()}"
        ).value
        for value in ThreeValued
    }


class TestMergedTraceDeterminism:
    def test_identical_merged_trace_at_1_2_4_workers(self, pools):
        # Metrics, spans and frames fold through one Observer.merge per
        # shard; each equals the in-process twin's at every pool size.
        tuples = _tuples()
        plain = [
            pickle.dumps(t)
            for t in _pipeline().run_batched(tuples, BATCH_SIZE).results
        ]
        for workers in WORKER_COUNTS:
            observer, sink = _merged(pools[workers], tuples)
            assert len(observer.tracer) > 0
            assert len(observer.tracer.provenance) > 0
            assert len(observer.frames.series) > 1
            twin, _ = _merged(InProcessPool(workers), tuples)
            assert _views(observer) == _views(twin), (
                f"merged observer diverged at {workers} workers"
            )
            # Observation never perturbs the merged output.
            assert [pickle.dumps(t) for t in sink.results] == plain

    def test_every_shard_contributes_spans_and_records(self, pools):
        observer, _ = _merged(pools[2], _tuples())
        tracer = observer.tracer
        payload = json.loads(spans_to_json(tracer, deterministic=True))
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
        # One run per shard in the merged metrics too.
        assert observer.metrics.get("pipeline.runs").value == 2

    def test_span_ids_distinct_across_shards(self, pools):
        observer, _ = _merged(pools[4], _tuples())
        ids = [span.span_id for span in observer.tracer.spans]
        assert len(ids) == len(set(ids))

    def test_explain_works_on_merged_trace(self, pools):
        # Worker payloads were re-pickled, so lookup relies on the
        # content-fingerprint fallback rather than object identity.
        observer, sink = _merged(pools[2], _tuples())
        text = observer.tracer.explain(sink.results[-1])
        assert "accuracy provenance" in text
        assert "AnalyticAccuracy" in text

    def test_sampled_trace_is_still_worker_count_invariant(self, pools):
        # Sampling decisions depend on (seed, shard label, seq) only, so
        # where a shard runs never changes which spans are kept.
        tuples = _tuples()
        config = TraceConfig(seed=SEED, sample_rate=0.3)
        for workers in WORKER_COUNTS:
            observer, _ = _merged(pools[workers], tuples, config)
            twin, _ = _merged(InProcessPool(workers), tuples, config)
            assert _views(observer) == _views(twin)
            kept = len(observer.tracer.provenance)
            assert 0 < kept < len(tuples)

    def test_trace_seed_changes_ids_but_not_shape(self, pools):
        tuples = _tuples()
        first, _ = _merged(pools[2], tuples, TraceConfig(seed=1))
        second, _ = _merged(pools[2], tuples, TraceConfig(seed=2))
        shape = lambda tracer: sorted(
            (s.shard, s.seq, s.name, s.kind) for s in tracer.spans
        )
        assert shape(first.tracer) == shape(second.tracer)
        assert {s.span_id for s in first.tracer.spans}.isdisjoint(
            {s.span_id for s in second.tracer.spans}
        )

    def test_parent_resync_keeps_later_frames_clean(self, pools):
        tuples = _tuples()
        observer, _ = _merged(pools[2], tuples)
        frames_before = len(observer.frames.series)
        # A serial run on the same observer after the sharded merge must
        # record only its own activity, not re-count merged history.
        _pipeline(observer).run(_tuples(FRAME_INTERVAL, seed=1))
        new = observer.frames.series.frames[frames_before:]
        name = "pipeline.00.GroupedAggregate.tuples_in"
        assert sum(
            int(f.metrics[name]["value"]) for f in new if name in f.metrics
        ) == FRAME_INTERVAL


class TestMergedDecisionCounters:
    def test_decisions_fold_home_from_every_shard(self):
        # Each worker counts TRUE/FALSE/UNSURE into its own observer;
        # the one fold brings them home, equal to the batched run's.
        tuples = _tuples(60)
        batched = Observer()
        expected = _filter_pipeline(batched).run_batched(tuples, BATCH_SIZE)
        assert sum(_decisions(batched).values()) == 60
        with WorkerPool(1) as single:
            for pool in (single, InProcessPool(2)):
                observer = Observer()
                sink = _filter_pipeline(observer).run_sharded(
                    tuples, "sensor", pool, batch_size=BATCH_SIZE
                )
                assert sink.count == expected.count
                assert _decisions(observer) == _decisions(batched)

    def test_decisions_match_in_process_twin_at_1_2_4_workers(self, pools):
        tuples = _tuples()
        for workers in WORKER_COUNTS:
            runs = []
            for pool in (pools[workers], InProcessPool(workers)):
                observer = _observer()
                _filter_pipeline(observer).run_sharded(tuples, "sensor", pool)
                runs.append((_decisions(observer), _views(observer)))
            assert runs[0] == runs[1], f"diverged at {workers} workers"
