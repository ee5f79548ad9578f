"""Sharded frame-series merge determinism, through the one ``Observer``.

The frame half of the sharded observer suite
(``tests/parallel/test_trace_sharded.py``): the same stream, pipeline and
``Observer.merge`` fold, checked on the frame series and on every SLO
evaluation and alert log computed from it.  There is one shard per pool
worker and shard frames fold by index, so at each of 1, 2 and 4 workers
the merged series equals the ``InProcessPool`` twin's (wall-clock timer
seconds excluded via the deterministic view).
"""

import json
import pickle

from repro.obs import Observer, TelemetryConfig
from repro.obs.alerts import AlertLog
from repro.obs.slo import evaluate_rule, parse_rule
from repro.parallel import partition_indices
from tests.parallel.conftest import WORKER_COUNTS, InProcessPool
from tests.parallel.test_trace_sharded import (
    BATCH_SIZE,
    FRAME_INTERVAL,
    _merged,
    _pipeline,
    _tuples,
)


def _rules():
    return [
        parse_rule("ci_width p95 <= 0.5", short_window=2, long_window=4),
        parse_rule("de_facto_n p5 >= 4", short_window=2, long_window=4),
    ]


def _series(pool, tuples):
    return _merged(pool, tuples)[0].frames.series


class TestMergedTelemetryDeterminism:
    def test_identical_frame_series_at_1_2_4_workers(self, pools):
        # A frames-only observer (no tracer) folds the same series as
        # its in-process twin, and never perturbs the merged output.
        tuples = _tuples()
        plain = [
            pickle.dumps(t)
            for t in _pipeline().run_batched(tuples, BATCH_SIZE).results
        ]
        for workers in WORKER_COUNTS:
            views = []
            for pool in (pools[workers], InProcessPool(workers)):
                observer = Observer(
                    frames=TelemetryConfig(frame_interval=FRAME_INTERVAL)
                )
                sink = _pipeline(observer).run_sharded(
                    tuples, "sensor", pool, batch_size=BATCH_SIZE
                )
                assert observer.tracer is None
                assert len(observer.frames.series) > 1
                views.append(
                    json.dumps(
                        observer.frames.series.deterministic_view(),
                        sort_keys=True,
                    )
                )
                assert [pickle.dumps(t) for t in sink.results] == plain
            assert views[0] == views[1], (
                f"frame series diverged at {workers} workers"
            )

    def test_identical_slo_evaluations_at_any_worker_count(self, pools):
        tuples = _tuples()
        for workers in WORKER_COUNTS:
            dumps = [
                json.dumps(
                    [
                        evaluate_rule(_series(pool, tuples), rule).to_dicts()
                        for rule in _rules()
                    ],
                    sort_keys=True,
                )
                for pool in (pools[workers], InProcessPool(workers))
            ]
            assert dumps[0] == dumps[1]

    def test_identical_alert_logs_at_any_worker_count(self, pools):
        tuples = _tuples()
        for workers in WORKER_COUNTS:
            logs = []
            for pool in (pools[workers], InProcessPool(workers)):
                log = AlertLog()
                log.evaluate(_series(pool, tuples), _rules())
                logs.append(log.to_jsonl())
            assert logs[0] == logs[1]

    def test_frames_fold_across_all_shards(self, pools):
        tuples = _tuples()
        series = _series(pools[2], tuples)
        # Each shard cuts a frame every FRAME_INTERVAL of its own
        # tuples; frame i of every shard folds into merged frame i,
        # whose start/end positions are the shards' summed.
        expected: dict[int, tuple[int, int]] = {}
        for shard in partition_indices(tuples, 2, "sensor"):
            for i, start in enumerate(range(0, len(shard), FRAME_INTERVAL)):
                a, b = expected.get(i, (0, 0))
                end = min(start + FRAME_INTERVAL, len(shard))
                expected[i] = (a + start, b + end)
        assert [f.index for f in series] == sorted(expected)
        assert [(f.start, f.end) for f in series] == [
            expected[i] for i in sorted(expected)
        ]
        assert sum(f.end - f.start for f in series) == len(tuples)

    def test_merged_deltas_sum_to_registry_totals(self, pools):
        observer, _ = _merged(pools[2], _tuples())
        name = "pipeline.01.AnalyticAccuracy.interval_width"
        per_frame = sum(
            int(frame.metrics[name]["count"])
            for frame in observer.frames.series
            if name in frame.metrics
        )
        assert per_frame == observer.metrics.get(name).count > 0
