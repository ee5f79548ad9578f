"""Cross-worker telemetry merge determinism.

There is one shard per pool worker, and shard frames fold by index, so
the merged frame series — and therefore every SLO evaluation and alert
log computed from it — is a function of the stream and the pool size.
At each of 1, 2 and 4 workers it is byte-identical whether the shards
run in worker processes or in-process (wall-clock timer seconds
excluded via the deterministic view, exactly like span timestamps in
the trace contract).
"""

import json
import pickle

import numpy as np

from repro.core.dfsample import DfSized
from repro.distributions.gaussian import GaussianDistribution
from repro.experiments.fig5_throughput import _AnalyticAccuracy
from repro.obs.alerts import AlertLog
from repro.obs.slo import evaluate_rule, parse_rule
from repro.obs.timeseries import TelemetryConfig, TelemetryRecorder
from repro.parallel import partition_indices
from repro.streams.engine import Pipeline
from repro.streams.groupby import GroupedAggregate
from repro.streams.operators import CollectSink
from repro.streams.tuples import UncertainTuple
from tests.parallel.conftest import WORKER_COUNTS, InProcessPool

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


def _pipeline(telemetry=None):
    return Pipeline(
        [
            GroupedAggregate("sensor", "reading", window_size=10),
            _AnalyticAccuracy("avg"),
            CollectSink(),
        ],
        telemetry=telemetry,
    )


def _rules():
    return [
        parse_rule(
            "ci_width p95 <= 0.5", short_window=2, long_window=4,
        ),
        parse_rule(
            "de_facto_n p5 >= 4", short_window=2, long_window=4,
        ),
    ]


def _merged(pool, tuples):
    recorder = TelemetryRecorder(
        TelemetryConfig(frame_interval=FRAME_INTERVAL)
    )
    pipeline = _pipeline(recorder)
    sink = pipeline.run_sharded(
        tuples, "sensor", pool, batch_size=BATCH_SIZE
    )
    return recorder, sink


class TestMergedTelemetryDeterminism:
    def test_identical_frame_series_at_1_2_4_workers(self, pools):
        tuples = _tuples()
        plain = [
            pickle.dumps(t)
            for t in _pipeline().run_batched(tuples, BATCH_SIZE).results
        ]
        for workers in WORKER_COUNTS:
            views = []
            for pool in (pools[workers], InProcessPool(workers)):
                recorder, sink = _merged(pool, tuples)
                assert len(recorder.series) > 1
                views.append(
                    json.dumps(
                        recorder.series.deterministic_view(), sort_keys=True
                    )
                )
                # Telemetry never perturbs the merged output either.
                assert [pickle.dumps(t) for t in sink.results] == plain
            assert views[0] == views[1], (
                f"frame series diverged at {workers} workers"
            )

    def test_identical_slo_evaluations_at_any_worker_count(self, pools):
        tuples = _tuples()
        for workers in WORKER_COUNTS:
            dumps = []
            for pool in (pools[workers], InProcessPool(workers)):
                recorder, _ = _merged(pool, tuples)
                dumps.append(
                    json.dumps(
                        [
                            evaluate_rule(recorder.series, rule).to_dicts()
                            for rule in _rules()
                        ],
                        sort_keys=True,
                    )
                )
            assert dumps[0] == dumps[1]

    def test_identical_alert_logs_at_any_worker_count(self, pools):
        tuples = _tuples()
        for workers in WORKER_COUNTS:
            logs = []
            for pool in (pools[workers], InProcessPool(workers)):
                recorder, _ = _merged(pool, tuples)
                log = AlertLog()
                log.evaluate(recorder.series, _rules())
                logs.append(log.to_jsonl())
            assert logs[0] == logs[1]

    def test_frames_fold_across_all_shards(self, pools):
        tuples = _tuples()
        recorder, _ = _merged(pools[2], tuples)
        # Each shard cuts a frame every FRAME_INTERVAL of its own
        # tuples; frame i of every shard folds into merged frame i,
        # whose start/end positions are the shards' summed.
        expected: dict[int, tuple[int, int]] = {}
        for shard in partition_indices(tuples, 2, "sensor"):
            for i, start in enumerate(range(0, len(shard), FRAME_INTERVAL)):
                a, b = expected.get(i, (0, 0))
                end = min(start + FRAME_INTERVAL, len(shard))
                expected[i] = (a + start, b + end)
        assert [f.index for f in recorder.series] == sorted(expected)
        assert [(f.start, f.end) for f in recorder.series] == [
            expected[i] for i in sorted(expected)
        ]
        assert sum(f.end - f.start for f in recorder.series) == len(tuples)

    def test_merged_deltas_sum_to_registry_totals(self, pools):
        tuples = _tuples()
        recorder, _ = _merged(pools[2], tuples)
        name = "pipeline.01.AnalyticAccuracy.interval_width"
        per_frame = sum(
            int(frame.metrics[name]["count"])
            for frame in recorder.series
            if name in frame.metrics
        )
        cumulative = recorder.registry.snapshot()[name]["count"]
        assert per_frame == cumulative > 0

    def test_parent_resync_keeps_later_frames_clean(self, pools):
        tuples = _tuples()
        recorder, _ = _merged(pools[2], tuples)
        frames_before = len(recorder.series)
        # A serial run on the same recorder after the sharded merge must
        # record only its own activity, not re-count merged history.
        pipeline = _pipeline(recorder)
        pipeline.run(_tuples(FRAME_INTERVAL, seed=1))
        new = recorder.series.frames[frames_before:]
        name = "pipeline.00.GroupedAggregate.tuples_in"
        assert sum(
            int(f.metrics[name]["value"])
            for f in new
            if name in f.metrics
        ) == FRAME_INTERVAL
