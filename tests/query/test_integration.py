"""End-to-end integration tests: raw reports -> learning -> queries.

These recreate the paper's running scenario (Example 1/8/9): raw
road-delay reports stream in, distributions are learned per road with
heterogeneous sample sizes, and accuracy-aware queries separate reliable
answers from unreliable ones.
"""

import numpy as np
import pytest

from repro.core.coupled import ThreeValued
from repro.learning.histogram_learner import HistogramLearner
from repro.obs import Observer
from repro.query.executor import ExecutorConfig, run_query
from repro.streams.engine import Pipeline
from repro.streams.operators import CollectSink, SignificanceFilter
from repro.streams.tuples import UncertainTuple


def _learn_road_tuples(sim, sizes, learner=None, rng=None):
    """One uncertain tuple per road, learned from `sizes[road]` reports."""
    learner = learner or HistogramLearner(bucket_count=8)
    tuples = []
    for segment_id, n in sizes.items():
        observations = sim.observations(segment_id, n)
        fitted = learner.learn(observations)
        tuples.append(
            UncertainTuple(
                {
                    "road_id": float(segment_id),
                    "delay": fitted.as_dfsized(),
                }
            )
        )
    return tuples


class TestExample1Pipeline:
    """Example 1: 3 observations for road 19, 50 for road 20."""

    def test_accuracy_reflects_sample_size(self, small_sim):
        # The same road observed 3 times versus 50 times (scales match,
        # so interval lengths are directly comparable).
        road = 19
        tuples = _learn_road_tuples(small_sim, {road: 3})
        sparse_tuple = tuples[0]
        dense_tuple = _learn_road_tuples(small_sim, {road: 50})[0]
        results = run_query(
            "SELECT road_id, delay FROM roads",
            [sparse_tuple, dense_tuple],
            config=ExecutorConfig(seed=0, confidence=0.9),
        )
        sparse = results[0].accuracy["delay"]
        dense = results[1].accuracy["delay"]
        # The sparse road's intervals are much wider: same query, very
        # different reliability — the paper's core motivation.
        assert sparse.mean.length > dense.mean.length
        assert sparse.sample_size == 3 and dense.sample_size == 50

    def test_threshold_query_reports_probability_interval(self, small_sim):
        sizes = {19: 5, 20: 50}
        tuples = _learn_road_tuples(small_sim, sizes)
        threshold = small_sim.true_mean(19)
        results = run_query(
            f"SELECT road_id FROM roads WHERE delay > {threshold:.1f} "
            "PROB 0.1",
            tuples,
            config=ExecutorConfig(seed=0, confidence=0.9),
        )
        for result in results:
            interval = result.probability_interval.interval
            assert 0.0 <= interval.low <= result.probability <= interval.high


class TestExample9Significance:
    def test_mtest_separates_by_sample_size(self, small_sim, rng):
        # Two roads with identical true distributions but very different
        # report counts; the predicate threshold sits below the true mean.
        sid = small_sim.segment_ids()[0]
        true_mean = small_sim.true_mean(sid)
        threshold = 0.85 * true_mean
        dense = _learn_road_tuples(small_sim, {sid: 200})[0]
        sparse = _learn_road_tuples(small_sim, {sid: 4})[0]
        sparse = sparse.with_attributes({**sparse.attributes, "road_id": -1.0})
        query = (
            f"SELECT road_id FROM roads "
            f"WHERE mTest(delay, '>', {threshold:.2f}, 0.05)"
        )
        results = run_query(
            query, [dense, sparse], config=ExecutorConfig(seed=0)
        )
        # Large sample: significant.  Four reports of the same road are
        # too few for the same test to reject the null hypothesis.
        returned = [r.value("road_id").distribution.value for r in results]
        assert returned == [float(sid)]

    def test_coupled_query_three_outcomes(self, small_sim):
        sid = small_sim.segment_ids()[1]
        true_mean = small_sim.true_mean(sid)
        tuples = _learn_road_tuples(small_sim, {sid: 100})
        clearly_true = run_query(
            f"SELECT road_id FROM r WHERE "
            f"mTest(delay, '>', {0.5 * true_mean:.2f}, 0.05, 0.05)",
            tuples, config=ExecutorConfig(seed=0),
        )
        clearly_false = run_query(
            f"SELECT road_id FROM r WHERE "
            f"mTest(delay, '>', {2.0 * true_mean:.2f}, 0.05, 0.05)",
            tuples, config=ExecutorConfig(seed=0),
        )
        assert len(clearly_true) == 1
        assert clearly_true[0].decisions == (ThreeValued.TRUE,)
        assert clearly_false == []


class TestStreamToQueryBridge:
    def test_report_stream_grouped_and_learned(self, small_sim):
        """Full ingestion: raw reports -> per-road samples -> query."""
        reports = list(small_sim.report_stream(window_minutes=10))
        by_road: dict[int, list[float]] = {}
        for report in reports:
            by_road.setdefault(report.segment_id, []).append(report.delay)
        learner = HistogramLearner(bucket_count=6)
        tuples = []
        for road, delays in by_road.items():
            if len(delays) < 2:
                continue
            tuples.append(
                UncertainTuple(
                    {
                        "road_id": float(road),
                        "delay": learner.learn(delays).as_dfsized(),
                    }
                )
            )
        assert len(tuples) > 10
        results = run_query(
            "SELECT road_id, delay FROM window WHERE delay > 0 PROB 0.99",
            tuples,
            config=ExecutorConfig(seed=0, confidence=0.9),
        )
        assert len(results) == len(tuples)  # delays are all positive
        # Every result's mean interval matches Lemma 2 applied to the
        # road's raw sample — accuracy genuinely flowed from ingestion.
        from repro.core.analytic import mean_interval

        sizes = {float(road): len(delays) for road, delays in by_road.items()}
        for result in results:
            road = result.value("road_id").distribution.mean()
            info = result.accuracy["delay"]
            assert info.sample_size == sizes[road]
            delays = np.asarray(by_road[int(road)], dtype=float)
            # The executor derives intervals from the learned histogram's
            # moments; the lengths must scale like s/sqrt(n).
            reference = mean_interval(
                float(delays.mean()), float(delays.std(ddof=1)),
                len(delays), 0.9,
            )
            assert info.mean.length == pytest.approx(
                reference.length, rel=0.75
            )

    def test_significance_filter_in_stream_pipeline(self, small_sim, rng):
        """The operator pipeline applies coupled tests on the fly."""
        from repro.core.predicates import FieldStats, MTest

        sid = small_sim.segment_ids()[2]
        true_mean = small_sim.true_mean(sid)
        learner = HistogramLearner(bucket_count=6)
        tuples = []
        for n in (3, 5, 100, 150):
            fitted = learner.learn(small_sim.observations(sid, n))
            tuples.append(UncertainTuple({"delay": fitted.as_dfsized()}))

        def factory(tup):
            return MTest(
                FieldStats.from_dfsized(tup.dfsized("delay")),
                ">", 0.8 * true_mean, 0.05,
            )

        sig = SignificanceFilter(factory, 0.05, 0.05)
        observer = Observer()
        Pipeline([sig, CollectSink()], observer=observer).run(tuples)
        decisions = {
            value: observer.metrics.get(
                f"pipeline.00.SignificanceFilter.decisions."
                f"{value.name.lower()}"
            ).value
            for value in ThreeValued
        }
        assert sum(decisions.values()) == 4
        # Large samples decide; the 3-observation tuple mostly cannot.
        assert decisions[ThreeValued.TRUE] >= 1
