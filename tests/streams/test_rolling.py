"""Tests for the rolling-statistics kernels and the operators on them.

Covers the kernel units (:mod:`repro.streams.rolling`), the
:class:`RollingLearnOperator` end-to-end, the drift-guard contract
(exact equality right after each re-sum, bounded drift between), and the
1e6-slide mixed-magnitude regression that motivated compensated sums.
"""

import math
import pickle

import pytest

from repro.core.accuracy import AccuracyInfo
from repro.core.analytic import accuracy_from_sample
from repro.core.dfsample import DfSized
from repro.distributions.gaussian import GaussianDistribution
from repro.errors import StreamError
from repro.learning.gaussian_learner import GaussianLearner
from repro.learning.kde_learner import KdeLearner
from repro.obs.metrics import MetricsRegistry
from repro.parallel import pipeline_payload
from repro.streams.engine import Pipeline
from repro.streams.operators import (
    CollectSink,
    RollingLearnOperator,
    SlidingGaussianAverage,
    TimeWindowAggregate,
    WindowAggregate,
)
from repro.streams.rolling import (
    CompensatedSum,
    MinSizeTracker,
    RollingWindowStats,
    SlidingExtremum,
)
from repro.streams.tuples import UncertainTuple


def _mixed_magnitude(i):
    """Adversarial stream for naive running sums: values spanning ~1e18."""
    cycle = (1e9, 1.0, -1e9, 1e-9, 337.25, -1e-9)
    return cycle[i % len(cycle)] * (1.0 + (i % 97) / 97.0)


class TestCompensatedSum:
    def test_tracks_fsum_under_churn(self):
        acc = CompensatedSum()
        window = []
        for i in range(5000):
            x = _mixed_magnitude(i)
            acc.add(x)
            window.append(x)
            if len(window) > 64:
                acc.subtract(window.pop(0))
            assert acc.value == pytest.approx(
                math.fsum(window), rel=1e-12, abs=1e-12
            )

    def test_reset_is_exact(self):
        acc = CompensatedSum()
        acc.add(1e16)
        acc.add(1.0)
        acc.reset(42.0)
        assert acc.value == 42.0

    def test_repr_shows_value(self):
        assert "3.0" in repr(CompensatedSum(3.0))


class TestSlidingExtremum:
    def test_matches_naive_window_min_max(self):
        lo = SlidingExtremum("min")
        hi = SlidingExtremum("max")
        window = []
        values = [float((7 * i) % 23 - 11) for i in range(400)]
        for x in values:
            lo.push(x)
            hi.push(x)
            window.append(x)
            if len(window) > 16:
                window.pop(0)
                lo.evict()
                hi.evict()
            assert lo.value == min(window)
            assert hi.value == max(window)
            assert len(lo) == len(window)

    def test_over_evict_raises(self):
        ext = SlidingExtremum("min")
        ext.push(1.0)
        ext.evict()
        with pytest.raises(StreamError, match="more than was pushed"):
            ext.evict()

    def test_empty_value_raises(self):
        with pytest.raises(StreamError, match="empty"):
            SlidingExtremum("max").value

    def test_bad_mode_raises(self):
        with pytest.raises(StreamError, match="min or max"):
            SlidingExtremum("median")


class TestMinSizeTracker:
    def test_none_never_constrains(self):
        tracker = MinSizeTracker()
        tracker.add(None)
        assert tracker.minimum is None
        tracker.add(30)
        tracker.add(10)
        assert tracker.minimum == 10
        tracker.discard(None)
        assert tracker.minimum == 10

    def test_minimum_recovers_after_discard(self):
        tracker = MinSizeTracker()
        for size in (5, 9, 5, 12):
            tracker.add(size)
        tracker.discard(5)
        assert tracker.minimum == 5  # one copy of 5 remains
        tracker.discard(5)
        assert tracker.minimum == 9
        tracker.discard(9)
        tracker.discard(12)
        assert tracker.minimum is None

    def test_over_discard_raises(self):
        tracker = MinSizeTracker()
        tracker.add(4)
        tracker.discard(4)
        with pytest.raises(StreamError, match="more than added"):
            tracker.discard(4)


class TestRollingWindowStats:
    def test_sums_track_fsum_reference(self):
        stats = RollingWindowStats(resum_interval=10_000)
        window = []
        for i in range(3000):
            member = (_mixed_magnitude(i), abs(_mixed_magnitude(i + 1)), None)
            stats.push(*member)
            window.append(member)
            if len(window) > 128:
                assert stats.evict_oldest() == window.pop(0)
            assert stats.mean_sum == pytest.approx(
                math.fsum(m for m, _, _ in window), rel=1e-12, abs=1e-12
            )
            assert stats.var_sum == pytest.approx(
                math.fsum(v for _, v, _ in window), rel=1e-12, abs=1e-12
            )

    def test_exact_equality_right_after_resum(self):
        interval = 100
        stats = RollingWindowStats(resum_interval=interval)
        window = []
        for i in range(1000):
            member = (_mixed_magnitude(i), 1.0 + i % 7, None)
            stats.push(*member)
            window.append(member)
            if len(window) > 32:
                stats.evict_oldest()
                window.pop(0)
            if stats.resums and stats._evictions_since_resum == 0:
                # Immediately after a re-sum: exactly the fsum reference.
                assert stats.mean_sum == math.fsum(m for m, _, _ in window)
        assert stats.resums == (1000 - 32) // interval

    def test_var_sum_clamped_nonnegative(self):
        stats = RollingWindowStats()
        stats.push(0.0, 1e-300, None)
        stats.push(0.0, 1e16, None)
        stats.evict_oldest()
        stats.evict_oldest()
        assert stats.var_sum >= 0.0

    def test_evict_empty_raises(self):
        with pytest.raises(StreamError, match="empty"):
            RollingWindowStats().evict_oldest()

    def test_extrema_require_tracking(self):
        stats = RollingWindowStats()
        stats.push(1.0, 0.0)
        with pytest.raises(StreamError, match="without extrema"):
            stats.min_mean
        with pytest.raises(StreamError, match="without extrema"):
            stats.max_mean

    def test_extrema_and_df_size(self):
        stats = RollingWindowStats(track_extrema=True)
        for mean, size in ((3.0, 20), (1.0, 10), (2.0, None)):
            stats.push(mean, 0.5, size)
        assert stats.min_mean == 1.0
        assert stats.max_mean == 3.0
        assert stats.df_size == 10
        stats.evict_oldest()  # (3.0, 20) leaves
        stats.evict_oldest()  # (1.0, 10) leaves
        assert stats.min_mean == stats.max_mean == 2.0
        assert stats.df_size is None

    def test_evict_expired_uses_timestamps(self):
        stats = RollingWindowStats()
        for ts in (1.0, 2.0, 3.0, 4.0):
            stats.push(ts * 10, 0.0, None, timestamp=ts)
        assert stats.evict_expired(2.0) == 2
        assert stats.count == 2
        assert stats.oldest_timestamp == 3.0
        assert stats.newest_timestamp == 4.0
        assert list(stats.members()) == [(30.0, 0.0, None), (40.0, 0.0, None)]

    def test_metrics_binding_counts_resums(self):
        registry = MetricsRegistry()
        counter = registry.counter("r.resums", "test")
        histogram = registry.histogram("r.drift", [1e-12, 1.0], "test")
        stats = RollingWindowStats(resum_interval=5)
        stats.set_metrics(counter, histogram)
        for i in range(30):
            stats.push(float(i), 0.0)
            if stats.count > 4:
                stats.evict_oldest()
        snapshot = registry.snapshot()
        assert snapshot["r.resums"]["value"] == stats.resums > 0
        assert snapshot["r.drift"]["count"] == stats.resums


class TestDriftRegression:
    """Satellite (b): no float drift over 1e6 mixed-magnitude slides."""

    def test_kernel_million_slides_mixed_magnitudes(self):
        window_size = 512
        stats = RollingWindowStats()  # default 4096 re-sum interval
        window = []
        checkpoints = 0
        for i in range(1_000_000):
            member = (_mixed_magnitude(i), abs(_mixed_magnitude(i + 3)), None)
            stats.push(*member)
            window.append(member)
            if len(window) > window_size:
                stats.evict_oldest()
                window.pop(0)
            if i % 50_000 == 0 and len(window) == window_size:
                exact = math.fsum(m for m, _, _ in window)
                assert stats.mean_sum == pytest.approx(exact, rel=1e-9)
                exact_var = math.fsum(v for _, v, _ in window)
                assert stats.var_sum == pytest.approx(exact_var, rel=1e-9)
                checkpoints += 1
        assert checkpoints > 10
        assert stats.resums > 0  # the guard actually fired along the way

    def test_sliding_gaussian_average_operator_stays_exact(self):
        # The pre-PR operator kept plain += / -= sums: after mixed-
        # magnitude churn the reported window average drifted.  Now the
        # emitted mean must match the from-scratch window average.
        window_size = 64
        tuples = [
            UncertainTuple(
                {
                    "x": DfSized(
                        GaussianDistribution(_mixed_magnitude(i), 1.0), 25
                    )
                }
            )
            for i in range(20_000)
        ]
        sink = Pipeline(
            [
                SlidingGaussianAverage(
                    "x", window_size, resum_interval=1000
                ),
                CollectSink(),
            ]
        ).run(tuples)
        means = [_mixed_magnitude(i) for i in range(20_000)]
        for i in (5_000, 10_000, 19_999):
            window = means[i - window_size + 1 : i + 1]
            got = sink.results[i].value("avg").distribution.mu
            assert got == pytest.approx(
                math.fsum(window) / window_size, rel=1e-9
            )


class TestRollingLearnOperator:
    @staticmethod
    def _tuples(values):
        return [UncertainTuple({"obs": float(v)}) for v in values]

    def test_gaussian_matches_from_scratch_learner(self):
        values = [_mixed_magnitude(i) % 100.0 for i in range(200)]
        op = RollingLearnOperator("obs", window_size=16, learner="gaussian")
        sink = Pipeline([op, CollectSink()]).run(self._tuples(values))
        learner = GaussianLearner()
        # Emission starts at the 2nd tuple (k >= 2).
        assert len(sink.results) == 199
        for i in (1, 15, 50, 199 - 1):
            tup = sink.results[i]
            k = min(i + 2, 16)
            window = values[max(0, i + 2 - 16) : i + 2]
            ref = learner.learn(window).distribution
            learned = tup.value("learned")
            assert isinstance(learned, DfSized)
            assert learned.sample_size == k
            assert learned.distribution.mu == pytest.approx(
                ref.mu, rel=1e-9
            )
            assert learned.distribution.sigma2 == pytest.approx(
                ref.sigma2, rel=1e-9
            )

    def test_accuracy_matches_accuracy_from_sample(self):
        values = [3.0, 7.0, 4.5, 9.0, 1.0, 6.0]
        op = RollingLearnOperator("obs", window_size=4)
        sink = Pipeline([op, CollectSink()]).run(self._tuples(values))
        last = sink.results[-1]
        info = last.value("accuracy")
        assert isinstance(info, AccuracyInfo)
        ref = accuracy_from_sample(values[-4:], confidence=0.95)
        assert info.sample_size == ref.sample_size == 4
        assert info.mean.low == pytest.approx(ref.mean.low, rel=1e-9)
        assert info.mean.high == pytest.approx(ref.mean.high, rel=1e-9)
        assert info.variance.low == pytest.approx(ref.variance.low, rel=1e-9)
        assert info.variance.high == pytest.approx(ref.variance.high, rel=1e-9)

    def test_histogram_learner_with_fixed_edges(self):
        values = [0.5, 1.5, 2.5, 0.25, 2.75, 1.0]
        op = RollingLearnOperator(
            "obs",
            window_size=4,
            learner="histogram",
            edges=[0.0, 1.0, 2.0, 3.0],
        )
        sink = Pipeline([op, CollectSink()]).run(self._tuples(values))
        last = sink.results[-1].value("learned")
        # Window = [2.5, 0.25, 2.75, 1.0] -> bin counts [1, 1, 2] of 4.
        assert list(last.distribution.probabilities) == [0.25, 0.25, 0.5]
        info = sink.results[-1].value("accuracy")
        assert len(info.bins) == 3

    def test_emit_partial_false_waits_for_full_window(self):
        values = list(range(10))
        op = RollingLearnOperator(
            "obs", window_size=5, emit_partial=False
        )
        sink = Pipeline([op, CollectSink()]).run(self._tuples(values))
        assert len(sink.results) == 6  # emits once the 5-window is full
        assert all(
            t.value("learned").sample_size == 5 for t in sink.results
        )

    def test_batched_path_is_byte_identical_to_scalar(self):
        # The vectorized accuracy path must emit the exact same tuples.
        values = [_mixed_magnitude(i) % 50.0 + 1.0 for i in range(300)]

        def run(batched):
            op = RollingLearnOperator("obs", window_size=32)
            pipe = Pipeline([op, CollectSink()])
            if batched:
                return pipe.run_batched(self._tuples(values), 64).results
            return pipe.run(self._tuples(values)).results

        scalar = [pickle.dumps(t) for t in run(batched=False)]
        vectorized = [pickle.dumps(t) for t in run(batched=True)]
        assert vectorized == scalar

    def test_accuracy_output_none_disables_accuracy(self):
        op = RollingLearnOperator(
            "obs", window_size=3, accuracy_output=None
        )
        sink = Pipeline([op, CollectSink()]).run(self._tuples([1, 2, 3]))
        assert "accuracy" not in sink.results[-1].attributes
        assert op.accuracy_attribute == "learned"

    def test_rejects_learner_without_partial_support(self):
        with pytest.raises(StreamError, match="does not support incremental"):
            RollingLearnOperator("obs", window_size=4, learner=KdeLearner())

    def test_rejects_kwargs_with_learner_instance(self):
        with pytest.raises(StreamError, match="learner name"):
            RollingLearnOperator(
                "obs", window_size=4, learner=GaussianLearner(), edges=[0, 1]
            )

    def test_rejects_tiny_window_and_bad_confidence(self):
        with pytest.raises(StreamError, match="window size >= 2"):
            RollingLearnOperator("obs", window_size=1)
        with pytest.raises(StreamError, match="confidence"):
            RollingLearnOperator("obs", window_size=4, confidence=1.0)

    def test_rejects_non_numeric_observation(self):
        op = RollingLearnOperator("obs", window_size=4)
        with pytest.raises(StreamError, match="raw numeric"):
            Pipeline([op, CollectSink()]).run(
                [UncertainTuple({"obs": "not-a-number"})]
            )


class TestRollingObservability:
    def test_resum_metrics_surface_per_operator(self):
        registry = MetricsRegistry()
        tuples = [
            UncertainTuple(
                {"x": DfSized(GaussianDistribution(float(i), 1.0), 30)}
            )
            for i in range(200)
        ]
        pipe = Pipeline(
            [
                WindowAggregate("x", 8, agg="avg", resum_interval=50),
                CollectSink(),
            ]
        )
        pipe.attach_metrics(registry, prefix="roll")
        pipe.run(tuples)
        snapshot = registry.snapshot()
        name = "roll.00.WindowAggregate.rolling"
        assert snapshot[f"{name}.resums"]["value"] == (200 - 8) // 50
        assert snapshot[f"{name}.drift"]["count"] == (200 - 8) // 50

    def test_learn_operator_binds_state_metrics(self):
        registry = MetricsRegistry()
        tuples = [
            UncertainTuple({"obs": float(i % 13)}) for i in range(120)
        ]
        pipe = Pipeline(
            [
                RollingLearnOperator(
                    "obs", window_size=6, resum_interval=25
                ),
                CollectSink(),
            ]
        )
        pipe.attach_metrics(registry, prefix="learn")
        pipe.run(tuples)
        snapshot = registry.snapshot()
        name = "learn.00.RollingLearnOperator.rolling"
        assert snapshot[f"{name}.resums"]["value"] > 0

    def test_pristine_clone_after_attach(self):
        # The sharded payload pickles operators with metrics detached;
        # kernel state must not drag registry objects along
        # (set_metrics(None, None) on detach).
        registry = MetricsRegistry()
        pipe = Pipeline(
            [
                SlidingGaussianAverage("x", 4),
                TimeWindowAggregate("y", 1.0),
                RollingLearnOperator("obs", window_size=4),
                CollectSink(),
            ]
        )
        pipe.attach_metrics(registry, prefix="p")
        payload = pipeline_payload(pipe)
        assert b"MetricsRegistry" not in payload
        clone = pickle.loads(payload)
        for op in clone.operators[:-1]:
            assert op._obs is None
        assert pipe.operators[0]._stats.resums_counter is not None
        assert clone.operators[0]._stats.resums_counter is None
        assert clone.operators[2]._state.resums_counter is None


class TestCancellationGuard:
    def test_dominant_evict_resums_immediately(self):
        # Evicting a member ~1e7x the surviving total must not leave
        # eps*|member| residue in the running sums until the periodic
        # resum: the cancellation guard fires an immediate resum.
        stats = RollingWindowStats(resum_interval=10_000)
        stats.push(50331648.0, 50331648.0 / 3.0, None)
        stats.push(1.0, 1.0 / 3.0, None)
        stats.push(0.0, 0.0, None)
        stats.evict_oldest()
        assert stats.resums == 1
        assert stats.mean_sum == 1.0
        assert stats.var_sum == 1.0 / 3.0

    def test_moderate_evictions_stay_incremental(self):
        stats = RollingWindowStats(resum_interval=10_000)
        for i in range(200):
            stats.push(float(i), 1.0, None)
            if i >= 32:
                stats.evict_oldest()
        assert stats.resums == 0
