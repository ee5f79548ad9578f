"""Conformance of the sketch learners to the Learner contract.

The sketch learners (``repro.learning.sketch``) must be drop-in registry
entries: ABC conformance, registry resolution, ``make_rolling_learner``
acceptance, batch/partial agreement on the moments, the canonical
NaN/inf rejection, operator plumbing (``set_metrics`` no-op), and —
their reason to exist — bounded retained bytes for any window size.
They also pin the per-ring-state caches of ``SketchWindowState``: every
emission must equal a cold recompute, and no cache may leak into a
pickle or a deep copy.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.core.accuracy import AccuracyInfo
from repro.distributions.discrete import DiscreteDistribution
from repro.distributions.histogram import HistogramDistribution
from repro.errors import LearningError
from repro.learning.base import LearnedDistribution, Learner
from repro.learning.registry import LEARNERS, make_rolling_learner
from repro.learning.sketch import (
    FrequencySketchLearner,
    HistogramSynopsisLearner,
    QuantileSketchLearner,
)
from repro.learning.sketch.frequency import AmsSketch, CountMinSketch
from repro.learning.sketch.histogram import HistogramSynopsis
from repro.learning.sketch.quantile import KllSketch, read_quantiles
from repro.streams.engine import Pipeline
from repro.streams.operators import CollectSink, RollingLearnOperator
from repro.streams.tuples import UncertainTuple

EDGES = np.linspace(-4.0, 4.0, 9)

LEARNER_FACTORIES = {
    "sketch-quantile": lambda: QuantileSketchLearner(k=64, chunk_size=64),
    "sketch-frequency": lambda: FrequencySketchLearner(
        cm_width=128, support_size=16, chunk_size=64
    ),
    "sketch-histogram": lambda: HistogramSynopsisLearner(
        EDGES, chunk_size=64
    ),
}


@pytest.fixture(params=sorted(LEARNER_FACTORIES))
def named_learner(request):
    return request.param, LEARNER_FACTORIES[request.param]()


class TestLearnerConformance:
    def test_is_a_learner(self, named_learner):
        _, learner = named_learner
        assert isinstance(learner, Learner)
        assert learner.supports_partial
        assert learner.partial_self_evicting

    def test_registered(self):
        assert LEARNERS["sketch-quantile"] is QuantileSketchLearner
        assert LEARNERS["sketch-frequency"] is FrequencySketchLearner
        assert LEARNERS["sketch-histogram"] is HistogramSynopsisLearner

    def test_make_rolling_learner_accepts(self):
        learner = make_rolling_learner("sketch-quantile", k=32)
        assert isinstance(learner, QuantileSketchLearner)
        assert learner.k == 32
        learner = make_rolling_learner(
            "sketch-histogram", edges=[0.0, 1.0, 2.0]
        )
        assert isinstance(learner, HistogramSynopsisLearner)

    def test_batch_learn(self, named_learner, rng):
        name, learner = named_learner
        sample = (
            rng.integers(0, 8, 200).astype(float)
            if name == "sketch-frequency"
            else rng.normal(0.0, 1.0, 200)
        )
        fitted = learner.learn(sample)
        assert isinstance(fitted, LearnedDistribution)
        assert fitted.sample_size == 200
        expected = (
            DiscreteDistribution
            if name == "sketch-frequency"
            else HistogramDistribution
        )
        assert isinstance(fitted.distribution, expected)
        assert fitted.distribution.mean() == pytest.approx(
            sample.mean(), abs=0.5 + abs(sample.mean()) * 0.1
        )

    def test_rejects_non_finite(self, named_learner):
        _, learner = named_learner
        state = learner.partial_begin()
        for bad in (float("nan"), float("inf"), float("-inf"), "x", True):
            with pytest.raises(LearningError):
                learner.partial_add(state, bad)
        with pytest.raises(LearningError):
            learner.learn([1.0, float("nan"), 2.0])

    def test_partial_matches_batch_moments(self, named_learner, rng):
        _, learner = named_learner
        sample = rng.normal(2.0, 1.5, 500)
        state = learner.partial_begin()
        for x in sample.tolist():
            learner.partial_add(state, x)
        mean, variance, n = learner.partial_moments(state)
        assert n == 500
        assert mean == pytest.approx(sample.mean(), rel=1e-9)
        assert variance == pytest.approx(sample.var(ddof=1), rel=1e-9)

    def test_partial_accuracy_records_synopsis_error(
        self, named_learner, rng
    ):
        _, learner = named_learner
        state = learner.partial_begin()
        for x in rng.normal(0.0, 1.0, 400).tolist():
            learner.partial_add(state, x)
        for _ in range(100):
            learner.partial_evict(state, None)
        info = learner.partial_accuracy(state, 0.9)
        assert isinstance(info, AccuracyInfo)
        assert info.sample_size == 300
        # Evictions leave a stale retained tail, so the record must
        # carry a positive, bounded synopsis error.
        assert 0.0 < info.synopsis_error <= 1.0
        assert info.mean.confidence == pytest.approx(0.9)

    def test_set_metrics_noop(self, named_learner):
        _, learner = named_learner
        state = learner.partial_begin()
        state.set_metrics(None, None)  # must exist and not raise
        state.set_metrics(object(), object())

    def test_state_pickles(self, named_learner, rng):
        _, learner = named_learner
        state = learner.partial_begin()
        for x in rng.normal(0.0, 1.0, 300).tolist():
            learner.partial_add(state, x)
        clone = pickle.loads(pickle.dumps(state))
        assert clone.count == state.count
        assert clone.moments() == state.moments()

    def test_memory_bounded_for_growing_windows(self, named_learner, rng):
        """The tentpole: retained bytes must not scale with the window."""
        _, learner = named_learner
        state = learner.partial_begin()
        values = rng.normal(0.0, 1.0, 3000)
        for x in values[:1500].tolist():
            learner.partial_add(state, x)
        bytes_small = state.nbytes
        for x in values[1500:].tolist():
            learner.partial_add(state, x)
        bytes_large = state.nbytes
        # Doubling the unevicted window must not double the state: the
        # chunk ring pair-merges instead of growing.
        assert bytes_large < bytes_small * 1.75


class TestSlidingSemantics:
    def test_quantile_distribution_tracks_window(self, rng):
        learner = QuantileSketchLearner(k=128, chunk_size=32)
        state = learner.partial_begin()
        window = 400
        # Phase 1 centered at 0, phase 2 centered at 10: after the
        # window slides fully into phase 2, the old mass must be gone.
        stream = np.concatenate(
            [rng.normal(0.0, 1.0, 600), rng.normal(10.0, 1.0, 1400)]
        )
        fill = 0
        for x in stream.tolist():
            learner.partial_add(state, x)
            if fill >= window:
                learner.partial_evict(state, None)
            else:
                fill += 1
        dist = learner.partial_distribution(state)
        assert dist.mean() == pytest.approx(10.0, abs=1.0)
        mean, _, _ = learner.partial_moments(state)
        assert mean == pytest.approx(10.0, abs=0.5)

    def test_histogram_learner_counts_are_exact_unevicted(self, rng):
        learner = HistogramSynopsisLearner(EDGES, chunk_size=64)
        state = learner.partial_begin()
        sample = rng.normal(0.0, 1.0, 512)
        for x in sample.tolist():
            learner.partial_add(state, x)
        dist = learner.partial_distribution(state)
        expected, _ = np.histogram(np.clip(sample, -4.0, 4.0), bins=EDGES)
        assert np.allclose(
            dist.probabilities, expected / expected.sum(), atol=1e-12
        )
        # No evictions, nothing clamped: zero synopsis error.
        info = learner.partial_accuracy(state)
        assert info.synopsis_error == 0.0

    def test_frequency_learner_heavy_hitters(self, rng):
        learner = FrequencySketchLearner(
            cm_width=256, support_size=8, chunk_size=64
        )
        state = learner.partial_begin()
        values = rng.choice(
            [1.0, 2.0, 3.0], size=900, p=[0.6, 0.3, 0.1]
        )
        for x in values.tolist():
            learner.partial_add(state, x)
        dist = learner.partial_distribution(state)
        probs = dict(zip(dist.support.tolist(), dist.probabilities.tolist()))
        assert probs[1.0] == pytest.approx(0.6, abs=0.08)
        assert probs[2.0] == pytest.approx(0.3, abs=0.08)
        f2 = learner.partial_second_moment(state)
        truth = float(np.sum(np.unique(values, return_counts=True)[1] ** 2.0))
        assert f2 == pytest.approx(truth, rel=0.35)

    def test_empty_window_raises(self):
        learner = QuantileSketchLearner()
        state = learner.partial_begin()
        with pytest.raises(LearningError):
            learner.partial_distribution(state)
        with pytest.raises(LearningError):
            learner.partial_accuracy(state)


#: A two-chunk ring of four-value chunks: a 40-value window runs through
#: the one-chunk phase, ring doublings and chunk drops within 200 values.
SMALL_RING = {"chunk_count": 2, "chunk_size": 4}
RING_FACTORIES = {
    "sketch-quantile": lambda: QuantileSketchLearner(k=16, **SMALL_RING),
    "sketch-frequency": lambda: FrequencySketchLearner(
        cm_width=64, support_size=8, **SMALL_RING
    ),
    "sketch-histogram": lambda: HistogramSynopsisLearner(
        EDGES, **SMALL_RING
    ),
}


def _emission_arrays(distribution):
    """The learned distribution's support (or edges) and probabilities."""
    support = (
        distribution.support
        if isinstance(distribution, DiscreteDistribution)
        else distribution.edges
    )
    return support.tobytes(), distribution.probabilities.tobytes()


def _cold_emission(learner, state, confidence):
    """The emission recomputed with every cache of ``state`` cleared.

    The copy's ``merged()`` folds the chunk synopses one by one and its
    moments fold every chunk, so nothing computed for an earlier ring
    state can reach the result.
    """
    cold = copy.deepcopy(state)
    cold._clear_memos()
    return (
        learner.partial_distribution(cold),
        learner.partial_accuracy(cold, confidence),
    )


class TestEmissionCaches:
    @pytest.mark.parametrize("name", sorted(RING_FACTORIES))
    def test_every_emission_matches_cold_recompute(self, name, rng):
        learner = RING_FACTORIES[name]()
        window, confidence = 40, 0.9
        op = RollingLearnOperator(
            "x",
            window,
            learner=learner,
            accuracy_output="accuracy",
            confidence=confidence,
            emit_partial=True,
        )
        sink = CollectSink()
        pipeline = Pipeline([op, sink])
        # Rounded values repeat, so the frequency synopsis sees ties.
        values = np.round(rng.normal(0.0, 1.5, 200), 1)
        one_chunk = doublings = drops = 0
        for x in values.tolist():
            chunk_size, pending = op._state.chunk_size, op._state.pending
            emitted = len(sink.results)
            pipeline.push(UncertainTuple({"x": x}))
            state = op._state
            doublings += state.chunk_size > chunk_size
            drops += state.pending < pending
            if len(sink.results) == emitted:
                continue
            one_chunk += len(state._chunks) == 1
            out = sink.results[-1]
            distribution, info = _cold_emission(learner, state, confidence)
            assert _emission_arrays(
                out.value("learned").distribution
            ) == _emission_arrays(distribution)
            assert out.value("accuracy") == info
        assert len(sink.results) == values.size - 1
        assert one_chunk >= 2 and doublings >= 1 and drops >= 1

    def test_caches_stay_out_of_pickles_and_copies(self, named_learner, rng):
        name, learner = named_learner
        state = learner.partial_begin()
        values = (
            np.round(rng.normal(0.0, 1.5, 400), 1)
            if name == "sketch-frequency"
            else rng.normal(0.0, 1.0, 400)
        )
        for x in values.tolist():
            learner.partial_add(state, x)
        for _ in range(100):
            learner.partial_evict(state, None)
        before = pickle.dumps(state)
        distribution = learner.partial_distribution(state)
        info = learner.partial_accuracy(state)
        assert pickle.dumps(state) == before
        assert pickle.dumps(copy.deepcopy(state)) == before
        for clone in (pickle.loads(before), copy.deepcopy(state)):
            assert _emission_arrays(
                learner.partial_distribution(clone)
            ) == _emission_arrays(distribution)
            assert learner.partial_accuracy(clone) == info


def _stream(name, rng, count):
    # Rounded values repeat, so the frequency synopsis sees ties.
    if name == "sketch-frequency":
        return np.round(rng.normal(0.0, 1.5, count), 1).tolist()
    return rng.normal(0.0, 1.5, count).tolist()


def _emission_pickles(distributions, infos):
    return [pickle.dumps(pair) for pair in zip(distributions, infos)]


class TestBatchEmissions:
    """``partial_emissions`` over snapshots equals one-state reads."""

    def test_batch_equals_per_state_reads(self, named_learner, rng):
        name, learner = named_learner
        state = learner.partial_begin()
        snapshots, expected = [], []
        for i, x in enumerate(_stream(name, rng, 300)):
            learner.partial_add(state, x)
            if i >= 150:
                learner.partial_evict(state, None)
            if state.count >= 2:
                snapshots.append(learner.partial_snapshot(state))
                expected.append(
                    (
                        learner.partial_distribution(state),
                        learner.partial_accuracy(state, 0.9),
                    )
                )
        distributions, infos = learner.partial_emissions(snapshots, 0.9)
        assert _emission_pickles(distributions, infos) == [
            pickle.dumps(pair) for pair in expected
        ]
        plain, none = learner.partial_emissions(snapshots, None)
        assert none is None
        assert [pickle.dumps(d) for d in plain] == [
            pickle.dumps(d) for d in distributions
        ]

    def test_snapshot_does_not_alias_the_live_chunk(
        self, named_learner, rng
    ):
        name, learner = named_learner
        state = learner.partial_begin()
        values = _stream(name, rng, 40)
        for x in values[:20]:
            learner.partial_add(state, x)
        # One chunk: the merged synopsis is the live chunk itself.
        assert len(state._chunks) == 1
        snapshot = learner.partial_snapshot(state)
        before = (
            learner.partial_distribution(state),
            learner.partial_accuracy(state, 0.9),
        )
        for x in values[20:]:
            learner.partial_add(state, x)
        after = learner.partial_emissions([snapshot], 0.9)
        assert _emission_pickles(*after) == [pickle.dumps(before)]

    def test_accuracy_needs_two_values(self, named_learner):
        _, learner = named_learner
        state = learner.partial_begin()
        learner.partial_add(state, 1.0)
        snapshot = learner.partial_snapshot(state)
        distributions, _ = learner.partial_emissions([snapshot], None)
        assert len(distributions) == 1
        with pytest.raises(LearningError, match=">= 2"):
            learner.partial_emissions([snapshot], 0.9)


def _reference_quantiles(sketch, qs):
    """One sketch's quantile read, the way it was done per sketch."""
    values, weights = [], []
    for level, buffer in enumerate(sketch._levels):
        values.extend(buffer)
        weights.extend([1 << level] * len(buffer))
    order = np.argsort(np.asarray(values), kind="stable")
    items = np.asarray(values)[order]
    cumulative = np.cumsum(np.asarray(weights, dtype=np.int64)[order])
    indices = np.searchsorted(cumulative, qs * sketch.n, side="left")
    out = items[np.minimum(indices, len(items) - 1)]
    out[qs == 0.0] = sketch.minimum
    out[qs == 1.0] = sketch.maximum
    return out


class TestReadQuantiles:
    def test_rows_equal_one_sketch_reads(self, rng):
        sketches = []
        for count in (1, 2, 7, 300, 5000, 20000):
            sketch = KllSketch(16)
            # Integer values: long runs of ties across levels.
            for x in rng.integers(0, 40, count).astype(float).tolist():
                sketch.update(x)
            sketches.append(sketch)
        grids = (
            np.linspace(0.0, 1.0, 11),
            np.linspace(0.0, 1.0, 101),
            np.sort(rng.random(50)),
            np.asarray([0.1, 0.3, 0.7]),
        )
        for qs in grids:
            rows = read_quantiles([s.items() for s in sketches], qs)
            for sketch, row in zip(sketches, rows):
                expected = _reference_quantiles(sketch, qs)
                assert row.tobytes() == expected.tobytes()
                assert sketch.quantiles(qs).tobytes() == expected.tobytes()

    def test_items_is_a_copy(self):
        sketch = KllSketch(16)
        for x in (3.0, 1.0, 2.0):
            sketch.update(x)
        items = sketch.items()
        sketch.update(0.5)
        assert items.values.tolist() == [1.0, 2.0, 3.0]
        assert items.n == 3 and items.minimum == 1.0


class TestSynopsesRejectNonFinite:
    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), -float("inf")]
    )
    def test_every_synopsis_raises_and_keeps_its_state(self, bad):
        synopses = [
            KllSketch(16),
            HistogramSynopsis([0.0, 1.0, 2.0]),
            CountMinSketch(16, 3),
            AmsSketch(16, 3),
        ]
        for synopsis in synopses:
            synopsis.update(1.5)
            before = pickle.dumps(synopsis)
            with pytest.raises(LearningError, match="finite"):
                synopsis.update(bad)
            assert pickle.dumps(synopsis) == before
