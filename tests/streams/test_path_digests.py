"""Pinned sink digests: one operator code path reproduces the old two.

Operators used to implement a per-tuple ``process`` beside a batched
``process_many``; suites compared ``Pipeline.run`` with
``Pipeline.run_batched`` to keep the two copies in step.  Before the
per-tuple copy was deleted, the sha256 of the pickled sink contents of
every pipeline those suites compare was recorded here, per execution
mode.  The single batch path must reproduce each digest.

``run`` now feeds one-row batches.  For the adaptive bootstrap that
means the vectorized escalation replaces the per-tuple schedule; the
two drew the same values in the same order, so its ``run`` digest is
unchanged too.
"""

import hashlib
import io
import pickle

import numpy as np
import pytest
import scipy

from repro.core.coupled import ThreeValued
from repro.core.dfsample import DfSized
from repro.core.predicates import FieldStats, MTest
from repro.distributions.gaussian import GaussianDistribution
from repro.experiments.fig5_throughput import (
    fig5c_pipelines,
    fig5f_pipelines,
    make_stream,
)
from repro.obs import Observer, TelemetryConfig, TraceConfig
from repro.streams.engine import Pipeline
from repro.streams.groupby import GroupedAggregate
from repro.streams.join import TagSide, WindowJoin
from repro.streams.operators import (
    CollectSink,
    Derive,
    ProbabilisticFilter,
    Project,
    RollingLearnOperator,
    Select,
    SignificanceFilter,
    WindowAggregate,
    TimeWindowAggregate,
)
from repro.streams.tuples import UncertainTuple


def _gaussian_tuples(count, seed, timestamps=False):
    rng = np.random.default_rng(seed)
    return [
        UncertainTuple(
            {
                "g": int(rng.integers(0, 3)),
                "x": DfSized(
                    GaussianDistribution(
                        float(rng.normal(0, 5)),
                        float(rng.uniform(0.1, 2.0)),
                    ),
                    int(rng.integers(2, 30)),
                ),
            },
            probability=float(rng.uniform(0.5, 1.0)),
            timestamp=float(i // 3) if timestamps else None,
        )
        for i in range(count)
    ]


def _mixed_tuples(count, seed):
    rng = np.random.default_rng(seed)
    return [
        UncertainTuple(
            {
                "x": float(rng.normal()),
                "k": i,
                "g": DfSized(
                    GaussianDistribution(float(i), float(i) + 1.0),
                    None if i % 3 == 0 else 10 + i,
                ),
                "points": rng.normal(0.0, 1.0, 5),
                "tag": f"t{i % 2}",
            },
            probability=0.5 + i / (2 * count),
            timestamp=float(i),
        )
        for i in range(count)
    ]


def _observations(count):
    return [
        UncertainTuple({"obs": float((i * 37 % 101) * 0.5 + 1.0)})
        for i in range(count)
    ]


def _windowed():
    return [
        Derive("y", lambda t: t.dfsized("x").distribution.mean() * 2.0),
        Select(lambda t: t.value("y") > -6.0),
        WindowAggregate("x", 7),
        WindowAggregate("avg", 5, agg="avg", output="wavg"),
        GroupedAggregate(
            "g", "wavg", 4, agg="sum", output="gsum", emit_every=False
        ),
    ]


def _emitting():
    return [
        ProbabilisticFilter(
            lambda t: 0.9 if t.value("g") != 1 else 0.4, threshold=0.3
        ),
        WindowAggregate("x", 5),
        Project(["g", "avg"]),
        WindowAggregate("avg", 3, agg="max", output="peak"),
    ]


def _grouped_ttl():
    return [GroupedAggregate("g", "x", 3, agg="avg", expire_after=5)]


def _time_window():
    return [
        TimeWindowAggregate("x", 4.0, agg="sum", output="tsum"),
        TimeWindowAggregate("x", 2.0, agg="min", output="tmin"),
    ]


def _significance(keep_unsure):
    def factory(tup):
        return MTest(
            FieldStats.from_dfsized(tup.dfsized("x")), ">", 0.0, 0.05
        )

    return lambda: [SignificanceFilter(factory, keep_unsure=keep_unsure)]


def _join():
    return [
        WindowJoin(
            "g",
            4,
            side_of=lambda t: "left" if t.probability > 0.75 else "right",
        )
    ]


def _tag_then_join():
    return [TagSide("left"), Project(["g", "__join_side__"])]


def _columnar():
    return [
        Select(lambda t: t.value("k") % 2 == 0),
        Derive("k2", lambda t: t.value("k") * 2),
        Project(["k", "g", "k2", "points"]),
    ]


def _observed():
    return [
        Select(lambda t: t.value("x").distribution.mu > -4.0),
        WindowAggregate("x", 8),
    ]


def _readings(count, seed, decimals=1):
    # Rounded readings repeat, so the synopses see ties.
    rng = np.random.default_rng(seed)
    values = np.round(rng.normal(10.0, 3.0, count), decimals)
    return [UncertainTuple({"obs": float(x)}) for x in values]


def _rolling(learner, window=16, **kwargs):
    return lambda: [RollingLearnOperator("obs", window, learner, **kwargs)]


def _fig5(factory):
    return lambda: factory().operators[:-1]


_FIG5C = fig5c_pipelines(seed=3, target_relative_width=0.05)
_FIG5F = fig5f_pipelines()

#: scenario -> (operator-list factory, source factory)
SCENARIOS = {
    "batched.windowed": (_windowed, lambda: _gaussian_tuples(120, 11)),
    "batched.emitting": (_emitting, lambda: _gaussian_tuples(120, 12)),
    "batched.grouped_ttl": (_grouped_ttl, lambda: _gaussian_tuples(90, 13)),
    "batched.time_window": (
        _time_window, lambda: _gaussian_tuples(90, 14, timestamps=True)
    ),
    "batched.significance": (
        _significance(False), lambda: _gaussian_tuples(90, 15)
    ),
    "batched.significance_unsure": (
        _significance(True), lambda: _gaussian_tuples(90, 15)
    ),
    "batched.join": (_join, lambda: _gaussian_tuples(60, 16)),
    "batched.tag": (_tag_then_join, lambda: _gaussian_tuples(20, 17)),
    "columnar.mixed": (_columnar, lambda: _mixed_tuples(40, 3)),
    "observability.window": (_observed, lambda: _gaussian_tuples(120, 5)),
    "rolling.gaussian": (_rolling("gaussian"), lambda: _observations(300)),
    "rolling.histogram": (
        _rolling("histogram", edges=[0.0, 10.0, 25.0, 40.0, 60.0]),
        lambda: _observations(120),
    ),
    "rolling.sketch": (
        _rolling("sketch-quantile"), lambda: _observations(200)
    ),
    # Multi-chunk rings: a 256 window over four 16-value chunks runs
    # through ring doublings, chunk drops and merge-time compaction.
    "rolling.sketch_ring": (
        _rolling("sketch-quantile", 256, k=32, chunk_count=4, chunk_size=16),
        lambda: _readings(1200, 21),
    ),
    "rolling.sketch_histogram": (
        _rolling(
            "sketch-histogram",
            64,
            edges=[4.0, 7.0, 9.0, 10.0, 11.0, 13.0, 16.0],
            chunk_count=2,
            chunk_size=4,
        ),
        lambda: _readings(400, 22),
    ),
    "rolling.sketch_frequency": (
        _rolling(
            "sketch-frequency",
            64,
            cm_width=64,
            support_size=8,
            chunk_count=2,
            chunk_size=4,
        ),
        lambda: _readings(400, 23, decimals=0),
    ),
    **{
        f"fig5c.{name}": (_fig5(factory), lambda: make_stream(300, 3))
        for name, factory in _FIG5C.items()
    },
    "fig5c.bootstrap adaptive (width 0.5)": (
        _fig5(
            fig5c_pipelines(seed=3, target_ci_width=0.5)[
                "bootstrap adaptive"
            ]
        ),
        lambda: make_stream(300, 3),
    ),
    **{
        f"fig5f.{name}": (_fig5(factory), lambda: make_stream(300, 3))
        for name, factory in _FIG5F.items()
    },
}

#: mode -> how the pipeline runs its source
MODES = {
    "run": lambda pipe, source: pipe.run(source),
    "batched_1": lambda pipe, source: pipe.run_batched(source, 1),
    "batched_7": lambda pipe, source: pipe.run_batched(source, 7),
    "batched_64": lambda pipe, source: pipe.run_batched(source, 64),
    "run_observed": lambda pipe, source: _observe(pipe).run(source),
    "batched_observed_16": (
        lambda pipe, source: _observe(pipe).run_batched(source, 16)
    ),
}


def _observe(pipe):
    pipe.attach(Observer(trace=TraceConfig(), frames=TelemetryConfig(8)))
    return pipe


class _StablePickler(pickle.Pickler):
    """Pickles NumPy values as dtype, shape and raw bytes.

    NumPy's own pickle layout names internal modules that move between
    releases; the values themselves do not.
    """

    def reducer_override(self, obj):
        if isinstance(obj, (np.ndarray, np.generic)):
            arr = np.asarray(obj)
            header = f"{arr.dtype.str}{arr.shape}".encode()
            return bytes, (header + arr.tobytes(),)
        return NotImplemented


def sink_digest(scenario, mode):
    operators, source = SCENARIOS[scenario]
    pipe = Pipeline([*operators(), CollectSink()])
    sink = MODES[mode](pipe, source())
    # Per-tuple pickles: a whole-list pickle would also encode which
    # equal objects happen to be shared between tuples.
    digest = hashlib.sha256()
    for tup in sink.results:
        buffer = io.BytesIO()
        _StablePickler(buffer, protocol=4).dump(tup)
        digest.update(buffer.getvalue())
    return digest.hexdigest()[:24]


#: Recorded with per-tuple ``process`` and batched ``process_many``
#: still side by side.  A scenario whose modes all agreed pins one
#: digest; the adaptive bootstrap escalates per batch, so its digest
#: depends on the batch size and is pinned per mode.
PINNED = {
    "batched.emitting": "0ac3ce6f12f9fa9689b206c5",
    "batched.grouped_ttl": "7799aa9db2aebc244e88ba11",
    "batched.join": "f8e7137ef9029932365fb19b",
    "batched.significance": "3e9ae19ef592b629e753b1df",
    "batched.significance_unsure": "281be3c5fb923600fbc22e5e",
    "batched.tag": "df4b4cff4449a04d1fb7ad18",
    "batched.time_window": "b6043fc5c0f4b291a3db8052",
    "batched.windowed": "5f811d88254343b05cac1979",
    "columnar.mixed": "de70466e322a35a49613a0d6",
    "fig5c.QP only": "25ffb90b626e7c90e7b027aa",
    "fig5c.analytic": "2efb21776f0186b5216bd0ae",
    "fig5c.bootstrap": "fb2b85667a85485ede376964",
    "fig5c.bootstrap adaptive": {
        "run": "5bcd91fefcc23e65b7efce6d",
        "batched_1": "5bcd91fefcc23e65b7efce6d",
        "batched_7": "bcd85c84f6d09c5533e0035a",
        "batched_64": "80152aaa6e9b4274a37cc4d1",
        "run_observed": "5bcd91fefcc23e65b7efce6d",
        "batched_observed_16": "7401e4f18cdfb1835ebcb447",
    },
    "fig5c.bootstrap adaptive (width 0.5)": {
        "run": "f91fe7bd410d29542096f752",
        "batched_1": "f91fe7bd410d29542096f752",
        "batched_7": "b019f71d226fb0e6d6fc350d",
        "batched_64": "37b33f64e1f5189a022abb33",
        "run_observed": "f91fe7bd410d29542096f752",
        "batched_observed_16": "a8a586ca8d2dffa635afffff",
    },
    "fig5f.mTest": "25ffb90b626e7c90e7b027aa",
    "fig5f.mdTest": "25ffb90b626e7c90e7b027aa",
    "fig5f.no predicate": "25ffb90b626e7c90e7b027aa",
    "fig5f.pTest": "25ffb90b626e7c90e7b027aa",
    "observability.window": "7812687e305cd172342f24d4",
    "rolling.gaussian": "71b4d93a2cac0a23b657ba60",
    "rolling.histogram": "59dff39895681fa6bfce63ff",
    "rolling.sketch": "b9c298dbe6ccb3a1ba9f2717",
    # Recorded while sketch emissions were still built one row at a
    # time (``partial_distribution`` / ``partial_accuracy`` per slide),
    # before the batch emission path replaced them.
    "rolling.sketch_frequency": "9a16066fc7dfb240b5498107",
    "rolling.sketch_histogram": "1c8dc9f20ce0cfdd301537d6",
    "rolling.sketch_ring": "8092ae9fa8b5f04177dea468",
}


#: The digests hash floats from NumPy sampling and SciPy quantiles, so
#: they hold for the library versions they were recorded with.
RECORDED_WITH = {"numpy": "2.4.6", "scipy": "1.17.1"}


@pytest.mark.parametrize(
    "scenario,mode",
    [(scenario, mode) for scenario in SCENARIOS for mode in MODES],
)
def test_sink_digest_is_pinned(scenario, mode):
    running = {"numpy": np.__version__, "scipy": scipy.__version__}
    if running != RECORDED_WITH:
        pytest.skip(f"digests recorded with {RECORDED_WITH}, not {running}")
    expected = PINNED[scenario]
    if isinstance(expected, dict):
        expected = expected[mode]
    assert sink_digest(scenario, mode) == expected


def test_scenarios_emit_something():
    # A digest of an empty sink would pin nothing.
    for scenario, (operators, source) in SCENARIOS.items():
        sink = Pipeline([*operators(), CollectSink()]).run(source())
        assert len(sink.results) > 0, scenario


def test_significance_scenarios_reach_every_outcome():
    operators, source = SCENARIOS["batched.significance_unsure"]
    observer = Observer()
    Pipeline([*operators(), CollectSink()], observer=observer).run(source())
    for value in ThreeValued:
        name = f"pipeline.00.SignificanceFilter.decisions.{value.name.lower()}"
        assert observer.metrics.get(name).value > 0, value
