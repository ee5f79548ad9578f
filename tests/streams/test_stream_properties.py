"""Property-based tests for stream pipeline invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streams.engine import Pipeline
from repro.streams.operators import (
    CollectSink,
    CountingSink,
    Derive,
    ProbabilisticFilter,
    Project,
    Select,
)
from repro.streams.tuples import UncertainTuple
from repro.streams.windows import CountWindow


values_lists = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=0, max_size=40,
)


def _tuples(values, probabilities=None):
    if probabilities is None:
        probabilities = [1.0] * len(values)
    return [
        UncertainTuple({"x": float(v)}, probability=p)
        for v, p in zip(values, probabilities)
    ]


@given(values=values_lists)
@settings(max_examples=100, deadline=None)
def test_identity_pipeline_preserves_everything(values):
    sink = Pipeline([CollectSink()]).run(_tuples(values))
    assert [t.value("x") for t in sink.results] == [float(v) for v in values]


@given(values=values_lists, threshold=st.floats(-1e6, 1e6))
@settings(max_examples=100, deadline=None)
def test_select_partitions_stream(values, threshold):
    keep = Pipeline(
        [Select(lambda t: t.value("x") > threshold), CountingSink()]
    ).run(_tuples(values))
    drop = Pipeline(
        [Select(lambda t: not (t.value("x") > threshold)), CountingSink()]
    ).run(_tuples(values))
    assert keep.count + drop.count == len(values)


@given(values=values_lists)
@settings(max_examples=100, deadline=None)
def test_derive_then_project_roundtrip(values):
    pipeline = Pipeline(
        [
            Derive("y", lambda t: t.value("x") * 2.0),
            Project(["y"]),
            CollectSink(),
        ]
    )
    sink = pipeline.run(_tuples(values))
    assert [t.value("y") for t in sink.results] == [
        2.0 * float(v) for v in values
    ]
    assert all("x" not in t.attributes for t in sink.results)


@given(
    values=values_lists,
    probabilities=st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=0, max_size=40
    ),
    factor=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=100, deadline=None)
def test_probabilistic_filter_never_raises_probability(
    values, probabilities, factor
):
    count = min(len(values), len(probabilities))
    tuples = _tuples(values[:count], probabilities[:count])
    sink = Pipeline(
        [ProbabilisticFilter(lambda t: factor), CollectSink()]
    ).run(tuples)
    for result, original in zip(
        sink.results,
        [t for t in tuples if t.probability * factor > 0],
    ):
        assert result.probability <= original.probability + 1e-12


@given(
    items=st.lists(st.integers(), min_size=0, max_size=60),
    size=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=150, deadline=None)
def test_count_window_retains_last_k(items, size):
    window = CountWindow(size)
    evicted = []
    for item in items:
        out = window.add(item)
        if out is not None:
            evicted.append(out)
    kept = list(window)
    assert kept == items[-size:] if items else kept == []
    assert evicted == items[: max(0, len(items) - size)]
    assert len(kept) == min(len(items), size)
