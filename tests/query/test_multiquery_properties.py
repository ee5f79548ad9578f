"""Property suite: shared-subplan execution is byte-identical to naive.

The acceptance contract of the multi-query engine, under randomized
query mixes sharing anywhere from 0% to 100% of their prefix: for every
insert order (one-at-a-time and batched), the shared path must produce

* the same callback order — ``(query, result)`` events in sequence,
* per-result ``pickle`` bytes identical to the naive per-query loop
  (covering attribute aliasing, accuracy intervals, decisions,
  probability intervals, sort keys, and the source tuple),
* the same per-query ``matches`` counters, and
* the same ``describe()`` renderings.

Query shapes deliberately cover every dispatch class: vectorizable
threshold residuals (both operand orders, PROB thresholds at the
saturation edges 1e-300 and 1), single and coupled mTest residuals
(``keep_unsure`` on and off), the same kernel shapes under ORDER BY
(column and Monte-Carlo sort keys), scalar residuals (equality, OR
trees), star and aliased projections, zero-variance and
exact-sample-size fields, sample sizes on both sides of the t/z cutoff,
sub-unit membership probabilities, and per-query config overrides that
split fingerprint groups.  Histogram columns (one bucket count, or
mixed bucket counts that leave the column to the scalar residual) get
their own shapes: repeated ``(constant, threshold)`` bucket specs,
``mTest``, and a two-conjunct single, over batches whose rows may
lack an attribute and whose Gaussian column may carry more than 16
distinct sample sizes.
"""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dfsample import DfSized
from repro.db import StreamDatabase
from repro.distributions.gaussian import GaussianDistribution
from repro.distributions.histogram import HistogramDistribution
from repro.errors import ReproError
from repro.query.executor import ExecutorConfig
from repro.query.planner import compile_query
from repro.query.residual import kernel_conjuncts
from repro.streams.tuples import UncertainTuple

_SELECTS = (
    "a, b",
    "*",
    "a",
    "b AS bee, a",
    "a AS first, b AS second, c",
)

_WHERES = (
    "",
    "WHERE a > {c1} PROB {tau}",
    "WHERE {c1} < a PROB {tau}",
    "WHERE a <= {c1}",
    "WHERE a >= {c1} PROB {tau} AND c > {c2}",
    "WHERE b < {c1}",
    "WHERE a = {c1}",
    "WHERE a > {c1} OR b > {c2}",
    "WHERE mTest(a, '>', {c1}, 0.05)",
    "WHERE mTest(a, '>', {c1}, 0.05, 0.05)",
    "WHERE mTest(a, '<', {c1}, 0.05, 0.05)",
    "WHERE mTest(a, '<>', {c1}, 0.05, 0.05)",
    "WHERE a > {c1} ORDER BY a",
)

_TAUS = (1e-300, 0.0000000001, 0.25, 0.5, 0.75, 0.9999, 1)

_CONFIGS = (
    None,  # inherit the db default (analytic)
    ExecutorConfig(confidence=0.8),
    ExecutorConfig(accuracy_method="none"),
    ExecutorConfig(keep_unsure=True),
    ExecutorConfig(
        accuracy_method="bootstrap",
        seed=5,
        mc_samples=32,
        bootstrap_resamples=4,
    ),
)


@st.composite
def query_mixes(draw):
    count = draw(st.integers(min_value=1, max_value=6))
    queries = []
    for _ in range(count):
        select = draw(st.sampled_from(_SELECTS))
        where = draw(st.sampled_from(_WHERES))
        tau = draw(st.sampled_from(_TAUS))
        c1 = draw(st.integers(min_value=-3, max_value=6))
        c2 = draw(st.integers(min_value=-3, max_value=6))
        text = f"SELECT {select} FROM t " + where.format(
            c1=c1, c2=c2, tau=tau
        )
        config = draw(st.sampled_from(_CONFIGS))
        queries.append((text.strip(), config))
    return queries


@st.composite
def tuple_batches(draw, sampled=False):
    """Gaussian batches; ``sampled`` keeps every ``a`` at ``n >= 2``.

    Without ``sampled``, single observations and exact sample sizes
    make every mTest residual raise somewhere in most batches.
    """
    count = draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    # Some rows carry a Gaussian ``d`` the others lack: a non-uniform
    # layout that only ``SELECT *`` reads.
    extra = draw(st.booleans())
    rng = np.random.default_rng(seed)
    batch = []
    for _ in range(count):
        sigma2 = float(rng.uniform(0.0, 9.0))
        if rng.random() < 0.2:
            sigma2 = 0.0  # deterministic-in-disguise Gaussian
        n = int(rng.integers(2 if sampled else 1, 30))
        if rng.random() < 0.4:
            # Straddle SMALL_SAMPLE_MEAN_CUTOFF = 30: the t reference
            # below it, the z reference from it on.
            n = int(rng.choice([29, 30, 31, 1000]))
        if rng.random() < 0.15 and not sampled:
            n = None  # exact sample size: no accuracy attaches
        attributes = {
            "a": DfSized(
                GaussianDistribution(float(rng.normal(1.0, 3.0)), sigma2),
                n,
            ),
            "b": float(rng.normal(0.0, 3.0)),
            "c": int(rng.integers(-5, 10)),
        }
        if extra and rng.random() < 0.5:
            attributes["d"] = DfSized(
                GaussianDistribution(float(rng.normal(0.0, 1.0)), 1.0),
                int(rng.integers(2, 40)),
            )
        batch.append(
            UncertainTuple(
                attributes, probability=float(rng.uniform(0.4, 1.0))
            )
        )
    return batch


def _run(queries, batch, shared, batched):
    db = StreamDatabase(
        config=ExecutorConfig(seed=9, confidence=0.9),
        shared_subplans=shared,
    )
    db.create_stream("t")
    events = []
    for i, (text, config) in enumerate(queries):
        db.register_continuous(
            f"q{i}",
            text,
            lambda r, i=i: events.append(
                (i, pickle.dumps(r), r.describe())
            ),
            config=config,
        )
    # Executor errors (e.g. mTest on an exact-sample-size field) are
    # part of the observable behaviour: record them as a terminal
    # event instead of aborting the property.
    error = None
    try:
        if batched:
            db.insert_many("t", batch)
        else:
            for tup in batch:
                db.insert("t", tup)
    except ReproError as exc:
        error = (type(exc).__name__, str(exc))
    matches = tuple(
        db._continuous[f"q{i}"].matches for i in range(len(queries))
    )
    return events, matches, error


@settings(max_examples=40, deadline=None)
@given(queries=query_mixes(), batch=tuple_batches())
def test_shared_subplans_byte_identical_to_naive(queries, batch):
    naive = _run(queries, batch, False, False)
    naive_events, naive_matches, naive_error = naive
    # Per-tuple inserts are one-row batches, so both shared runs obey
    # the batch path's rules.
    for batched in (False, True):
        events, matches, error = _run(queries, batch, True, batched)
        if naive_error is None:
            assert (events, matches, error) == naive
        else:
            # Documented batch-path divergence: executor errors surface
            # before any of the batch's emissions, so the event stream
            # stops early — but an error must still be raised and no
            # spurious emissions may appear.
            assert error is not None
            assert events == naive_events[: len(events)]


@settings(max_examples=30, deadline=None)
@given(queries=query_mixes(), batch=tuple_batches(sampled=True))
def test_significance_residuals_byte_identical_to_naive(queries, batch):
    # Every row is a sample of n >= 2, so no mTest residual raises and
    # the batched events are compared in full, verdicts included.
    naive = _run(queries, batch, False, False)
    assert naive[2] is None
    assert _run(queries, batch, True, True) == naive


@settings(max_examples=15, deadline=None)
@given(batch=tuple_batches())
def test_identical_queries_full_prefix_share(batch):
    # 100% prefix overlap: five copies of the same query must still
    # produce five independent, identical event streams.
    queries = [("SELECT a, b FROM t WHERE a > 0 PROB 0.5", None)] * 5
    naive_events, naive_matches, naive_error = _run(
        queries, batch, False, False
    )
    events, matches, error = _run(queries, batch, True, True)
    assert naive_error is None and error is None
    assert matches == naive_matches
    assert events == naive_events


# Kernel-shaped WHERE clauses with ORDER BY: the batch path decides them
# in arrays and each result's sort key builds its own evaluation context.
_ORDERED_WHERES = (
    "WHERE a > {c1} PROB {tau}",
    "WHERE {c1} < a PROB {tau}",
    "WHERE a >= {c1} PROB {tau} AND c > {c2}",
    "WHERE b < {c1}",
    "WHERE mTest(a, '>', {c1}, 0.05, 0.05)",
    "WHERE mTest(a, '<>', {c1}, 0.05)",
)

# (ORDER BY clause; ``a * a`` draws Monte-Carlo values per result)
_ORDERS = ("ORDER BY a", "ORDER BY b DESC", "ORDER BY c", "ORDER BY a * a")

# Seeded throughout: a Monte-Carlo sort key must draw the same values
# on the naive and the shared path.
_SEEDED_CONFIGS = (
    None,
    ExecutorConfig(confidence=0.8, seed=1),
    ExecutorConfig(accuracy_method="none", seed=2),
    ExecutorConfig(keep_unsure=True, seed=3),
    ExecutorConfig(
        accuracy_method="bootstrap",
        seed=5,
        mc_samples=32,
        bootstrap_resamples=4,
    ),
)


@st.composite
def ordered_query_mixes(draw):
    count = draw(st.integers(min_value=1, max_value=5))
    queries = []
    for _ in range(count):
        # A negative constant parses as unary minus of a literal.
        where = draw(st.sampled_from(_ORDERED_WHERES)).format(
            c1=draw(st.integers(min_value=-3, max_value=6)),
            c2=draw(st.integers(min_value=-3, max_value=6)),
            tau=draw(st.sampled_from(_TAUS)),
        )
        text = (
            f"SELECT {draw(st.sampled_from(_SELECTS))} FROM t {where} "
            f"{draw(st.sampled_from(_ORDERS))}"
        )
        queries.append((text, draw(st.sampled_from(_SEEDED_CONFIGS))))
    return queries


@settings(max_examples=30, deadline=None)
@given(queries=ordered_query_mixes(), batch=tuple_batches(sampled=True))
def test_order_by_standing_queries_byte_identical_to_naive(queries, batch):
    for text, _config in queries:
        assert kernel_conjuncts(compile_query(text)) is not None
    naive = _run(queries, batch, False, False)
    assert naive[2] is None
    assert _run(queries, batch, True, False) == naive
    assert _run(queries, batch, True, True) == naive


# Histogram WHERE shapes; constants and thresholds come from short lists
# so that equal ``(constant, threshold)`` bucket specs recur.
_HISTOGRAM_WHERES = (
    "WHERE h > {c1} PROB {tau}",
    "WHERE {c1} < h PROB {tau}",
    "WHERE h <= {c1}",
    "WHERE mTest(h, '>', {c1}, 0.05, 0.05)",
    "WHERE mTest(h, '<>', {c1}, 0.1)",
    "WHERE h <= {c1} AND a > {c2} PROB {tau}",
    "WHERE h > {c1} PROB {tau} ORDER BY h",
    "WHERE h = {c1}",
    "WHERE a > {c2} PROB {tau}",
)

_HISTOGRAM_SELECTS = ("h, a", "*", "a", "b AS bee, h", "h", "h AS hist, c")

# Analytic accuracy at three confidences selects histogram columns
# through the columnar prefix products.
_HISTOGRAM_CONFIGS = _CONFIGS + (
    ExecutorConfig(confidence=0.9),
    ExecutorConfig(confidence=0.99),
)


@st.composite
def histogram_query_mixes(draw):
    count = draw(st.integers(min_value=1, max_value=6))
    queries = []
    for _ in range(count):
        where = draw(st.sampled_from(_HISTOGRAM_WHERES)).format(
            c1=draw(st.sampled_from((0, 1, 2, 3))),
            c2=draw(st.sampled_from((-1, 1))),
            tau=draw(st.sampled_from((0.25, 0.5, 0.9))),
        )
        text = f"SELECT {draw(st.sampled_from(_HISTOGRAM_SELECTS))} FROM t"
        queries.append(
            (f"{text} {where}", draw(st.sampled_from(_HISTOGRAM_CONFIGS)))
        )
    return queries


@st.composite
def histogram_batches(draw):
    """Rows with a histogram ``h``, a Gaussian ``a`` and floats ``b``/``c``.

    Drawn per batch: whether ``h`` keeps one bucket count, whether some
    rows lack ``c`` (a non-uniform layout), and whether some ``h`` have
    exact or single-sample sizes (``mTest`` raises on those) or edges so
    wide that their variance overflows.  Half the
    batches have 17 to 40 rows, with ``a`` sample sizes drawn from a
    wide range, so most of them carry more than 16 distinct sizes.
    """
    count = draw(
        st.integers(min_value=1, max_value=12)
        | st.integers(min_value=17, max_value=40)
    )
    mixed = draw(st.booleans())
    lacking = draw(st.booleans())
    flawed = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    batch = []
    for i in range(count):
        buckets = int(rng.choice([3, 5])) if mixed else 5
        edges = np.cumsum(rng.uniform(0.2, 1.5, buckets + 1)) - 1.0
        size = int(rng.integers(2, 60))
        if flawed and rng.random() < 0.2:
            size = None if rng.random() < 0.5 else 1
        if flawed and rng.random() < 0.1:
            edges = edges * 1e160
        attributes = {
            "a": DfSized(
                GaussianDistribution(
                    float(rng.normal(1.0, 3.0)), float(rng.uniform(0.0, 9.0))
                ),
                int(rng.integers(2, 2000)),
            ),
            "h": DfSized(
                HistogramDistribution(edges, rng.uniform(0.05, 1.0, buckets)),
                size,
            ),
            "b": float(rng.normal(0.0, 3.0)),
            "c": float(i),
        }
        if lacking and rng.random() < 0.3:
            del attributes["c"]
        batch.append(
            UncertainTuple(
                attributes, probability=float(rng.uniform(0.4, 1.0))
            )
        )
    return batch


@settings(max_examples=40, deadline=None)
@given(queries=histogram_query_mixes(), batch=histogram_batches())
def test_histogram_residuals_byte_identical_to_naive(queries, batch):
    naive = _run(queries, batch, False, False)
    naive_events, _naive_matches, naive_error = naive
    for batched in (False, True):
        events, matches, error = _run(queries, batch, True, batched)
        if naive_error is None:
            assert (events, matches, error) == naive
        else:
            assert error is not None
            assert events == naive_events[: len(events)]
