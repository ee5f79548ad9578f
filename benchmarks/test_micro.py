"""Microbenchmarks of the per-tuple hot paths.

Unlike the figure benchmarks (statistical sweeps run once), these use
pytest-benchmark's timing loop to track per-call cost of the operations
the stream engine performs for every tuple: interval computation,
bootstrapping, hypothesis testing, learning, and sliding aggregation.
"""

import pytest

from repro.core.analytic import distribution_accuracy
from repro.core.bootstrap import bootstrap_accuracy_info
from repro.core.coupled import coupled_tests
from repro.core.dfsample import DfSized
from repro.core.predicates import FieldStats, MdTest, MTest, PTest
from repro.distributions.gaussian import GaussianDistribution
from repro.learning.gaussian_learner import GaussianLearner
from repro.learning.histogram_learner import HistogramLearner
from repro.query.executor import ExecutorConfig, QueryExecutor
from repro.streams.engine import Pipeline
from repro.streams.operators import CountingSink, WindowAggregate
from repro.streams.tuples import UncertainTuple


@pytest.fixture(scope="module")
def gaussian_field() -> DfSized:
    return DfSized(GaussianDistribution(100.0, 25.0), 20)


def test_micro_analytic_accuracy(benchmark, gaussian_field):
    benchmark(
        distribution_accuracy,
        gaussian_field.distribution, 20, 0.9,
    )


def test_micro_bootstrap_accuracy(benchmark, rng):
    values = rng.normal(100, 5, 400)
    benchmark(bootstrap_accuracy_info, values, 20, 0.9)


def test_micro_mtest(benchmark):
    field = FieldStats(100.0, 5.0, 20)
    predicate = MTest(field, ">", 99.0, 0.05)
    benchmark(predicate.run)


def test_micro_coupled_mtest(benchmark):
    field = FieldStats(100.0, 5.0, 20)
    predicate = MTest(field, ">", 99.9, 0.05)
    benchmark(coupled_tests, predicate, 0.05, 0.05)


def test_micro_coupled_mdtest(benchmark):
    x = FieldStats(100.0, 5.0, 20)
    y = FieldStats(99.0, 5.0, 20)
    predicate = MdTest(x, y, ">", 0.0, 0.05)
    benchmark(coupled_tests, predicate, 0.05, 0.05)


def test_micro_coupled_ptest(benchmark):
    predicate = PTest(0.62, 20, 0.5, ">", 0.05)
    benchmark(coupled_tests, predicate, 0.05, 0.05)


def test_micro_gaussian_learning(benchmark, rng):
    points = rng.normal(100, 10, 20)
    learner = GaussianLearner()
    benchmark(learner.learn, points)


def test_micro_histogram_learning(benchmark, rng):
    points = rng.normal(100, 10, 50)
    learner = HistogramLearner(bucket_count=8)
    benchmark(learner.learn, points)


def test_micro_sliding_average_pipeline(benchmark, rng):
    learner = GaussianLearner()
    tuples = [
        UncertainTuple(
            {"value": learner.learn(rng.normal(100, 5, 20)).as_dfsized()}
        )
        for _ in range(1000)
    ]

    def run() -> int:
        pipe = Pipeline(
            [WindowAggregate("value", 100), CountingSink()]
        )
        pipe.run(tuples)
        return pipe.sink.count

    assert benchmark(run) == 1000


def test_micro_query_executor_per_tuple(benchmark, gaussian_field):
    executor = QueryExecutor(
        "SELECT v FROM s WHERE v > 95 PROB 0.5",
        config=ExecutorConfig(seed=0),
    )
    tup = UncertainTuple({"v": gaussian_field})
    benchmark(executor.execute_one, tup)


def test_micro_critical_values_memoized(benchmark):
    """Hot-path quantile lookup: one cache entry vs three scipy solves."""
    from repro.core.analytic import critical_values

    critical_values(0.9, 19)  # prime the cache; steady state is all hits
    benchmark(critical_values, 0.9, 19)


def test_micro_critical_values_cold(benchmark):
    """The uncached cost the memoization removes (for comparison)."""
    from repro.core.analytic import critical_values

    def cold() -> tuple[float, float, float]:
        critical_values.cache_clear()
        return critical_values(0.9, 19)

    benchmark(cold)


def test_micro_accuracy_from_moments_constant_df(benchmark, rng):
    """Batched Theorem 1 on a constant-df batch (the stream shape).

    With one distinct sample size the unique-df fast path reduces the
    interval pass to one memoized table entry per quantile family.
    """
    from repro.core.analytic import accuracy_from_moments

    means = rng.normal(100.0, 5.0, 256)
    variances = rng.uniform(1.0, 9.0, 256)
    benchmark(accuracy_from_moments, means, variances, 20, 0.9)


def test_micro_vtest(benchmark):
    from repro.core.predicates import VTest

    predicate = VTest(FieldStats(0.0, 2.0, 20), ">", 3.0, 0.05)
    benchmark(predicate.run)


def test_micro_histogram_convolution(benchmark):
    from repro.distributions.convolution import convolve_histograms
    from repro.distributions.histogram import HistogramDistribution

    a = HistogramDistribution(
        list(range(9)), [0.1, 0.1, 0.2, 0.1, 0.1, 0.1, 0.1, 0.2]
    )
    b = HistogramDistribution(
        list(range(0, 18, 2)), [0.2, 0.1, 0.1, 0.2, 0.1, 0.1, 0.1, 0.1]
    )
    benchmark(convolve_histograms, a, b)


def test_micro_db_insert_loop(benchmark):
    """Ingest-only baseline: one ``insert`` call per tuple.

    Each call re-resolves the stream state, validates one tuple, and
    walks the (empty) watcher list — the per-tuple overhead
    ``insert_many`` hoists.
    """
    from repro.db import StreamDatabase
    from repro.streams.tuples import Schema

    tuples = [UncertainTuple({"x": float(i)}) for i in range(2000)]

    def run() -> int:
        db = StreamDatabase()
        db.create_stream("s", Schema([("x", "number")]))
        for tup in tuples:
            db.insert("s", tup)
        return db.count("s")

    assert benchmark(run) == 2000


def test_micro_db_insert_many(benchmark):
    """Batched ingest: state resolved once, schema validated per batch."""
    from repro.db import StreamDatabase
    from repro.streams.tuples import Schema

    tuples = [UncertainTuple({"x": float(i)}) for i in range(2000)]

    def run() -> int:
        db = StreamDatabase()
        db.create_stream("s", Schema([("x", "number")]))
        db.insert_many("s", tuples)
        return db.count("s")

    assert benchmark(run) == 2000


def test_micro_tuple_serialisation(benchmark, rng):
    from repro.learning.histogram_learner import HistogramLearner
    from repro.persist import tuple_from_dict, tuple_to_dict

    fitted = HistogramLearner(bucket_count=8).learn(rng.normal(50, 5, 40))
    tup = UncertainTuple({"road": 1.0, "delay": fitted.as_dfsized()})

    def round_trip():
        return tuple_from_dict(tuple_to_dict(tup))

    benchmark(round_trip)
