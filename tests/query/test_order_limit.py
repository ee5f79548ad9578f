"""Tests for ORDER BY / LIMIT in the query layer."""

import copy
import pickle

import numpy as np
import pytest

import repro.query.executor as executor_module
from repro.core.dfsample import DfSized
from repro.db import StreamDatabase
from repro.distributions.gaussian import GaussianDistribution
from repro.distributions.histogram import HistogramDistribution
from repro.errors import DistributionError, ParseError, QueryError, SchemaError
from repro.query.executor import ExecutorConfig, QueryExecutor, run_query
from repro.query.parser import parse_query
from repro.query.planner import compile_query
from repro.query.residual import kernel_conjuncts
from repro.streams.tuples import Schema, UncertainTuple


def _tuples(means):
    return [
        UncertainTuple(
            {"id": float(i), "v": DfSized(GaussianDistribution(m, 1.0), 10)}
        )
        for i, m in enumerate(means)
    ]


class TestParsing:
    def test_order_by_default_ascending(self):
        query = parse_query("SELECT v FROM s ORDER BY v")
        assert query.order_by is not None
        assert not query.descending
        assert query.limit is None

    def test_order_by_desc_and_limit(self):
        query = parse_query("SELECT v FROM s ORDER BY v + 1 DESC LIMIT 5")
        assert query.descending
        assert query.limit == 5

    def test_limit_without_order(self):
        query = parse_query("SELECT v FROM s LIMIT 3")
        assert query.order_by is None
        assert query.limit == 3

    def test_order_after_where(self):
        query = parse_query(
            "SELECT v FROM s WHERE v > 0 ORDER BY v ASC LIMIT 1"
        )
        assert query.where is not None
        assert query.limit == 1

    def test_rejects_fractional_limit(self):
        with pytest.raises(ParseError):
            parse_query("SELECT v FROM s LIMIT 2.5")

    def test_rejects_order_without_by(self):
        with pytest.raises(ParseError):
            parse_query("SELECT v FROM s ORDER v")


class TestPlanner:
    def test_order_columns_validated(self):
        schema = Schema(["v"])
        with pytest.raises(QueryError):
            compile_query("SELECT v FROM s ORDER BY missing", schema)

    def test_order_passed_through(self):
        compiled = compile_query("SELECT v FROM s ORDER BY v DESC LIMIT 2")
        assert compiled.order_by is not None
        assert compiled.descending
        assert compiled.limit == 2


class TestExecution:
    def test_ascending_order_by_expected_value(self):
        results = run_query(
            "SELECT id FROM s ORDER BY v",
            _tuples([5.0, 1.0, 9.0]),
            config=ExecutorConfig(seed=0),
        )
        ids = [r.value("id").distribution.mean() for r in results]
        assert ids == [1.0, 0.0, 2.0]

    def test_descending_with_limit(self):
        results = run_query(
            "SELECT id FROM s ORDER BY v DESC LIMIT 2",
            _tuples([5.0, 1.0, 9.0, 3.0]),
            config=ExecutorConfig(seed=0),
        )
        ids = [r.value("id").distribution.mean() for r in results]
        assert ids == [2.0, 0.0]

    def test_order_by_expression(self):
        # ORDER BY -v reverses the v ordering.
        results = run_query(
            "SELECT id FROM s ORDER BY 0 - v",
            _tuples([5.0, 1.0, 9.0]),
            config=ExecutorConfig(seed=0),
        )
        ids = [r.value("id").distribution.mean() for r in results]
        assert ids == [2.0, 0.0, 1.0]

    def test_limit_without_order_truncates_arrival_order(self):
        results = run_query(
            "SELECT id FROM s LIMIT 2",
            _tuples([5.0, 1.0, 9.0]),
            config=ExecutorConfig(seed=0),
        )
        ids = [r.value("id").distribution.mean() for r in results]
        assert ids == [0.0, 1.0]

    def test_limit_zero(self):
        results = run_query(
            "SELECT id FROM s LIMIT 0",
            _tuples([5.0]),
            config=ExecutorConfig(seed=0),
        )
        assert results == []

    def test_order_with_where_filters_first(self):
        results = run_query(
            "SELECT id FROM s WHERE v > 4 PROB 0.5 ORDER BY v DESC",
            _tuples([5.0, 1.0, 9.0]),
            config=ExecutorConfig(seed=0),
        )
        ids = [r.value("id").distribution.mean() for r in results]
        assert ids == [2.0, 0.0]


# -- the cut: accuracy only for the rows a query returns ---------------------

def _mixed_stream(seed, n=24):
    """Gaussian, histogram and exact fields with repeated (tied) means."""
    rng = np.random.default_rng(seed)
    tuples = []
    for i in range(n):
        heights = rng.uniform(0.1, 1.0, size=4)
        attributes = {
            "id": float(i),
            "t": float(i % 3),
            "v": DfSized(
                GaussianDistribution(float(rng.integers(0, 4)), 1.0),
                int(rng.integers(5, 30)),
            ),
            "w": DfSized(
                GaussianDistribution(float(rng.normal(1.0, 0.5)), 0.5), 12
            ),
            "h": DfSized(
                HistogramDistribution(
                    [0.0, 0.25, 0.5, 0.75, 1.0], heights / heights.sum()
                ),
                int(rng.integers(4, 40)),
            ),
        }
        tuples.append(
            UncertainTuple(attributes, float(rng.choice([1.0, 0.8, 0.5])))
        )
    return tuples


def _per_tuple_oracle(executor, tuples):
    """The pre-cut ``execute``: every row fully built, then sorted and cut."""
    results = []
    for tup in tuples:
        result = executor.execute_one(tup)
        if result is not None:
            results.append(result)
    if executor.query.order_by is not None:
        results.sort(
            key=lambda r: (r.sort_key is None, r.sort_key),
            reverse=executor.query.descending,
        )
    if executor.query.limit is not None:
        results = results[: executor.query.limit]
    return results


# (query, draws Monte-Carlo values from the executor's generator)
_QUERIES = [
    ("SELECT id, v FROM s ORDER BY v {limit}", False),
    ("SELECT id, v, h FROM s ORDER BY v DESC {limit}", False),
    ("SELECT * FROM s ORDER BY t DESC {limit}", False),
    ("SELECT id, h FROM s WHERE h > 0.5 PROB 0.2 ORDER BY t {limit}", False),
    ("SELECT id, v * w AS p FROM s {limit}", True),
    (
        "SELECT id, h, v FROM s WHERE v > w PROB 0.2 "
        "ORDER BY v * w DESC {limit}",
        True,
    ),
]
_LIMITS = ["", "LIMIT 0", "LIMIT 1", "LIMIT 5", "LIMIT 1000"]


class TestAccuracyAfterCut:
    @pytest.mark.parametrize("method", ["analytic", "none", "bootstrap"])
    @pytest.mark.parametrize("limit", _LIMITS)
    @pytest.mark.parametrize("query, draws", _QUERIES)
    def test_byte_identical_to_per_tuple_oracle(
        self, query, draws, limit, method
    ):
        text = query.format(limit=limit)
        tuples = _mixed_stream(seed=len(text) + len(limit))
        config = ExecutorConfig(
            seed=11, accuracy_method=method, mc_samples=200
        )
        executor = QueryExecutor(text, config=config)
        oracle = QueryExecutor(text, config=config)
        start = copy.deepcopy(executor._rng.bit_generator.state)

        got = executor.execute(tuples)
        expected = _per_tuple_oracle(oracle, tuples)

        assert [pickle.dumps(r) for r in got] == [
            pickle.dumps(r) for r in expected
        ]
        assert (
            executor._rng.bit_generator.state
            == oracle._rng.bit_generator.state
        )
        if draws or method == "bootstrap":
            assert executor._rng.bit_generator.state != start

    @pytest.mark.parametrize("descending", [False, True])
    def test_ties_keep_arrival_order(self, descending):
        direction = "DESC" if descending else "ASC"
        results = run_query(
            f"SELECT id FROM s ORDER BY t {direction}",
            _mixed_stream(seed=3, n=9),
            config=ExecutorConfig(seed=0),
        )
        keys = [
            (r.sort_key, r.value("id").distribution.mean()) for r in results
        ]
        expected = sorted(
            ((float(i % 3), float(i)) for i in range(9)),
            key=lambda key: -key[0] if descending else key[0],
        )
        assert keys == expected


def _counting(monkeypatch, name):
    calls = []
    original = getattr(executor_module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(executor_module, name, wrapper)
    return calls


class TestWorkCount:
    TEXT = "SELECT id, v FROM s WHERE v > 0 PROB 0.1 ORDER BY v DESC LIMIT 4"

    def test_analytic_intervals_only_for_returned_rows(self, monkeypatch):
        accuracy = _counting(monkeypatch, "distribution_accuracy")
        probability = _counting(monkeypatch, "tuple_probability_interval")
        results = run_query(
            self.TEXT, _tuples(range(1, 61)), config=ExecutorConfig(seed=0)
        )
        assert len(results) == 4
        assert len(accuracy) == 4
        assert len(probability) == 4

    def test_bootstrap_accuracy_stays_per_qualifying_row(self, monkeypatch):
        accuracy = _counting(monkeypatch, "bootstrap_accuracy_info")
        probability = _counting(monkeypatch, "tuple_probability_interval")
        results = run_query(
            self.TEXT,
            _tuples(range(1, 61)),
            config=ExecutorConfig(
                seed=0, accuracy_method="bootstrap", mc_samples=200
            ),
        )
        assert len(results) == 4
        assert len(accuracy) == 60
        assert len(probability) == 4


class TestErrorOrder:
    def test_missing_column_in_cut_row_still_raises(self):
        db = StreamDatabase(config=ExecutorConfig(seed=0))
        db.create_stream("s")
        db.insert_many(
            "s",
            [tup.with_attributes({**tup.attributes, "x": 1.0})
             for tup in _tuples([5.0, 9.0, 7.0])],
        )
        # Lowest v, no x: LIMIT 1 cuts the row, but projection runs
        # before the cut, so the query fails as it always has.
        db.insert("s", {
            "id": 3.0, "v": DfSized(GaussianDistribution(0.0, 1.0), 10)
        })
        assert len(db.query("SELECT id FROM s ORDER BY v DESC LIMIT 1")) == 1
        with pytest.raises(SchemaError, match="no attribute 'x'"):
            db.query("SELECT id, x FROM s ORDER BY v DESC LIMIT 1")


# -- kernel-shaped WHERE clauses decided in arrays ---------------------------

def _kernel_stream(seed, flaw, n=40):
    """Rows the residual kernels decide, plus one kind of row they leave.

    ``flaw`` picks what the scalar residual keeps: ``"nan"`` / ``"inf"``
    values in the float column ``x`` (the scalar raises there), exact
    sample sizes and single observations in ``g`` (``mTest`` raises),
    zero-variance ``g`` (``mTest`` decides with an infinite statistic),
    mixed int/float ``k`` and non-float membership probabilities
    (the whole chunk is scalar).
    """
    rng = np.random.default_rng(seed)
    tuples = []
    for i in range(n):
        sigma2 = float(rng.uniform(0.1, 4.0))
        size = int(rng.choice([2, 5, 12, 29, 30, 31, 200]))
        x = float(rng.normal(0.5, 2.0))
        k = int(rng.integers(-3, 8))
        probability = float(rng.choice([1.0, 0.9, 0.6, 0.3]))
        flawed = i % 7 == 3
        if flawed and flaw in ("nan", "inf"):
            x = float(flaw)
        elif flawed and flaw == "exact":
            size = None
        elif flawed and flaw == "single":
            size = 1
        elif flawed and flaw == "zero_variance":
            sigma2 = 0.0
        elif flawed and flaw == "mixed_int":
            k = float(k)
        elif flawed and flaw == "probability":
            probability = 1 if i % 2 else np.float64(probability)
        tuples.append(
            UncertainTuple(
                {
                    "id": float(i),
                    "g": DfSized(
                        GaussianDistribution(
                            float(rng.normal(1.0, 2.0)), sigma2
                        ),
                        size,
                    ),
                    "w": DfSized(
                        GaussianDistribution(float(rng.normal(1.0, 0.5)), 0.5),
                        12,
                    ),
                    "x": x,
                    "k": k,
                },
                probability,
            )
        )
    return tuples


_FLAWS = [
    "clean", "nan", "inf", "exact", "single", "zero_variance", "mixed_int",
    "probability",
]

# Every WHERE clause here has a kernel shape (``kernel_conjuncts``).
_KERNEL_QUERIES = [
    "SELECT id, g FROM s WHERE g > 1 {order} {limit}",
    "SELECT id, g FROM s WHERE g > 0.5 PROB 0.4 {order} {limit}",
    "SELECT * FROM s WHERE 2 > g PROB 0.3 {order} {limit}",
    "SELECT id, g FROM s WHERE g >= 0 PROB 0.2 AND x < 2 {order} {limit}",
    "SELECT id, x, k FROM s WHERE x <= 1 AND k > 0 {order} {limit}",
    "SELECT id, k FROM s WHERE k > 2 PROB 0.5 {order} {limit}",
    "SELECT id, g FROM s WHERE mTest(g, '>', 0, 0.05, 0.05) {order} {limit}",
    "SELECT id, g FROM s WHERE mTest(g, '<>', 1, 0.05) {order} {limit}",
]
# (ORDER BY clause, whether its key draws Monte-Carlo values)
_KERNEL_ORDERS = ["", "ORDER BY g DESC", "ORDER BY id", "ORDER BY g * w"]


def _outcome(run):
    """Pickled results, or the exception type and message."""
    try:
        return [pickle.dumps(r) for r in run()]
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return (type(exc), str(exc))


class TestKernelDecidedWhere:
    @pytest.mark.parametrize("order", _KERNEL_ORDERS)
    @pytest.mark.parametrize("query", _KERNEL_QUERIES)
    @pytest.mark.parametrize("flaw", _FLAWS)
    def test_byte_identical_to_per_tuple_oracle(
        self, flaw, query, order, monkeypatch
    ):
        # Chunks of 6 rows: fallback rows fall on both sides of chunk
        # boundaries.
        monkeypatch.setattr(executor_module, "_CHUNK_ROWS", 6)
        tuples = _kernel_stream(len(query) + len(order) + len(flaw), flaw)
        for limit in ("", "LIMIT 3"):
            text = query.format(order=order, limit=limit)
            assert kernel_conjuncts(compile_query(text))
            for method in ("analytic", "bootstrap"):
                config = ExecutorConfig(
                    seed=3, accuracy_method=method, mc_samples=64
                )
                executor = QueryExecutor(text, config=config)
                oracle = QueryExecutor(text, config=config)

                got = _outcome(lambda: executor.execute(tuples))
                expected = _outcome(
                    lambda: _per_tuple_oracle(oracle, tuples)
                )

                assert got == expected, (limit, method)
                assert (
                    executor._rng.bit_generator.state
                    == oracle._rng.bit_generator.state
                )

    @pytest.mark.parametrize("query", _KERNEL_QUERIES)
    def test_kernels_decide_clean_rows(self, query, monkeypatch):
        text = query.format(order="ORDER BY g DESC", limit="LIMIT 5")
        tuples = _kernel_stream(1, "clean")
        executor = QueryExecutor(text, config=ExecutorConfig(seed=0))
        calls = []
        original = executor.residual_outcome
        monkeypatch.setattr(
            executor,
            "residual_outcome",
            lambda tup: calls.append(tup) or original(tup),
        )
        expected = _per_tuple_oracle(
            QueryExecutor(text, config=ExecutorConfig(seed=0)), tuples
        )
        assert [pickle.dumps(r) for r in executor.execute(tuples)] == [
            pickle.dumps(r) for r in expected
        ]
        assert calls == []

    def test_histogram_values_stay_scalar(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("histogram rows reached the kernels")

        monkeypatch.setattr(executor_module, "merge_fallback", refuse)
        text = "SELECT id, h FROM s WHERE h > 0.5 PROB 0.2 ORDER BY h"
        tuples = _mixed_stream(seed=4)
        config = ExecutorConfig(seed=1)
        assert [
            pickle.dumps(r)
            for r in QueryExecutor(text, config=config).execute(tuples)
        ] == [
            pickle.dumps(r)
            for r in _per_tuple_oracle(QueryExecutor(text, config=config),
                                       tuples)
        ]

    def test_database_read_matches_oracle(self):
        db = StreamDatabase(config=ExecutorConfig(seed=2))
        db.create_stream("s")
        tuples = _kernel_stream(5, "zero_variance", n=60)
        db.insert_many("s", tuples)
        text = (
            "SELECT id, g FROM s WHERE g > 0.5 PROB 0.6 "
            "ORDER BY g DESC LIMIT 7"
        )
        expected = _per_tuple_oracle(
            QueryExecutor(text, config=ExecutorConfig(seed=2)), tuples
        )
        assert [pickle.dumps(r) for r in db.query(text)] == [
            pickle.dumps(r) for r in expected
        ]


class TestKernelErrorOrder:
    """Rows the kernels leave run their residual in arrival order."""

    def _stream(self, broken_row, missing):
        tuples = _kernel_stream(9, "nan", n=12)  # x is NaN in row 3
        tup = tuples[broken_row]
        attributes = dict(tup.attributes)
        del attributes[missing]
        tuples[broken_row] = tup.with_attributes(attributes)
        return tuples

    @pytest.mark.parametrize(
        "text, missing",
        [
            # SELECT needs k, which row 1 lacks.
            ("SELECT id, k FROM s WHERE x < 100 ORDER BY id", "k"),
            # The ORDER BY key needs k, which row 1 lacks.
            ("SELECT id FROM s WHERE x < 100 ORDER BY k DESC", "k"),
            # Projection and key are fine: row 3's residual raises.
            ("SELECT id FROM s WHERE x < 100 ORDER BY g LIMIT 1", "w"),
            # Row 1 lacks the WHERE column itself.
            ("SELECT id FROM s WHERE x < 100 ORDER BY g", "x"),
        ],
    )
    @pytest.mark.parametrize("chunk", [2, 4096])
    def test_same_error_as_per_tuple_oracle(
        self, text, missing, chunk, monkeypatch
    ):
        assert kernel_conjuncts(compile_query(text))
        monkeypatch.setattr(executor_module, "_CHUNK_ROWS", chunk)
        tuples = self._stream(1, missing)
        got = _outcome(lambda: QueryExecutor(text).execute(tuples))
        expected = _outcome(
            lambda: _per_tuple_oracle(QueryExecutor(text), tuples)
        )
        assert isinstance(expected, tuple)
        assert got == expected

    def test_later_projection_error_waits_for_earlier_residual(self):
        # Row 3's residual raises before row 5's projection does.
        tuples = self._stream(5, "k")
        text = "SELECT id, k FROM s WHERE x < 100"
        with pytest.raises(DistributionError):
            QueryExecutor(text).execute(tuples)
