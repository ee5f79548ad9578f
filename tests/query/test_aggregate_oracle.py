"""The GROUP BY scan equals the tuple-at-a-time aggregate loop.

``_loop_aggregate`` is the aggregate executor as a per-tuple loop with
its own WHERE evaluation and sequential ``+=`` accumulation.  The
executor must return the same result pickles, raise the same error at
the same row, and leave its generator in the same state.
"""

import pickle

import numpy as np
import pytest

import repro.query.executor as executor_module
from repro.core.dfsample import DfSized
from repro.distributions.base import Deterministic
from repro.distributions.gaussian import GaussianDistribution
from repro.distributions.histogram import HistogramDistribution
from repro.errors import QueryError, SchemaError
from repro.query.executor import ExecutorConfig, QueryExecutor, ResultTuple
from repro.query.expressions import EvalContext
from repro.streams.tuples import UncertainTuple


def _loop_aggregate(executor, tuples):
    """SELECT AVG/SUM/COUNT(...) [GROUP BY key], one tuple at a time."""
    items = list(zip(executor.query.select_items, executor.query.aggregates))
    group_by = executor.query.group_by

    class _Acc:
        def __init__(acc) -> None:
            acc.exp_sum = [0.0] * len(items)
            acc.var_sum = [0.0] * len(items)
            acc.size_min = [None] * len(items)
            acc.exp_count = 0.0
            acc.var_count = 0.0
            acc.condition_sizes = []

    groups = {}
    for tup in tuples:
        ctx = EvalContext(tup, executor._rng, executor.config.mc_samples)
        probability = tup.probability
        keep = True
        condition_sizes = []
        for conjunct in executor.query.conjuncts:
            outcome = executor._evaluate_condition(conjunct, ctx)
            if not outcome.qualifies:
                keep = False
                break
            probability *= outcome.probability
            condition_sizes.extend(
                size for size in outcome.sizes if size is not None
            )
        if not keep or probability <= 0.0:
            continue
        key = (
            executor._group_key(tup, group_by)
            if group_by is not None else None
        )
        acc = groups.get(key)
        if acc is None:
            acc = groups[key] = _Acc()
        acc.exp_count += probability
        acc.var_count += probability * (1.0 - probability)
        acc.condition_sizes.extend(condition_sizes)
        for i, ((expr, _alias), _agg) in enumerate(items):
            value = expr.evaluate(ctx)
            mu = value.distribution.mean()
            sigma2 = value.distribution.variance()
            acc.exp_sum[i] += probability * mu
            acc.var_sum[i] += (
                probability * (sigma2 + mu * mu)
                - probability * probability * mu * mu
            )
            if value.sample_size is not None:
                acc.size_min[i] = (
                    value.sample_size if acc.size_min[i] is None
                    else min(acc.size_min[i], value.sample_size)
                )

    results = []
    for key in sorted(groups, key=str):
        acc = groups[key]
        attributes = {}
        if group_by is not None:
            if isinstance(key, str):
                attributes[group_by] = key
            else:
                attributes[group_by] = DfSized(Deterministic(float(key)), None)
        for i, ((_expr, alias), agg) in enumerate(items):
            if agg == "count":
                dist = GaussianDistribution(acc.exp_count, acc.var_count)
                size = (
                    min(acc.condition_sizes) if acc.condition_sizes else None
                )
            elif agg == "sum":
                dist = GaussianDistribution(
                    acc.exp_sum[i], max(acc.var_sum[i], 0.0)
                )
                size = acc.size_min[i]
            else:
                dist = GaussianDistribution(
                    acc.exp_sum[i] / acc.exp_count,
                    max(acc.var_sum[i], 0.0) / (acc.exp_count * acc.exp_count),
                )
                size = acc.size_min[i]
            attributes[alias] = DfSized(dist, size)
        accuracy = {}
        if executor.config.accuracy_method != "none":
            for name, field in attributes.items():
                if not isinstance(field, DfSized):
                    continue
                info = executor._field_accuracy(field)
                if info is not None:
                    accuracy[name] = info
        results.append(
            ResultTuple(
                attributes=attributes,
                probability=1.0,
                probability_interval=None,
                accuracy=accuracy,
            )
        )
    return results


def _outcome(run):
    try:
        return [pickle.dumps(r) for r in run()]
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return (type(exc), str(exc))


def _stream(seed, key_kind, n=48):
    rng = np.random.default_rng(seed)
    edges = np.linspace(-1.0, 3.0, 9)
    tuples = []
    for i in range(n):
        raw = int(rng.integers(0, 4))
        if key_kind == "int":
            key = raw
        elif key_kind == "float":
            key = raw + 0.5
        elif key_kind == "str":
            key = f"k{raw}"
        else:  # "collide": 1 and 1.0 are one group, first seen kept
            key = raw if i % 2 else float(raw)
        tuples.append(
            UncertainTuple(
                {
                    "k": key,
                    "h": DfSized(
                        HistogramDistribution(
                            edges, rng.uniform(0.05, 1.0, 8)
                        ),
                        int(rng.integers(2, 40)),
                    ),
                    "g": DfSized(
                        GaussianDistribution(
                            float(rng.normal(2.0, 3.0)),
                            float(rng.uniform(0.1, 4.0)),
                        ),
                        int(rng.integers(2, 40)),
                    ),
                    "x": float(rng.normal(0.0, 2.0)),
                    "c": int(rng.integers(-5, 5)),
                },
                float(rng.choice([1.0, 0.95, 0.7, 0.2])),
            )
        )
    return tuples


_QUERIES = [
    "SELECT AVG(h) AS a FROM s GROUP BY k",
    "SELECT AVG(h) AS a, SUM(g) AS t, COUNT(*) AS n FROM s GROUP BY k",
    "SELECT SUM(x) AS t, AVG(c) AS a FROM s GROUP BY k",
    "SELECT AVG(h) AS a, COUNT(h) AS n FROM s WHERE h > 0.5 PROB 0.4 "
    "GROUP BY k",
    "SELECT COUNT(*) AS n, AVG(g) AS a FROM s WHERE mTest(h, '>', 0.8, 0.05)",
    "SELECT SUM(h) AS t FROM s WHERE g > 1 AND x < 2 GROUP BY k",
    "SELECT AVG(h + g) AS a FROM s WHERE h > g PROB 0.3 GROUP BY k",
    "SELECT AVG(g * x) AS a, SUM(h) AS t FROM s GROUP BY k",
]


class TestGroupByScan:
    @pytest.mark.parametrize("chunk", [5, 4096])
    @pytest.mark.parametrize("key_kind", ["int", "float", "str", "collide"])
    @pytest.mark.parametrize("text", _QUERIES)
    def test_byte_identical_to_loop(self, text, key_kind, chunk, monkeypatch):
        monkeypatch.setattr(executor_module, "_CHUNK_ROWS", chunk)
        tuples = _stream(len(text) + len(key_kind), key_kind)
        for method in ("analytic", "bootstrap", "none"):
            config = ExecutorConfig(
                seed=9, accuracy_method=method, mc_samples=32
            )
            executor = QueryExecutor(text, config=config)
            oracle = QueryExecutor(text, config=config)
            got = _outcome(lambda: executor.execute(tuples))
            expected = _outcome(lambda: _loop_aggregate(oracle, tuples))
            assert isinstance(expected, list)
            assert got == expected, method
            assert (
                executor._rng.bit_generator.state
                == oracle._rng.bit_generator.state
            )

    def test_collisions_keep_the_first_seen_key(self):
        tuples = _stream(1, "collide")
        rows = QueryExecutor(
            "SELECT COUNT(*) AS n FROM s GROUP BY k"
        ).execute(tuples)
        assert len(rows) == len({float(t.attributes["k"]) for t in tuples})

    @pytest.mark.parametrize(
        "broken, error",
        [
            (DfSized(GaussianDistribution(1.0, 1.0), 5), QueryError),
            (True, QueryError),
            (None, SchemaError),  # None: the attribute is missing
        ],
    )
    @pytest.mark.parametrize("chunk", [5, 4096])
    def test_bad_key_raises_at_the_same_row(
        self, broken, error, chunk, monkeypatch
    ):
        monkeypatch.setattr(executor_module, "_CHUNK_ROWS", chunk)
        # The MC WHERE clause draws on every row: the generator state
        # tells how far each run got before it raised.
        text = "SELECT AVG(h) AS a FROM s WHERE h > g PROB 0.01 GROUP BY k"
        tuples = _stream(4, "int", n=20)
        attributes = dict(tuples[13].attributes)
        if broken is None:
            del attributes["k"]
        else:
            attributes["k"] = broken
        tuples[13] = tuples[13].with_attributes(attributes)
        config = ExecutorConfig(seed=2, mc_samples=16)
        executor = QueryExecutor(text, config=config)
        oracle = QueryExecutor(text, config=config)
        got = _outcome(lambda: executor.execute(tuples))
        expected = _outcome(lambda: _loop_aggregate(oracle, tuples))
        assert isinstance(expected, tuple) and expected[0] is error
        assert got == expected
        assert (
            executor._rng.bit_generator.state
            == oracle._rng.bit_generator.state
        )

    @pytest.mark.parametrize("missing", ["h", "g", "x"])
    @pytest.mark.parametrize("chunk", [5, 4096])
    def test_missing_attribute_raises_schema_error(
        self, missing, chunk, monkeypatch
    ):
        monkeypatch.setattr(executor_module, "_CHUNK_ROWS", chunk)
        text = "SELECT AVG(h) AS a, SUM(x) AS t FROM s WHERE g > 0 GROUP BY k"
        tuples = _stream(6, "float", n=20)
        attributes = dict(tuples[7].attributes)
        del attributes[missing]
        tuples[7] = tuples[7].with_attributes(attributes)
        got = _outcome(lambda: QueryExecutor(text).execute(tuples))
        expected = _outcome(
            lambda: _loop_aggregate(QueryExecutor(text), tuples)
        )
        assert isinstance(expected, tuple) and expected[0] is SchemaError
        assert got == expected

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("chunk", [5, 4096])
    def test_non_finite_value_raises_at_its_row(self, bad, chunk, monkeypatch):
        monkeypatch.setattr(executor_module, "_CHUNK_ROWS", chunk)
        text = "SELECT SUM(x) AS t FROM s WHERE h > g PROB 0.01 GROUP BY k"
        tuples = _stream(3, "int", n=20)
        tuples[11] = tuples[11].with_attributes(
            dict(tuples[11].attributes, x=bad)
        )
        config = ExecutorConfig(seed=4, mc_samples=16)
        executor = QueryExecutor(text, config=config)
        oracle = QueryExecutor(text, config=config)
        got = _outcome(lambda: executor.execute(tuples))
        expected = _outcome(lambda: _loop_aggregate(oracle, tuples))
        assert isinstance(expected, tuple)
        assert got == expected
        assert (
            executor._rng.bit_generator.state
            == oracle._rng.bit_generator.state
        )

    def test_non_float_probabilities_and_empty_input(self):
        tuples = _stream(8, "int", n=12)
        tuples[3] = UncertainTuple(dict(tuples[3].attributes), 1)
        tuples[5] = UncertainTuple(
            dict(tuples[5].attributes), np.float64(0.5)
        )
        for text in _QUERIES:
            executor = QueryExecutor(text, config=ExecutorConfig(seed=1))
            oracle = QueryExecutor(text, config=ExecutorConfig(seed=1))
            assert _outcome(lambda: executor.execute(tuples)) == _outcome(
                lambda: _loop_aggregate(oracle, tuples)
            )
            assert QueryExecutor(text).execute([]) == []
