"""One-shot reads over histogram columns, decided and sorted in arrays.

Every read must equal the tuple-at-a-time loop (``execute_one`` per
tuple, then sort and cut) in per-result pickle bytes and in the state
of the executor's generator afterwards, errors included.
"""

import pickle

import numpy as np
import pytest

import repro.query.executor as executor_module
from repro.core.dfsample import DfSized
from repro.distributions.gaussian import GaussianDistribution
from repro.distributions.histogram import HistogramDistribution
from repro.query.executor import ExecutorConfig, QueryExecutor
from repro.query.planner import compile_query
from repro.query.residual import kernel_conjuncts
from repro.streams.tuples import UncertainTuple


def _per_tuple_oracle(executor, tuples):
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


def _outcome(run):
    try:
        return [pickle.dumps(r) for r in run()]
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return (type(exc), str(exc))


def _histogram_stream(seed, flaw="clean", n=40):
    """Histogram rows, with repeated histograms so sort keys tie.

    ``flaw``: ``"buckets"`` mixes bucket counts (the chunk is scalar),
    ``"exact"`` / ``"single"`` give some rows exact or single-sample
    sizes (``mTest`` leaves them to the scalar path), ``"probability"``
    makes some membership probabilities non-float.
    """
    rng = np.random.default_rng(seed)
    templates = []
    for _ in range(5):
        edges = np.cumsum(rng.uniform(0.2, 1.0, 7)) - 2.0
        templates.append((edges, rng.uniform(0.05, 1.0, 6)))
    tuples = []
    for i in range(n):
        edges, heights = templates[int(rng.integers(len(templates)))]
        size = int(rng.choice([2, 5, 12, 30]))
        probability = float(rng.choice([1.0, 0.9, 0.6, 0.3]))
        flawed = i % 7 == 3
        if flawed and flaw == "buckets":
            edges, heights = edges[:-2], heights[:-2]
        elif flawed and flaw == "exact":
            size = None
        elif flawed and flaw == "single":
            size = 1
        elif flawed and flaw == "probability":
            probability = 1 if i % 2 else np.float64(probability)
        tuples.append(
            UncertainTuple(
                {
                    "id": float(i),
                    "t": i % 3,
                    "h": DfSized(HistogramDistribution(edges, heights), size),
                    "w": DfSized(
                        GaussianDistribution(float(rng.normal(1.0, 0.5)), 0.5),
                        12,
                    ),
                    "label": f"road-{i}",
                },
                probability,
            )
        )
    return tuples


_FLAWS = ["clean", "buckets", "exact", "single", "probability"]
_WHERE = [
    "",
    "WHERE h > 0.5 PROB 0.3",
    "WHERE h <= 1 AND id > 3",
    "WHERE -1 < h PROB 0.5",
    "WHERE h >= 2",
    "WHERE mTest(h, '>', 0.5, 0.05, 0.05)",
    "WHERE mTest(h, '<>', 1, 0.1)",
]
_ORDERS = ["", "ORDER BY h", "ORDER BY h DESC", "ORDER BY t DESC",
           "ORDER BY h * w"]
_LIMITS = ["", "LIMIT 0", "LIMIT 1", "LIMIT 10"]


class TestHistogramReadOracle:
    @pytest.mark.parametrize("order", _ORDERS)
    @pytest.mark.parametrize("where", _WHERE)
    @pytest.mark.parametrize("flaw", _FLAWS)
    def test_byte_identical_to_per_tuple_loop(
        self, flaw, where, order, monkeypatch
    ):
        # Chunks of 6 rows: some hold a flawed row, some do not.
        monkeypatch.setattr(executor_module, "_CHUNK_ROWS", 6)
        tuples = _histogram_stream(len(where) + len(order), flaw)
        for limit in _LIMITS:
            text = f"SELECT id, h FROM s {where} {order} {limit}"
            assert kernel_conjuncts(compile_query(text)) is not None
            for method in ("analytic", "bootstrap"):
                config = ExecutorConfig(
                    seed=5, accuracy_method=method, mc_samples=32
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

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT id, h FROM s WHERE h > 0.5 PROB 0.3 ORDER BY h DESC "
            "LIMIT 10",
            "SELECT id, h FROM s WHERE mTest(h, '>', 0.5, 0.05, 0.05) "
            "ORDER BY h",
            "SELECT id, h FROM s ORDER BY h LIMIT 3",
        ],
    )
    def test_clean_chunks_make_no_scalar_residual_calls(
        self, text, monkeypatch
    ):
        tuples = _histogram_stream(7)
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

    @pytest.mark.parametrize(
        "bad", ["text", float("nan"), float("inf"), 10**400]
    )
    def test_deferred_projection_only_where_no_row_can_raise(
        self, bad, monkeypatch
    ):
        # Projecting the bad value raises at its row; the LIMIT would
        # cut that row, so its projection must stay before the cut.
        monkeypatch.setattr(executor_module, "_CHUNK_ROWS", 8)
        tuples = _histogram_stream(3)
        for i in (5, 17):
            attributes = dict(tuples[i].attributes, label=bad)
            tuples[i] = tuples[i].with_attributes(attributes)
        for i in range(len(tuples)):
            if i not in (5, 17):
                attributes = dict(tuples[i].attributes, label=i)
                tuples[i] = tuples[i].with_attributes(attributes)
        text = "SELECT id, label FROM s WHERE h > 0 ORDER BY h LIMIT 1"
        got = _outcome(lambda: QueryExecutor(text).execute(tuples))
        expected = _outcome(
            lambda: _per_tuple_oracle(QueryExecutor(text), tuples)
        )
        assert isinstance(expected, tuple)
        assert got == expected

    @pytest.mark.parametrize("bad", ["text", float("nan"), float("inf")])
    def test_uncovered_sort_key_raises_at_its_row(self, bad, monkeypatch):
        monkeypatch.setattr(executor_module, "_CHUNK_ROWS", 8)
        tuples = _histogram_stream(4)
        for i, tup in enumerate(tuples):
            label = bad if i == 13 else float(i % 5)
            tuples[i] = tup.with_attributes(dict(tup.attributes, label=label))
        text = "SELECT id, h FROM s WHERE h > 0 ORDER BY label DESC LIMIT 2"
        got = _outcome(lambda: QueryExecutor(text).execute(tuples))
        expected = _outcome(
            lambda: _per_tuple_oracle(QueryExecutor(text), tuples)
        )
        assert isinstance(expected, tuple)
        assert got == expected

    @pytest.mark.parametrize("missing", ["h", "id"])
    @pytest.mark.parametrize("chunk", [4, 4096])
    def test_missing_attribute_raises_at_the_same_row(
        self, missing, chunk, monkeypatch
    ):
        monkeypatch.setattr(executor_module, "_CHUNK_ROWS", chunk)
        tuples = _histogram_stream(11, "exact", n=20)
        attributes = dict(tuples[9].attributes)
        del attributes[missing]
        tuples[9] = tuples[9].with_attributes(attributes)
        text = (
            "SELECT id, h FROM s WHERE mTest(h, '>', 0, 0.05) "
            "ORDER BY id DESC LIMIT 2"
        )
        got = _outcome(lambda: QueryExecutor(text).execute(tuples))
        expected = _outcome(
            lambda: _per_tuple_oracle(QueryExecutor(text), tuples)
        )
        assert isinstance(expected, tuple)
        assert got == expected
