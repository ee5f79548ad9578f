"""Shared-subplan dispatch through the StreamDatabase facade.

The contract under test: with ``shared_subplans`` enabled (the
default), standing-query dispatch — single inserts and batched
``insert_many`` — produces byte-identical results, match counts, and
callback order to the naive one-full-pipeline-per-query loop
(``shared_subplans=False``), while the obs registry shows the sharing
actually happened.
"""

import pickle

import numpy as np
import pytest

import repro.query.executor as executor_module
from repro.core.dfsample import DfSized
from repro.db import StreamDatabase
from repro.distributions.gaussian import GaussianDistribution
from repro.distributions.histogram import HistogramDistribution
from repro.errors import (
    AccuracyError,
    CallbackError,
    DistributionError,
    QueryError,
    SchemaError,
)
from repro.query.executor import ExecutorConfig, QueryExecutor
from repro.streams.tuples import Schema, UncertainTuple
from repro.workloads.cartel import CarTelSimulator


def _delay_tuples(seed: int, n: int) -> list[UncertainTuple]:
    rng = np.random.default_rng(seed)
    return [
        UncertainTuple(
            {
                "road_id": float(i),
                "delay": DfSized(
                    GaussianDistribution(
                        float(rng.normal(60.0, 15.0)),
                        float(rng.uniform(1.0, 30.0)),
                    ),
                    int(rng.integers(2, 40)),
                ),
            }
        )
        for i in range(n)
    ]


QUERIES = [
    "SELECT road_id, delay FROM t WHERE delay > 55 PROB 0.7",
    "SELECT road_id, delay FROM t WHERE delay > 65 PROB 0.7",
    "SELECT road_id, delay FROM t WHERE 50 < delay PROB 0.6",
    "SELECT road_id, delay FROM t WHERE delay <= 60",
]


def _run(shared: bool, batched: bool, config=None, queries=QUERIES):
    db = StreamDatabase(config=config, shared_subplans=shared)
    db.create_stream("t")
    events: list[tuple[int, bytes]] = []
    for i, text in enumerate(queries):
        db.register_continuous(
            f"q{i}",
            text,
            lambda r, i=i: events.append((i, pickle.dumps(r))),
        )
    tuples = _delay_tuples(11, 120)
    if batched:
        db.insert_many("t", tuples)
    else:
        for tup in tuples:
            db.insert("t", tup)
    matches = [db._continuous[f"q{i}"].matches for i in range(len(queries))]
    return events, matches, db


class TestByteIdentity:
    def test_single_insert_matches_naive(self):
        naive, m_naive, _ = _run(shared=False, batched=False)
        shared, m_shared, _ = _run(shared=True, batched=False)
        assert m_shared == m_naive
        assert shared == naive  # same callback order, same pickle bytes

    def test_batched_insert_matches_naive(self):
        naive, m_naive, _ = _run(shared=False, batched=False)
        shared, m_shared, _ = _run(shared=True, batched=True)
        assert m_shared == m_naive
        assert shared == naive

    def test_bootstrap_prefix_falls_back_identically(self):
        # Bootstrap accuracy draws from each query's own generator, so
        # the prefix is NOT shareable; the guard must detect that and
        # the fallback must reproduce the naive draw sequence exactly.
        config = ExecutorConfig(
            accuracy_method="bootstrap",
            seed=3,
            mc_samples=64,
            bootstrap_resamples=4,
        )
        naive, m_naive, _ = _run(False, False, config)
        shared, m_shared, db = _run(True, True, config)
        assert m_shared == m_naive
        assert shared == naive
        fallbacks = db.metrics.counter("multiquery.prefix_fallbacks").value
        assert fallbacks >= 1

    def test_shared_flag_off_uses_naive_loop(self):
        _events, matches, db = _run(shared=False, batched=True)
        assert sum(matches) > 0
        assert db.metrics.counter("multiquery.shared_hits").value == 0


class TestEngineRegistry:
    def test_same_prefix_queries_form_one_group(self):
        _events, _matches, db = _run(shared=True, batched=False)
        assert db.metrics.gauge("multiquery.groups").value == 1.0
        assert db._engine.group_size("q0") == len(QUERIES)

    def test_shared_hits_recorded(self):
        _events, matches, db = _run(shared=True, batched=True)
        hits = db.metrics.counter("multiquery.shared_hits").value
        # Every result beyond the first per (tuple, group) rode a
        # shared prefix; with four same-prefix queries there are many.
        assert hits > 0
        assert hits < sum(matches)

    def test_different_configs_do_not_share(self):
        db = StreamDatabase(shared_subplans=True)
        db.create_stream("t")
        db.register_continuous(
            "a", "SELECT delay FROM t WHERE delay > 50", lambda r: None
        )
        db.register_continuous(
            "b",
            "SELECT delay FROM t WHERE delay > 60",
            lambda r: None,
            config=ExecutorConfig(confidence=0.8),
        )
        assert db._engine.group_size("a") == 1
        assert db._engine.group_size("b") == 1
        assert db.metrics.gauge("multiquery.groups").value == 0.0

    def test_unregister_leaves_group(self):
        _events, _matches, db = _run(shared=True, batched=False)
        db.unregister_continuous("q0")
        assert db._engine.group_size("q1") == len(QUERIES) - 1
        events: list[int] = []
        db._continuous["q1"].callback = lambda r: events.append(1)
        db.insert("t", _delay_tuples(5, 1)[0])
        assert "q0" not in db._engine._entries

    def test_drop_stream_clears_engine(self):
        _events, _matches, db = _run(shared=True, batched=False)
        db.drop_stream("t")
        assert db._engine._entries == {}

    def test_plan_cache_counters(self):
        from repro.query.planner import clear_plan_cache

        clear_plan_cache()
        db = StreamDatabase()
        db.create_stream("t")
        db.register_continuous(
            "a", "SELECT delay FROM t WHERE delay > 50", lambda r: None
        )
        db.register_continuous(
            "b", "SELECT  delay  FROM t WHERE delay > 50", lambda r: None
        )
        assert db.metrics.counter("plan_cache.misses").value == 1
        assert db.metrics.counter("plan_cache.hits").value == 1
        # One immutable plan object shared by both executors.
        assert (
            db._continuous["a"].executor.query
            is db._continuous["b"].executor.query
        )


class TestCallbackFaultIsolation:
    def _db_with_bomb(self, shared: bool):
        db = StreamDatabase(shared_subplans=shared)
        db.create_stream("t")
        seen: dict[str, list[float]] = {"early": [], "late": []}

        def early(result):
            seen["early"].append(result.value("x").distribution.mean())
            raise RuntimeError("subscriber bug")

        db.register_continuous("early", "SELECT x FROM t", early)
        db.register_continuous(
            "late",
            "SELECT x FROM t",
            lambda r: seen["late"].append(r.value("x").distribution.mean()),
        )
        return db, seen

    @pytest.mark.parametrize("shared", [False, True])
    def test_later_queries_still_dispatch(self, shared):
        db, seen = self._db_with_bomb(shared)
        with pytest.raises(CallbackError) as excinfo:
            db.insert("t", {"x": 1.0})
        assert excinfo.value.query_name == "early"
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        # The query registered after the bomb saw the tuple.
        assert seen["late"] == [1.0]
        assert db._continuous["late"].matches == 1

    def test_batched_aborts_after_failing_row(self):
        db, seen = self._db_with_bomb(shared=True)
        with pytest.raises(CallbackError):
            db.insert_many("t", [{"x": 1.0}, {"x": 2.0}, {"x": 3.0}])
        # The failing row completed its fan-out; later rows did not run.
        assert seen["early"] == [1.0]
        assert seen["late"] == [1.0]
        assert db.count("t") == 1


class TestInsertManyFastPaths:
    def test_no_watchers_extends_buffer(self):
        db = StreamDatabase()
        db.create_stream("s")
        inserted = db.insert_many("s", [{"x": float(i)} for i in range(10)])
        assert inserted == 10
        assert db.count("s") == 10
        assert db.stats("s")["inserted"] == 10

    def test_batch_validation_is_atomic(self):
        db = StreamDatabase()
        db.create_stream("s", Schema([("x", "number")]))
        with pytest.raises(SchemaError):
            db.insert_many("s", [{"x": 1.0}, {"x": "bad"}, {"x": 3.0}])
        assert db.count("s") == 0

    def test_mappings_accepted_in_batch(self):
        db = StreamDatabase()
        db.create_stream("s")
        hits: list[float] = []
        db.register_continuous(
            "w",
            "SELECT x FROM s WHERE x > 1",
            lambda r: hits.append(r.value("x").distribution.mean()),
        )
        db.insert_many("s", [{"x": 1.0}, {"x": 2.0}, {"x": 3.0}])
        assert hits == [2.0, 3.0]


class TestExactBoundaryComparisons:
    """``>=`` keeps and ``<`` drops rows exactly equal to the constant."""

    ROWS = [34.0, 35.0, 36.0, 35.0, 34.5]

    def _matches(self, shared: bool, batched: bool) -> dict[str, list]:
        db = StreamDatabase(shared_subplans=shared)
        db.create_stream("t")
        hits: dict[str, list] = {}
        queries = {
            "ge": "SELECT x FROM t WHERE x >= 35",
            "lt": "SELECT x FROM t WHERE x < 35",
            "le_flipped": "SELECT x FROM t WHERE 35 <= x",
            "gt_flipped": "SELECT x FROM t WHERE 35 > x",
        }
        for name, text in queries.items():
            hits[name] = []
            db.register_continuous(
                name,
                text,
                lambda r, name=name: hits[name].append(
                    r.value("x").distribution.mean()
                ),
            )
        rows = [{"x": value} for value in self.ROWS]
        if batched:
            db.insert_many("t", rows)
        else:
            for row in rows:
                db.insert("t", row)
        return hits

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("batched", [True, False])
    def test_rows_equal_to_the_constant(self, shared, batched):
        hits = self._matches(shared, batched)
        assert hits["ge"] == [35.0, 36.0, 35.0]
        assert hits["le_flipped"] == [35.0, 36.0, 35.0]
        assert hits["lt"] == [34.0, 34.5]
        assert hits["gt_flipped"] == [34.0, 34.5]


class TestRowsLeftToTheScalarResidual:
    """Rows the batch kernels do not decide raise as a single insert does.

    A batch that raises does so before any callback, and buffers
    nothing.
    """

    def _db(self, shared, queries):
        db = StreamDatabase(shared_subplans=shared)
        db.create_stream("t")
        seen: list[str] = []
        for i, text in enumerate(queries):
            db.register_continuous(
                f"q{i}", text, lambda r, i=i: seen.append(f"q{i}")
            )
        return db, seen

    def _assert_batch_raises(self, queries, rows, error, match):
        db, seen = self._db(True, queries)
        with pytest.raises(error, match=match):
            db.insert_many("t", rows)
        assert seen == []
        assert db.count("t") == 0
        assert db.stats("t")["inserted"] == 0
        # The naive loop and a single insert raise the same error.
        naive, _ = self._db(False, queries)
        with pytest.raises(error, match=match):
            naive.insert_many("t", rows)
        single, _ = self._db(True, queries)
        with pytest.raises(error, match=match):
            for row in rows:
                single.insert("t", row)

    def test_nan_in_a_plain_column_raises(self):
        self._assert_batch_raises(
            ["SELECT b FROM t WHERE b > 1 PROB 0.5"] * 2,
            [{"b": float("nan")}, {"b": 3.0}],
            DistributionError,
            "must be finite",
        )

    def test_single_observation_in_an_mtest_raises(self):
        self._assert_batch_raises(
            [
                "SELECT a FROM t WHERE mTest(a, '>', 0, 0.05, 0.05)",
                "SELECT a FROM t WHERE a > 0 PROB 0.5",
            ],
            [
                {"a": DfSized(GaussianDistribution(2.0, 1.0), 10)},
                {"a": DfSized(GaussianDistribution(2.0, 1.0), 1)},
            ],
            AccuracyError,
            "size >= 2",
        )

    def test_zero_variance_mtest_rows_match_naive(self):
        queries = [
            "SELECT a FROM t WHERE mTest(a, '>', 0, 0.05, 0.05)",
            "SELECT a FROM t WHERE mTest(a, '<>', 1, 0.05)",
        ]
        rows = [
            {"a": DfSized(GaussianDistribution(mu, sigma2), 10)}
            for mu, sigma2 in ((2.0, 0.0), (0.0, 0.0), (1.0, 0.0), (3.0, 4.0))
        ]
        outcomes = []
        for shared in (True, False):
            db, _ = self._db(shared, [])
            events = []
            for i, text in enumerate(queries):
                db.register_continuous(
                    f"q{i}",
                    text,
                    lambda r, i=i: events.append((i, pickle.dumps(r))),
                )
            db.insert_many("t", rows)
            outcomes.append(events)
        assert outcomes[0] == outcomes[1]
        assert len(outcomes[0]) == 6


class TestDerivedSelectItems:
    """Theorem-1 result expressions as standing queries.

    A SELECT item that is not a bare column keeps the group off the
    columnar kernel; registration must still succeed, and every engine
    and insert path must reproduce the one-shot executor run per tuple.
    """

    QUERIES = {
        "product": "SELECT x * y AS z FROM t",
        "root": "SELECT SQRT(ABS(x)) AS r FROM t",
        "shifted": "SELECT x + 1 AS w FROM t WHERE x > 60 PROB 0.6",
    }
    CONFIG = ExecutorConfig(seed=4, mc_samples=64)

    @staticmethod
    def _tuples() -> list[UncertainTuple]:
        rng = np.random.default_rng(2)
        return [
            UncertainTuple(
                {
                    "x": DfSized(
                        GaussianDistribution(
                            float(rng.normal(60.0, 15.0)),
                            float(rng.uniform(1.0, 30.0)),
                        ),
                        int(rng.integers(2, 40)),
                    ),
                    "y": DfSized(
                        GaussianDistribution(
                            float(rng.normal(2.0, 1.0)),
                            float(rng.uniform(0.1, 2.0)),
                        ),
                        int(rng.integers(2, 40)),
                    ),
                }
            )
            for _ in range(30)
        ]

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("batched", [True, False])
    def test_matches_one_shot_executor(self, shared, batched):
        rows = self._tuples()
        db = StreamDatabase(shared_subplans=shared)
        db.create_stream("t")
        got: dict[str, list[bytes]] = {name: [] for name in self.QUERIES}
        for name, text in self.QUERIES.items():
            db.register_continuous(
                name,
                text,
                lambda r, name=name: got[name].append(pickle.dumps(r)),
                config=self.CONFIG,
            )
        if batched:
            db.insert_many("t", rows)
        else:
            for row in rows:
                db.insert("t", row)
        for name, text in self.QUERIES.items():
            executor = QueryExecutor(text, config=self.CONFIG)
            expected = [
                pickle.dumps(result)
                for result in map(executor.execute_one, rows)
                if result is not None
            ]
            assert expected
            assert got[name] == expected


class TestMcSamplesValidation:
    def test_config_rejects_fewer_than_two_samples(self):
        db = StreamDatabase()
        db.create_stream("t")
        seen: list[str] = []
        db.register_continuous(
            "first", "SELECT x FROM t", lambda r: seen.append("first")
        )
        with pytest.raises(QueryError, match="mc_samples must be >= 2"):
            db.register_continuous(
                "middle",
                "SELECT x FROM t WHERE x > y PROB 0.5",
                lambda r: seen.append("middle"),
                config=ExecutorConfig(mc_samples=1),
            )
        db.register_continuous(
            "last", "SELECT x FROM t", lambda r: seen.append("last")
        )
        assert "middle" not in db._continuous
        db.insert("t", {"x": 2.0, "y": 1.0})
        assert seen == ["first", "last"]
        assert db.count("t") == 1


class TestPinnedEngineCounters:
    """Exact engine counters for one fixed batch.

    The batch runs same-SELECT bucket members (two with one spec), a
    coupled ``mTest`` single with zero-variance rows left to the scalar
    residual, a scalar OR member and two bootstrap members whose shared
    prefix trips the RNG guard.  ``shared_hits`` counts every result
    beyond the first per (row, shared-plan group); the bootstrap group
    shares nothing.
    """

    SELECT = "SELECT road_id, delay FROM t"
    WHERES = [
        "WHERE delay > 55 PROB 0.7",
        "WHERE delay > 55 PROB 0.7",
        "WHERE 50 < delay PROB 0.6",
        "WHERE mTest(delay, '>', 58, 0.05, 0.05)",
        "WHERE delay > 70 OR road_id < 10",
    ]
    BOOTSTRAP = ExecutorConfig(
        accuracy_method="bootstrap",
        seed=3,
        mc_samples=32,
        bootstrap_resamples=4,
    )

    def _tuples(self) -> list[UncertainTuple]:
        tuples = _delay_tuples(23, 60)
        for i in (5, 17, 40):
            tuples[i] = UncertainTuple(
                {
                    "road_id": float(i),
                    "delay": DfSized(GaussianDistribution(61.0, 0.0), 12),
                }
            )
        return tuples

    @pytest.mark.parametrize("batched", [True, False])
    def test_counters_of_a_fixed_batch(self, batched):
        db = StreamDatabase()
        db.create_stream("t")
        for i, where in enumerate(self.WHERES):
            db.register_continuous(
                f"q{i}", f"{self.SELECT} {where}", lambda r: None
            )
        for i in range(2):
            db.register_continuous(
                f"boot{i}",
                f"{self.SELECT} WHERE delay > 60 PROB 0.5",
                lambda r: None,
                config=self.BOOTSTRAP,
            )
        if batched:
            db.insert_many("t", self._tuples())
        else:
            for tup in self._tuples():
                db.insert("t", tup)
        snap = db.metrics.snapshot()
        results = {
            name: snap[f"multiquery.query.{name}.results"]["value"]
            for name in db._continuous
        }
        assert results == {
            "q0": 37,
            "q1": 37,
            "q2": 47,
            "q3": 31,
            "q4": 50,
            "boot0": 33,
            "boot1": 33,
        }
        assert snap["multiquery.shared_hits"]["value"] == 148
        assert snap["multiquery.prefix_fallbacks"]["value"] == 1


class TestHistogramStandingQueries:
    """Learned histogram columns are decided in arrays on ingest too.

    The three queries are kernel-shaped and every row is covered, so
    no scalar residual runs on the shared path, while the results stay
    byte-identical to the naive loop (which runs one per row and
    query).
    """

    QUERIES = [
        "SELECT road_id, delay FROM t WHERE delay > 120 PROB 0.8",
        "SELECT road_id, delay FROM t WHERE delay > 200 PROB 0.5",
        "SELECT road_id, delay FROM t "
        "WHERE mTest(delay, '>', 90, 0.05, 0.05)",
    ]

    @staticmethod
    def _tuples() -> list[UncertainTuple]:
        rng = np.random.default_rng(17)
        return [
            UncertainTuple(
                {
                    "road_id": float(i),
                    "delay": DfSized(
                        HistogramDistribution(
                            np.linspace(0.0, 40.0, 9)
                            + float(rng.uniform(60.0, 200.0)),
                            rng.uniform(0.05, 1.0, 8),
                        ),
                        int(rng.integers(2, 60)),
                    ),
                }
            )
            for i in range(200)
        ]

    def _run(self, shared, monkeypatch):
        calls = []
        residual = QueryExecutor.residual_outcome

        def counting(executor, tup):
            calls.append(tup)
            return residual(executor, tup)

        monkeypatch.setattr(QueryExecutor, "residual_outcome", counting)
        db = StreamDatabase(shared_subplans=shared)
        db.create_stream("t")
        events: list[tuple[int, bytes]] = []
        for i, text in enumerate(self.QUERIES):
            db.register_continuous(
                f"q{i}",
                text,
                lambda r, i=i: events.append((i, pickle.dumps(r))),
            )
        db.insert_many("t", self._tuples())
        monkeypatch.setattr(QueryExecutor, "residual_outcome", residual)
        return events, len(calls)

    def test_no_scalar_residual_on_covered_rows(self, monkeypatch):
        naive, naive_calls = self._run(False, monkeypatch)
        shared, shared_calls = self._run(True, monkeypatch)
        assert naive_calls == 3 * 200
        assert shared_calls == 0
        assert {i for i, _ in shared} == {0, 1, 2}
        assert shared == naive


class TestLearnedHistogramPrefix:
    """Learned histogram columns get their accuracy in arrays on ingest.

    Raw CarTel reports are learned into histograms and pass the
    standing queries of the Figure-1 benchmark.  The naive loop runs
    one scalar ``distribution_accuracy`` per result; the shared path
    builds every matched row's Theorem-1 and Lemma-1 intervals in one
    columnar pass per group, with byte-identical results.
    """

    QUERIES = [
        "SELECT segment_id, delay FROM roads WHERE delay > 120 PROB 0.8",
        "SELECT segment_id, delay FROM roads WHERE delay > 200 PROB 0.5",
        "SELECT segment_id, delay FROM roads "
        "WHERE mTest(delay, '>', 90, 0.05, 0.05)",
        "SELECT segment_id, delay FROM roads WHERE speed_limit > 35",
    ]

    def _run(self, shared, monkeypatch):
        calls = []
        accuracy = executor_module.distribution_accuracy

        def counting(*args, **kwargs):
            calls.append(args)
            return accuracy(*args, **kwargs)

        monkeypatch.setattr(executor_module, "distribution_accuracy", counting)
        db = StreamDatabase(shared_subplans=shared)
        db.create_stream("roads")
        events: list[tuple[int, bytes]] = []
        for i, text in enumerate(self.QUERIES):
            db.register_continuous(
                f"q{i}",
                text,
                lambda r, i=i: events.append((i, pickle.dumps(r))),
            )
        sim = CarTelSimulator(n_segments=200, seed=7)
        records = [
            report.as_record()
            for report in sim.report_stream(window_minutes=10, start_hour=8.0)
        ]
        produced = db.ingest_observations(
            "roads",
            records,
            group_by="segment_id",
            value="delay",
            carry=("speed_limit",),
            min_observations=5,
        )
        monkeypatch.setattr(executor_module, "distribution_accuracy", accuracy)
        return events, len(calls), produced

    def test_no_scalar_accuracy_on_learned_rows(self, monkeypatch):
        naive, naive_calls, produced = self._run(False, monkeypatch)
        shared, shared_calls, _ = self._run(True, monkeypatch)
        assert produced > 20
        assert {i for i, _ in naive} == {0, 1, 2, 3}
        assert naive_calls == len(naive)
        assert shared_calls == 0
        assert shared == naive
