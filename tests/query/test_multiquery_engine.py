"""Unit tests of the shared-subplan engine internals.

The end-to-end byte-identity contract lives in
``tests/test_db_multiquery.py`` and the property suite; these pin the
pieces the contract rests on — residual vectorizability detection, the
conservative candidate screen, the query-set compile, and the RNG
guard.
"""

import numpy as np
import pytest

from repro.db import StreamDatabase
from repro.obs import Observer, TelemetryConfig
from repro.query.executor import ExecutorConfig, QueryExecutor
from repro.query.multiquery import (
    MultiQueryEngine,
    PrefixNeedsRng,
    _candidate_z_bound,
    _GuardRng,
)
from repro.query.planner import compile_query
from repro.query.residual import (
    MTestConjunct,
    VecConjunct,
    kernel_conjuncts,
    vectorizable_conjuncts,
)


def _specs(text: str):
    return vectorizable_conjuncts(compile_query(text))


class TestVectorizableConjuncts:
    def test_column_op_literal(self):
        specs = _specs("SELECT a FROM s WHERE a > 5 PROB 0.7")
        assert specs == (VecConjunct("a", ">", 5.0, 0.7),)

    def test_literal_op_column_flips(self):
        specs = _specs("SELECT a FROM s WHERE 5 < a PROB 0.7")
        assert specs == (VecConjunct("a", ">", 5.0, 0.7),)

    def test_bare_comparison_has_no_threshold(self):
        specs = _specs("SELECT a FROM s WHERE a <= 3")
        assert specs == (VecConjunct("a", "<=", 3.0, None),)

    def test_multi_conjunct(self):
        specs = _specs("SELECT a FROM s WHERE a > 1 AND b < 2 PROB 0.5")
        assert specs is not None and len(specs) == 2

    def test_no_where_is_empty_tuple(self):
        assert _specs("SELECT a FROM s") == ()

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT a FROM s WHERE a = 5",  # equality: branch-order trap
            "SELECT a FROM s WHERE a <> 5",
            "SELECT a FROM s WHERE a + b > 5",  # expression arithmetic
            "SELECT a FROM s WHERE mTest(a, '>', 0, 0.05)",
            "SELECT a FROM s WHERE a > 1 OR b > 2",
        ],
    )
    def test_non_vectorizable_shapes(self, text):
        assert _specs(text) is None

    def test_aggregates_keep_their_where_shape(self):
        # Aggregates read their matches from the same WHERE evaluator.
        assert _specs("SELECT AVG(a) FROM s") == ()
        assert _specs("SELECT SUM(a) FROM s WHERE a > 1 PROB 0.5") == (
            VecConjunct("a", ">", 1.0, 0.5),
        )

    def test_order_by_keeps_the_kernel_shape(self):
        # The sort key is evaluated per matched row, after the residual.
        specs = _specs("SELECT a FROM s WHERE a > 1 ORDER BY a DESC LIMIT 3")
        assert specs == (VecConjunct("a", ">", 1.0, None),)


class TestKernelConjuncts:
    def _kernel(self, text):
        return kernel_conjuncts(compile_query(text))

    def test_threshold_conjuncts_pass_through(self):
        text = "SELECT a FROM s WHERE a > 1 AND b < 2 PROB 0.5"
        assert self._kernel(text) == _specs(text)

    def test_single_coupled_mtest(self):
        specs = self._kernel(
            "SELECT a FROM s WHERE mTest(a, '<>', -2, 0.05, 0.1)"
        )
        assert specs == (MTestConjunct("a", "<>", -2.0, 0.05, 0.1),)

    def test_single_uncoupled_mtest(self):
        specs = self._kernel("SELECT a FROM s WHERE mTest(a, '>', 0, 0.05)")
        assert specs == (MTestConjunct("a", ">", 0.0, 0.05, None),)

    @pytest.mark.parametrize(
        "text, spec",
        [
            # The parser reads -1 as UnaryOp('neg', Literal(1.0)).
            (
                "SELECT a FROM s WHERE a > -1 PROB 0.5",
                VecConjunct("a", ">", -1.0, 0.5),
            ),
            (
                "SELECT a FROM s WHERE -1 < a PROB 0.5",
                VecConjunct("a", ">", -1.0, 0.5),
            ),
            ("SELECT a FROM s WHERE a <= --2", VecConjunct("a", "<=", 2.0, None)),
        ],
    )
    def test_negated_literal_is_a_constant(self, text, spec):
        assert self._kernel(text) == (spec,)

    def test_mtest_with_order_by(self):
        specs = self._kernel(
            "SELECT a FROM s WHERE mTest(a, '>', 0, 0.05) ORDER BY a"
        )
        assert specs == (MTestConjunct("a", ">", 0.0, 0.05, None),)

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT a FROM s WHERE mTest(a + b, '>', 0, 0.05)",
            "SELECT a FROM s WHERE mTest(a, '>', 0, 0.05) AND a > 1",
            "SELECT a FROM s WHERE mTest(a, '>', 0, 1.5, 0.05)",
            "SELECT a FROM s WHERE vTest(a, '>', 1, 0.05)",
            "SELECT a FROM s WHERE mdTest(a, b, '>', 0, 0.05)",
            "SELECT a FROM s WHERE a = 5",
            "SELECT a FROM s WHERE -a > 1",
            # neg(inf) raises on every row in the scalar path.
            "SELECT a FROM s WHERE a > -1e999",
        ],
    )
    def test_scalar_shapes(self, text):
        assert self._kernel(text) is None


class TestQuerySetCompile:
    def _batch(self):
        return [_gaussian_tuple(m) for m in (5.0, -5.0)]

    def test_compiled_on_first_batch_and_kept(self):
        engine = _shared_engine()
        assert engine._query_sets == {}
        engine.execute_batch("s", self._batch())
        compiled = engine._query_sets["s"]
        engine.execute_batch("s", self._batch())
        assert engine._query_sets["s"] is compiled

    def test_add_and_remove_recompile(self):
        engine = _shared_engine()
        engine.execute_batch("s", self._batch())
        engine.add(
            "q2", "s", QueryExecutor("SELECT a FROM s WHERE a > 3"), "h3"
        )
        assert "s" not in engine._query_sets
        engine.execute_batch("s", self._batch())
        assert len(engine._query_sets["s"].members) == 4
        engine.remove("q2")
        assert "s" not in engine._query_sets

    def test_equal_specs_screen_once(self):
        engine = MultiQueryEngine()
        for i, text in enumerate(
            [
                "SELECT a FROM s WHERE a > 1 PROB 0.5",
                "SELECT b FROM s WHERE a > 1 PROB 0.5",
                "SELECT a FROM s WHERE 1 < a PROB 0.5",
                "SELECT a FROM s WHERE a > 1 PROB 0.6",
                "SELECT a FROM s WHERE a >= 1 PROB 0.5",
            ]
        ):
            engine.add(f"q{i}", "s", QueryExecutor(text), f"h{i}")
        engine.execute_batch("s", [_gaussian_tuple(2.0)] * 2)
        buckets = {
            (b.column, b.op): b for b in engine._query_sets["s"].buckets
        }
        assert sorted(buckets) == [("a", ">"), ("a", ">=")]
        gt = buckets[("a", ">")]
        assert gt.consts.tolist() == [1.0, 1.0]
        assert [len(members) for members in gt.members] == [3, 1]


class TestCandidateZBound:
    def test_no_threshold_uses_underflow_bound(self):
        bound = _candidate_z_bound(VecConjunct("a", ">", 0.0, None))
        assert bound == 38.0

    def test_tiny_tau_accepts_everything(self):
        bound = _candidate_z_bound(VecConjunct("a", ">", 0.0, 1e-13))
        assert bound == np.inf

    def test_tau_above_one_rejects_everything(self):
        bound = _candidate_z_bound(VecConjunct("a", ">", 0.0, 1.0 + 1e-9))
        assert bound == -np.inf

    def test_midrange_tau_bounds_are_banded(self):
        # q >= tau  <=>  z <= erfcinv(2 tau); the screen's bound must
        # sit strictly above the exact inversion point.
        from scipy import special

        for tau in (0.1, 0.5, 0.9, 0.99):
            bound = _candidate_z_bound(VecConjunct("a", ">", 0.0, tau))
            exact = float(special.erfcinv(2.0 * tau))
            assert bound > exact
            assert bound - exact < 0.01

    def test_screen_never_rejects_a_qualifying_row(self):
        # Exhaustive scalar cross-check on a grid: every row the
        # executor accepts must be a screen candidate.
        import math

        rng = np.random.default_rng(0)
        taus = [1e-12, 0.01, 0.5, 0.9, 0.999999, 1.0]
        for tau in taus:
            bound = _candidate_z_bound(VecConjunct("a", ">", 0.0, tau))
            for _ in range(200):
                mu = float(rng.normal(0.0, 5.0))
                sigma2 = float(rng.uniform(0.0, 10.0))
                c = float(rng.normal(0.0, 5.0))
                if sigma2 > 0.0:
                    z = (c - mu) / math.sqrt(2.0 * sigma2)
                    q = 0.5 * math.erfc(z)
                    candidate = (
                        bool(bound > 0) if not np.isfinite(bound)
                        else (c - mu) <= bound * math.sqrt(2.0 * sigma2)
                    )
                else:
                    q = 1.0 if c < mu else 0.0  # step tail, > operator
                    candidate = (
                        bool(bound > 0) if not np.isfinite(bound)
                        else c <= mu
                    )
                if q >= tau:
                    assert candidate, (tau, mu, sigma2, c)


class TestGuardRng:
    def test_any_method_raises(self):
        guard = _GuardRng()
        with pytest.raises(PrefixNeedsRng):
            guard.normal(0.0, 1.0)
        with pytest.raises(PrefixNeedsRng):
            guard.choice([1, 2])

    def test_analytic_prefix_is_rng_free(self):
        executor = QueryExecutor("SELECT a FROM s")
        from repro.core.dfsample import DfSized
        from repro.distributions.gaussian import GaussianDistribution
        from repro.streams.tuples import UncertainTuple

        tup = UncertainTuple(
            {"a": DfSized(GaussianDistribution(1.0, 2.0), 10)}
        )
        attrs, acc = executor.evaluate_prefix(tup, rng=_GuardRng())
        assert set(attrs) == {"a"}
        assert acc["a"].method == "analytic"

    def test_bootstrap_prefix_trips_guard(self):
        executor = QueryExecutor(
            "SELECT a FROM s",
            config=ExecutorConfig(
                accuracy_method="bootstrap", bootstrap_resamples=4
            ),
        )
        from repro.core.dfsample import DfSized
        from repro.distributions.gaussian import GaussianDistribution
        from repro.streams.tuples import UncertainTuple

        tup = UncertainTuple(
            {"a": DfSized(GaussianDistribution(1.0, 2.0), 10)}
        )
        with pytest.raises(PrefixNeedsRng):
            executor.evaluate_prefix(tup, rng=_GuardRng())


class TestEngineBookkeeping:
    def test_groups_gauge_counts_multi_member_groups(self):
        engine = MultiQueryEngine()
        cfg = ExecutorConfig()
        for i, text in enumerate(
            [
                "SELECT a FROM s WHERE a > 1",
                "SELECT a FROM s WHERE a > 2",
                "SELECT b FROM s WHERE b > 1",
            ]
        ):
            engine.add(f"q{i}", "s", QueryExecutor(text, config=cfg), object())
        assert engine.shared_group_count() == 1
        engine.remove("q1")
        assert engine.shared_group_count() == 0
        engine.remove_source("s")
        assert engine._entries == {}

    def test_aggregate_queries_never_group(self):
        engine = MultiQueryEngine()
        engine.add(
            "agg", "s", QueryExecutor("SELECT AVG(a) FROM s"), object()
        )
        assert engine.group_size("agg") == 1


def _gaussian_tuple(mean):
    from repro.core.dfsample import DfSized
    from repro.distributions.gaussian import GaussianDistribution
    from repro.streams.tuples import UncertainTuple

    return UncertainTuple(
        {
            "a": DfSized(GaussianDistribution(mean, 1.0), 10),
            "b": DfSized(GaussianDistribution(mean, 1.0), 10),
        }
    )


def _shared_engine(observer=None):
    """Two queries sharing a prefix group plus one solo query."""
    engine = MultiQueryEngine(observer)
    cfg = ExecutorConfig()
    engine.add(
        "q0", "s",
        QueryExecutor("SELECT a FROM s WHERE a > 1 PROB 0.5", config=cfg),
        "h0",
    )
    engine.add(
        "q1", "s",
        QueryExecutor("SELECT a FROM s WHERE a > 100 PROB 0.5", config=cfg),
        "h1",
    )
    # Selects a different attribute, so it shares no prefix group.
    engine.add(
        "solo", "s",
        QueryExecutor("SELECT b FROM s WHERE b < 0 PROB 0.5", config=cfg),
        "h2",
    )
    return engine


class TestResultAttribution:
    """Per-query and per-group ``multiquery.*.results`` counters: the
    series SLO rules and frame deltas attribute load to."""

    def test_iter_results_counts_per_query_and_per_group(self):
        engine = _shared_engine()
        emitted = []
        for mean in (5.0, 5.0, -5.0):
            emitted.extend(
                handle
                for handle, _ in engine.iter_results(
                    "s", _gaussian_tuple(mean)
                )
            )
        snap = engine.metrics.snapshot()
        per_query = {
            name: snap[f"multiquery.query.{name}.results"]["value"]
            for name in ("q0", "q1", "solo")
        }
        assert per_query == {
            "q0": emitted.count("h0"),
            "q1": emitted.count("h1"),
            "solo": emitted.count("h2"),
        }
        assert per_query["q0"] == 2  # a ~ N(5,1) clears > 1, not > 100
        assert per_query["solo"] == 1
        gid = engine._entries["q0"].group.gid
        assert snap[f"multiquery.group.{gid}.results"]["value"] == (
            per_query["q0"] + per_query["q1"]
        )

    def test_group_id_is_stable_across_engines(self):
        first = _shared_engine()
        second = _shared_engine()
        assert (
            first._entries["q0"].group.gid
            == second._entries["q0"].group.gid
        )

    def test_execute_batch_matches_iter_results_counts(self):
        tuples = [_gaussian_tuple(m) for m in (5.0, -5.0, 5.0, 200.0)]
        batched = _shared_engine()
        batched.execute_batch("s", tuples)
        serial = _shared_engine()
        for tup in tuples:
            list(serial.iter_results("s", tup))
        names = [
            name
            for name in batched.metrics.snapshot()
            if name.startswith("multiquery.")
        ]
        batched_snap = batched.metrics.snapshot()
        serial_snap = serial.metrics.snapshot()
        for name in names:
            assert batched_snap[name] == serial_snap[name], name


class TestEngineTelemetry:
    def _recorder(self, interval=2):
        observer = Observer(frames=TelemetryConfig(frame_interval=interval))
        return _shared_engine(observer), observer.frames

    def test_iter_results_advances_one_position_per_tuple(self):
        engine, recorder = self._recorder(interval=2)
        for mean in (5.0, -5.0, 5.0, 5.0):
            list(engine.iter_results("s", _gaussian_tuple(mean)))
        assert recorder.position == 4
        assert len(recorder.series) == 2
        gid = engine._entries["q0"].group.gid
        name = f"multiquery.group.{gid}.results"
        # Frame deltas split the group's results by stream position.
        assert [
            frame.metrics.get(name, {"value": 0})["value"]
            for frame in recorder.series
        ] == [1, 2]

    def test_execute_batch_advances_by_batch_size(self):
        engine, recorder = self._recorder(interval=4)
        engine.execute_batch(
            "s", [_gaussian_tuple(m) for m in (5.0, -5.0, 5.0)]
        )
        assert recorder.position == 3
        assert len(recorder.series) == 0  # below the frame boundary
        engine.execute_batch("s", [_gaussian_tuple(5.0)])
        recorder.finalize()
        assert recorder.position == 4
        assert len(recorder.series) == 1

    def test_database_insert_many_cuts_multiquery_frames(self):
        # StreamDatabase records into one observer: its standing-query
        # dispatch advances the observer's frames, which diff the same
        # registry the engine's multiquery.* counters live in.
        observer = Observer(frames=TelemetryConfig(frame_interval=4))
        db = StreamDatabase(observer=observer)
        db.create_stream("s")
        results = []
        for i in range(2):
            db.register_continuous(
                f"q{i}", "SELECT a FROM s WHERE a > 1 PROB 0.5",
                results.append,
            )
        means = (5.0, -5.0, 5.0, 5.0, 5.0, -5.0, 5.0, 5.0)
        db.insert_many("s", [_gaussian_tuple(m) for m in means])
        assert db.metrics is observer.metrics
        frames = observer.frames.series.frames
        assert [(f.start, f.end) for f in frames] == [(0, 8)]
        counted = {
            name: state["value"]
            for name, state in frames[0].metrics.items()
            if name.startswith("multiquery.") and state["type"] == "counter"
        }
        assert counted["multiquery.shared_hits"] > 0
        assert counted["multiquery.query.q0.results"] == 6
        assert len(results) == 12
