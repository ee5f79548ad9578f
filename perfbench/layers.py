"""Which public entry points the traced run wraps, and the layer metrics.

Span names follow the ``src/repro`` module that owns the work.  The
mapping from each per-layer metric to the end-to-end metric it should
move, and on which workload, is in ``README.md``.
"""

from __future__ import annotations

from collections import Counter

import repro.db
import repro.learning.sketch.learners
import repro.query.executor
import repro.query.multiquery
import repro.streams.operators
from repro import Pipeline, QueryExecutor, StreamDatabase, ThreeValued
from repro.learning.registry import LEARNERS
from repro.learning.sketch import QuantileSketchLearner
from repro.query.multiquery import MultiQueryEngine, vectorizable_conjuncts
from repro.streams import Operator

from tracing import SpanRecorder
from workloads import MeanAlarm, RecentSink, ResultCounter

OPERATORS = (
    "RollingLearnOperator",
    "SignificanceFilter",
    "GroupedAggregate",
)


def _operator_span(args: tuple) -> str:
    # The sink is the benchmark's own operator, timed with its callbacks.
    if isinstance(args[0], RecentSink):
        return "bench.callback"
    return f"streams.operators.{type(args[0]).__name__}"


def _observe_operator(rec: SpanRecorder, _result, args: tuple) -> None:
    rec.counts[f"{_operator_span(args)}.in"] += len(args[1])


def _observe_residual(rec: SpanRecorder, result, args: tuple) -> None:
    """Screen precision: candidates the batched screen let through that
    the scalar residual then matched (vectorizable plans only)."""
    if rec.open_name() != "query.multiquery.batch":
        return
    executor = args[0]
    vectorizable = rec.memo.get(id(executor))
    if vectorizable is None:
        vectorizable = vectorizable_conjuncts(executor.query) is not None
        rec.memo[id(executor)] = vectorizable
    if vectorizable:
        rec.counts["screen.candidates"] += 1
        rec.counts["screen.matched"] += result is not None


def _observe_read(rec: SpanRecorder, result, args: tuple) -> None:
    rec.counts["read.rows_scanned"] += len(args[1])
    rec.counts["read.rows_returned"] += len(result)


def _observe_draws(rec: SpanRecorder, result, _args: tuple) -> None:
    rec.counts["bootstrap.draws"] += result.draws_used


def _observe_coupled(rec: SpanRecorder, result, _args: tuple) -> None:
    rec.counts["coupled.unsure"] += result.value is ThreeValued.UNSURE


def targets() -> list[tuple]:
    """``(owner, attribute, span name, observe, lazy)`` rows to wrap."""
    executor = repro.query.executor
    multiquery = repro.query.multiquery
    operators = repro.streams.operators
    rows = [
        (StreamDatabase, "insert_many", "db.ingest", None, False),
        (StreamDatabase, "insert", "db.ingest", None, False),
        (StreamDatabase, "ingest_observations", "db.ingest", None, False),
        (StreamDatabase, "query", "db.read", None, False),
        (repro.db, "compile_query_cached", "query.planner.compile", None,
         False),
        (multiquery, "as_columnar", "streams.columnar", None, False),
        (MultiQueryEngine, "execute_batch", "query.multiquery.batch", None,
         False),
        (MultiQueryEngine, "iter_results", "query.multiquery.dispatch",
         None, True),
        (QueryExecutor, "residual_outcome", "query.executor.residual",
         _observe_residual, False),
        (QueryExecutor, "evaluate_prefix", "query.executor.prefix", None,
         False),
        (QueryExecutor, "execute", "query.executor.read", _observe_read,
         False),
        (executor, "distribution_accuracy", "core.analytic", None, False),
        (executor, "tuple_probability_interval", "core.analytic", None,
         False),
        (multiquery, "accuracy_from_moments", "core.analytic", None, False),
        (multiquery, "distribution_accuracy", "core.analytic", None, False),
        (operators, "accuracy_from_moments", "core.analytic", None, False),
        (repro.learning.sketch.learners, "accuracy_from_stats",
         "core.analytic", None, False),
        (executor, "bootstrap_accuracy_info", "core.bootstrap",
         _observe_draws, False),
        (executor, "adaptive_bootstrap_accuracy_info", "core.bootstrap",
         _observe_draws, False),
        (executor, "coupled_tests", "core.coupled", _observe_coupled, False),
        (operators, "coupled_tests", "core.coupled", _observe_coupled,
         False),
    ]
    # Learner.learn is abstract: wrap each registered learner class that
    # defines its own ``learn``, once.
    for factory in dict.fromkeys(LEARNERS.values()):
        if isinstance(factory, type) and "learn" in vars(factory):
            rows.append((factory, "learn", "learning.learn", None, False))
    sketch = QuantileSketchLearner
    rows += [
        (sketch, "partial_add", "learning.sketch.add", None, False),
        (sketch, "partial_evict", "learning.sketch.evict", None, False),
        (sketch, "partial_distribution", "learning.sketch.emit", None,
         False),
        (sketch, "partial_accuracy", "learning.sketch.emit", None, False),
        (Operator, "receive_many", _operator_span, _observe_operator, False),
        (Pipeline, "push_many", "streams.pipeline", None, False),
        (ResultCounter, "__call__", "bench.callback", None, False),
        (MeanAlarm, "__call__", "bench.callback", None, False),
    ]
    return rows


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    table: dict[str, dict[str, float]],
    counts,
    before: dict[str, float],
    after: dict[str, float],
) -> dict[str, float]:
    """Per-layer metrics from the span table and counters.

    ``before``/``after`` are the workload's own counters (plan cache,
    shared hits, results, live groups) at the start and end of the
    traced phase; ``counts`` holds the counts recorded at span
    boundaries.  A layer the workload never enters reads 0.
    """

    def calls(name: str) -> float:
        return float(table.get(name, {}).get("calls", 0))

    def self_s(name: str) -> float:
        return float(table.get(name, {}).get("self_s", 0.0))

    def delta(key: str) -> float:
        return after.get(key, 0.0) - before.get(key, 0.0)

    hits = after.get("plan_cache.hits", 0.0)
    misses = after.get("plan_cache.misses", 0.0)
    metrics = {
        "query.planner.compile.calls": calls("query.planner.compile"),
        "query.planner.compile.self_s": self_s("query.planner.compile"),
        "db.plan_cache.hit_ratio": _ratio(hits, hits + misses),
        "db.ingest.self_s": self_s("db.ingest"),
        "db.read.self_s": self_s("db.read"),
        "streams.columnar.self_s": self_s("streams.columnar"),
        "query.multiquery.batch.self_s": self_s("query.multiquery.batch"),
        "query.multiquery.screen_precision": _ratio(
            counts["screen.matched"], counts["screen.candidates"]
        ),
        "query.multiquery.shared_hit_ratio": _ratio(
            delta("multiquery.shared_hits"), delta("results")
        ),
        "query.multiquery.prefix_fallbacks": after.get(
            "multiquery.prefix_fallbacks", 0.0
        ),
        "query.multiquery.dispatch.self_s": self_s(
            "query.multiquery.dispatch"
        ),
        "query.executor.residual.calls": calls("query.executor.residual"),
        "query.executor.residual.self_s": self_s("query.executor.residual"),
        "query.executor.prefix.calls": calls("query.executor.prefix"),
        "query.executor.prefix.self_s": self_s("query.executor.prefix"),
        "query.executor.read.self_s": self_s("query.executor.read"),
        "query.executor.read.rows_per_result": _ratio(
            counts["read.rows_scanned"], counts["read.rows_returned"]
        ),
        "core.analytic.calls": calls("core.analytic"),
        "core.analytic.self_s": self_s("core.analytic"),
        "core.bootstrap.calls": calls("core.bootstrap"),
        "core.bootstrap.self_s": self_s("core.bootstrap"),
        "core.bootstrap.draws_per_call": _ratio(
            counts["bootstrap.draws"], calls("core.bootstrap")
        ),
        "core.coupled.calls": calls("core.coupled"),
        "core.coupled.self_s": self_s("core.coupled"),
        "core.coupled.unsure_frac": _ratio(
            counts["coupled.unsure"], calls("core.coupled")
        ),
        "learning.learn.calls": calls("learning.learn"),
        "learning.learn.self_s": self_s("learning.learn"),
        "learning.sketch.add.self_s": self_s("learning.sketch.add"),
        "learning.sketch.evict.self_s": self_s("learning.sketch.evict"),
        "learning.sketch.emit.self_s": self_s("learning.sketch.emit"),
        # One emission is a partial_distribution + partial_accuracy pair.
        "learning.sketch.emits_per_add": _ratio(
            calls("learning.sketch.emit") / 2.0,
            calls("learning.sketch.add"),
        ),
        "streams.pipeline.self_s": self_s("streams.pipeline"),
    }
    for i, op in enumerate(OPERATORS):
        span = f"streams.operators.{op}"
        metrics[f"{span}.self_s"] = self_s(span)
        metrics[f"{span}.in"] = float(counts[f"{span}.in"])
        # The pipeline is linear: what an operator emits is what the next
        # one (the last: the benchmark's sink) receives.
        downstream = (
            f"streams.operators.{OPERATORS[i + 1]}"
            if i + 1 < len(OPERATORS)
            else "bench.callback"
        )
        metrics[f"{span}.out"] = float(counts[f"{downstream}.in"])
    metrics["streams.operators.state_bytes"] = after.get(
        "operator_state_bytes", 0.0
    )
    metrics["streams.groupby.live_groups"] = after.get("live_groups", 0.0)
    metrics["bench.callback.self_s"] = self_s("bench.callback")
    return metrics


def _unit(name: str) -> tuple[str, str]:
    """(unit, better direction) of one per-layer metric."""
    if name.endswith("_s"):
        return "s", "lower"
    if name.endswith("state_bytes"):
        return "bytes", "lower"
    if name.endswith("draws_per_call"):
        return "draws/call", "lower"
    if name.endswith(("hit_ratio", "screen_precision")):
        return "ratio", "higher"
    if name.endswith(("_frac", "_per_result", "_per_add", "overhead")):
        return "ratio", "lower"
    return "count", "lower"


#: Every per-layer metric a traced run prints: name -> (unit, better).
PER_LAYER = {
    name: _unit(name)
    for name in [
        *layer_metrics({}, Counter(), {}, {}),
        "trace.wall_s",
        "trace.uncovered_s",
        "trace.overhead",
        "trace.spans",
    ]
}
