"""Query compilation: validation against a schema and normalisation.

The planner checks column references, enforces the supported composition
rules for significance predicates (they may appear only under top-level
AND — mixing hypothesis-test decisions into probability algebra under
OR/NOT has no sound semantics), and flattens the WHERE clause into a list
of conjuncts the executor evaluates per tuple.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict

from repro.errors import QueryError
from repro.query.expressions import Expression
from repro.query.parser import (
    AndCondition,
    CompareCondition,
    Condition,
    NotCondition,
    OrCondition,
    Query,
    SignificanceCondition,
    parse_query,
)
from repro.streams.tuples import Schema

__all__ = [
    "CompiledQuery",
    "PlanSplit",
    "compile_query",
    "compile_query_cached",
    "clear_plan_cache",
    "plan_cache_size",
    "prefix_fingerprint",
    "split_plan",
    "PLAN_CACHE_MAX",
]


@dataclasses.dataclass(frozen=True)
class CompiledQuery:
    """A validated query, with the WHERE clause split into conjuncts."""

    source: str
    select_items: tuple[tuple[Expression, str], ...]
    star: bool
    conjuncts: tuple[Condition, ...]
    referenced_columns: frozenset[str]
    order_by: Expression | None = None
    descending: bool = False
    limit: int | None = None
    aggregates: tuple[str | None, ...] = ()
    group_by: str | None = None

    @property
    def is_aggregate(self) -> bool:
        return any(agg is not None for agg in self.aggregates)


def _collect_columns(condition: Condition) -> set[str]:
    if isinstance(condition, CompareCondition):
        return condition.comparison.columns()
    if isinstance(condition, SignificanceCondition):
        columns: set[str] = set()
        if condition.expr_x is not None:
            columns |= condition.expr_x.columns()
        if condition.expr_y is not None:
            columns |= condition.expr_y.columns()
        if condition.comparison is not None:
            columns |= condition.comparison.columns()
        return columns
    if isinstance(condition, (AndCondition, OrCondition)):
        columns = set()
        for part in condition.parts:
            columns |= _collect_columns(part)
        return columns
    if isinstance(condition, NotCondition):
        return _collect_columns(condition.part)
    raise QueryError(f"unknown condition node {type(condition).__name__}")


def _contains_significance(condition: Condition) -> bool:
    if isinstance(condition, SignificanceCondition):
        return True
    if isinstance(condition, (AndCondition, OrCondition)):
        return any(_contains_significance(p) for p in condition.parts)
    if isinstance(condition, NotCondition):
        return _contains_significance(condition.part)
    return False


def _contains_threshold(condition: Condition) -> bool:
    if isinstance(condition, CompareCondition):
        return condition.threshold is not None
    if isinstance(condition, (AndCondition, OrCondition)):
        return any(_contains_threshold(p) for p in condition.parts)
    if isinstance(condition, NotCondition):
        return _contains_threshold(condition.part)
    return False


def _flatten_conjuncts(condition: Condition) -> list[Condition]:
    if isinstance(condition, AndCondition):
        conjuncts: list[Condition] = []
        for part in condition.parts:
            conjuncts.extend(_flatten_conjuncts(part))
        return conjuncts
    return [condition]


def _validate_composition(conjuncts: list[Condition]) -> None:
    for conjunct in conjuncts:
        if isinstance(conjunct, (OrCondition, NotCondition)):
            if _contains_significance(conjunct):
                raise QueryError(
                    "significance predicates may not appear under OR/NOT; "
                    "hypothesis-test decisions do not compose with "
                    "probability algebra"
                )
            if _contains_threshold(conjunct):
                raise QueryError(
                    "probability-threshold predicates may not appear under "
                    "OR/NOT; apply the threshold at the top level"
                )


def compile_query(
    query: "Query | str", schema: Schema | None = None
) -> CompiledQuery:
    """Validate and compile a parsed query (or query text).

    When a schema is given, every referenced column must exist in it.
    """
    if isinstance(query, str):
        query = parse_query(query)

    referenced: set[str] = set()
    for expr, _alias in query.select_items:
        referenced |= expr.columns()
    conjuncts: list[Condition] = []
    if query.where is not None:
        conjuncts = _flatten_conjuncts(query.where)
        _validate_composition(conjuncts)
        referenced |= _collect_columns(query.where)
    if query.order_by is not None:
        referenced |= query.order_by.columns()
    if query.group_by is not None:
        referenced |= {query.group_by}

    if schema is not None:
        unknown = sorted(name for name in referenced if name not in schema)
        if unknown:
            raise QueryError(
                f"query references unknown attributes {unknown}; "
                f"schema has {list(schema.names)}"
            )

    aliases = [alias for _expr, alias in query.select_items]
    if len(set(aliases)) != len(aliases):
        raise QueryError(f"duplicate output names in SELECT list: {aliases}")

    if query.is_aggregate:
        if any(agg is None for agg in query.aggregates):
            raise QueryError(
                "cannot mix aggregate and per-tuple SELECT items; "
                "GROUP BY keys are included in the output automatically"
            )
        if query.order_by is not None or query.limit is not None:
            raise QueryError(
                "ORDER BY / LIMIT are not supported on aggregate results "
                "(groups are emitted in sorted key order)"
            )
    elif query.group_by is not None:
        raise QueryError("GROUP BY requires aggregate SELECT items")

    return CompiledQuery(
        source=query.source,
        select_items=query.select_items,
        star=query.star,
        conjuncts=tuple(conjuncts),
        referenced_columns=frozenset(referenced),
        order_by=query.order_by,
        descending=query.descending,
        limit=query.limit,
        aggregates=query.aggregates,
        group_by=query.group_by,
    )


# ---------------------------------------------------------------------------
# Plan cache
# ---------------------------------------------------------------------------

#: Eviction bound of the compiled-plan cache (least recently used out).
PLAN_CACHE_MAX = 256

_plan_cache: "OrderedDict[str, CompiledQuery]" = OrderedDict()


def _normalize_query_text(text: str) -> str:
    """Whitespace-insensitive cache key for query text."""
    return " ".join(text.split())


def compile_query_cached(text: str) -> tuple[CompiledQuery, bool]:
    """Compile schema-less query text through a bounded LRU plan cache.

    Returns ``(plan, hit)``; identical query texts (modulo whitespace)
    share one immutable :class:`CompiledQuery` object, so registering
    the same standing query N times compiles it once.  Only the
    schema-less form is cached — schema validation depends on mutable
    schema objects, so :func:`compile_query` with a schema always
    compiles fresh.  Callers surface ``hit`` in their own metrics
    registries (e.g. ``plan_cache.hits`` / ``plan_cache.misses`` on
    :class:`repro.db.StreamDatabase`).
    """
    key = _normalize_query_text(text)
    cached = _plan_cache.get(key)
    if cached is not None:
        _plan_cache.move_to_end(key)
        return cached, True
    compiled = compile_query(text)
    _plan_cache[key] = compiled
    while len(_plan_cache) > PLAN_CACHE_MAX:
        _plan_cache.popitem(last=False)
    return compiled, False


def clear_plan_cache() -> None:
    """Drop every cached plan (test isolation)."""
    _plan_cache.clear()


def plan_cache_size() -> int:
    """Number of plans currently cached."""
    return len(_plan_cache)


# ---------------------------------------------------------------------------
# Shared-subplan support: prefix fingerprint and prefix/residual split
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class PlanSplit:
    """A compiled plan split at the accuracy-bearing prefix boundary.

    ``prefix`` is the expensive, per-tuple work whose output is
    identical for every query with the same :func:`prefix_fingerprint`:
    projection of the SELECT items and Theorem-1 accuracy attachment.
    ``residual`` is the cheap per-query remainder: WHERE conjuncts,
    the membership-probability interval, and the ORDER BY sort key.
    """

    star: bool
    prefix_select: tuple
    residual_conjuncts: tuple
    order_by: object | None


def split_plan(compiled: CompiledQuery) -> PlanSplit:
    """Split a compiled plan into its shared prefix and residual stages."""
    return PlanSplit(
        star=compiled.star,
        prefix_select=compiled.select_items,
        residual_conjuncts=compiled.conjuncts,
        order_by=compiled.order_by,
    )


def prefix_fingerprint(
    compiled: CompiledQuery, config: object
) -> tuple | None:
    """Structural fingerprint of a plan's accuracy-bearing prefix.

    Two standing queries whose fingerprints are equal compute exactly
    the same projection and accuracy work per tuple, so a multi-query
    engine may evaluate that prefix once and fan the output to each
    query's residual stage.  The fingerprint covers the source stream,
    the SELECT structure (the expression AST nodes are frozen
    dataclasses, hence hashable), and every config knob the prefix
    depends on: confidence, accuracy method, the Monte-Carlo budget,
    and the bootstrap/adaptive parameters.

    Deliberately excluded: ``seed`` (prefix results are only ever
    shared when their computation is RNG-free, in which case it does
    not matter), ``keep_unsure`` (it only affects residual
    significance decisions), and the WHERE / ORDER BY / LIMIT clauses
    (all residual).  Aggregate plans return ``None`` — they consume
    whole streams, not single tuples, and never share.
    """
    if compiled.is_aggregate:
        return None
    return (
        compiled.source,
        compiled.star,
        compiled.select_items,
        config.confidence,
        config.accuracy_method,
        config.mc_samples,
        config.bootstrap_resamples,
        config.target_ci_width,
        config.target_relative_width,
        config.bootstrap_initial_resamples,
        config.bootstrap_growth,
    )
