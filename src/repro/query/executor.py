"""Query execution with accuracy-aware results.

For each input tuple the executor:

1. evaluates the WHERE conjuncts — probability-threshold and bare
   comparisons contribute a probability factor (possible-world
   semantics), significance predicates contribute a TRUE/FALSE/UNSURE
   decision (COUPLED-TESTS when two alphas are given);
2. evaluates the SELECT expressions into DfSized values, propagating the
   de facto sample size (Lemma 3);
3. attaches accuracy information per Theorem 1 — analytically
   (Lemmas 1/2) or by bootstrap (BOOTSTRAP-ACCURACY-INFO) — to every
   distribution-valued output field, and a Lemma-1 interval to the result
   tuple's membership probability.  :meth:`QueryExecutor.execute` runs
   this step after ORDER BY / LIMIT, for the returned rows only: steps
   1-2 and the ORDER BY key run per tuple in arrival order, then the
   rows are sorted and cut.  Analytic and ``"none"`` accuracy draw no
   randomness, so deferring them changes no result byte; bootstrap
   accuracy draws from the executor's generator, so it stays in the
   per-tuple pass, in arrival order.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Iterator, Sequence
from itertools import islice

import numpy as np

from repro.core.accuracy import AccuracyInfo, TupleProbabilityInterval
from repro.core.analytic import (
    distribution_accuracy,
    tuple_probability_interval,
)
from repro.core.adaptive import (
    DEFAULT_GROWTH,
    DEFAULT_INITIAL_RESAMPLES,
    adaptive_bootstrap_accuracy_info,
)
from repro.core.bootstrap import bootstrap_accuracy_info
from repro.core.coupled import ThreeValued, coupled_tests
from repro.core.dfsample import DfSized
from repro.core.predicates import (
    FieldStats,
    MdTest,
    MTest,
    PTest,
    SignificancePredicate,
    VTest,
)
from repro.distributions.base import Deterministic
from repro.distributions.empirical import EmpiricalDistribution
from repro.distributions.gaussian import GaussianDistribution
from repro.distributions.histogram import HistogramDistribution
from repro.errors import QueryError
from repro.query.expressions import EvalContext
from repro.query.parser import (
    AndCondition,
    CompareCondition,
    Condition,
    NotCondition,
    OrCondition,
    SignificanceCondition,
)
from repro.query.planner import CompiledQuery, compile_query
from repro.query.residual import (
    ResidualOutcome,
    decide_rows,
    kernel_conjuncts,
    merge_fallback,
)
from repro.streams.tuples import Schema, UncertainTuple

__all__ = [
    "ExecutorConfig",
    "ResultTuple",
    "ResidualOutcome",
    "QueryExecutor",
]

_ACCURACY_METHODS = ("analytic", "bootstrap", "none")

#: Buffered rows columnarized at a time when ``execute`` decides a
#: kernel-shaped WHERE clause in arrays: the arrays of one read stay
#: this small however long the stream buffer is.
_CHUNK_ROWS = 4096


@dataclasses.dataclass
class ExecutorConfig:
    """Execution knobs.

    ``accuracy_method`` selects how result accuracy is obtained:
    ``"analytic"`` (Theorem 1), ``"bootstrap"``
    (BOOTSTRAP-ACCURACY-INFO), or ``"none"`` (accuracy-oblivious — the
    behaviour of prior systems, kept for the throughput baseline).
    ``bootstrap_resamples`` is the r of the bootstrap algorithm; the
    draw count is ``max(mc_samples, r * n, 2n)`` rounded up to a
    multiple of the de facto sample size ``n`` so chunking never drops
    values.

    Setting ``target_ci_width`` (absolute width of the mean interval)
    and/or ``target_relative_width`` (width of the mean and variance
    intervals relative to their midpoints) switches the bootstrap to
    the adaptive early-stopping path (:mod:`repro.core.adaptive`):
    draws start at ``bootstrap_initial_resamples`` resamples and
    escalate by ``bootstrap_growth`` up to the fixed budget, stopping
    as soon as the calibrated interval width meets the target.
    """

    confidence: float = 0.95
    accuracy_method: str = "analytic"
    mc_samples: int = 1000
    bootstrap_resamples: int = 20
    target_ci_width: float | None = None
    target_relative_width: float | None = None
    bootstrap_initial_resamples: int = DEFAULT_INITIAL_RESAMPLES
    bootstrap_growth: float = DEFAULT_GROWTH
    keep_unsure: bool = False
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.accuracy_method not in _ACCURACY_METHODS:
            raise QueryError(
                f"accuracy_method must be one of {_ACCURACY_METHODS}, "
                f"got {self.accuracy_method!r}"
            )
        if not 0.0 < self.confidence < 1.0:
            raise QueryError(
                f"confidence must be in (0,1), got {self.confidence}"
            )
        if self.mc_samples < 2:
            raise QueryError(
                f"mc_samples must be >= 2, got {self.mc_samples}"
            )
        if self.bootstrap_resamples < 2:
            raise QueryError(
                "bootstrap_resamples must be >= 2, "
                f"got {self.bootstrap_resamples}"
            )
        for name in ("target_ci_width", "target_relative_width"):
            target = getattr(self, name)
            if target is not None and not target > 0.0:
                raise QueryError(f"{name} must be > 0, got {target}")
        if self.bootstrap_initial_resamples < 2:
            raise QueryError(
                "bootstrap_initial_resamples must be >= 2, "
                f"got {self.bootstrap_initial_resamples}"
            )
        if self.bootstrap_growth <= 1.0:
            raise QueryError(
                f"bootstrap_growth must be > 1, got {self.bootstrap_growth}"
            )


@dataclasses.dataclass
class ResultTuple:
    """One query result: values, membership probability, and accuracy."""

    attributes: dict[str, DfSized]
    probability: float
    probability_interval: TupleProbabilityInterval | None
    accuracy: dict[str, AccuracyInfo]
    decisions: tuple[ThreeValued, ...] = ()
    source: UncertainTuple | None = None
    sort_key: float | None = None

    def value(self, name: str) -> DfSized:
        try:
            return self.attributes[name]
        except KeyError:
            raise QueryError(f"result has no field {name!r}") from None

    def describe(self) -> str:
        """Readable rendering of the result with its accuracy info."""
        lines = [f"probability = {self.probability:.4g}"]
        if self.probability_interval is not None:
            lines.append(f"  interval {self.probability_interval.interval}")
        for name, field in self.attributes.items():
            dist = field.distribution
            if isinstance(dist, Deterministic):
                lines.append(f"{name} = {dist.value:.6g}")
            else:
                lines.append(f"{name} ~ {dist!r} (n={field.sample_size})")
            if name in self.accuracy:
                indented = "\n".join(
                    "  " + line
                    for line in self.accuracy[name].describe().splitlines()
                )
                lines.append(indented)
        return "\n".join(lines)


@dataclasses.dataclass
class _ConditionOutcome:
    qualifies: bool
    probability: float
    sizes: tuple[int | None, ...]
    decisions: tuple[ThreeValued, ...]


class QueryExecutor:
    """Executes a compiled query over uncertain tuples."""

    def __init__(
        self,
        query: "CompiledQuery | str",
        schema: Schema | None = None,
        config: ExecutorConfig | None = None,
    ) -> None:
        if isinstance(query, str):
            query = compile_query(query, schema)
        self.query = query
        self.config = config if config is not None else ExecutorConfig()
        self._rng = np.random.default_rng(self.config.seed)

    # -- condition evaluation -------------------------------------------------

    def _build_predicate(
        self, condition: SignificanceCondition, ctx: EvalContext
    ) -> SignificancePredicate:
        alpha = condition.alpha1
        if condition.kind == "mtest":
            assert condition.expr_x is not None
            field = FieldStats.from_dfsized(condition.expr_x.evaluate(ctx))
            return MTest(field, condition.op, condition.constant, alpha)
        if condition.kind == "vtest":
            assert condition.expr_x is not None
            field = FieldStats.from_dfsized(condition.expr_x.evaluate(ctx))
            return VTest(field, condition.op, condition.constant, alpha)
        if condition.kind == "mdtest":
            assert condition.expr_x is not None
            assert condition.expr_y is not None
            field_x = FieldStats.from_dfsized(condition.expr_x.evaluate(ctx))
            field_y = FieldStats.from_dfsized(condition.expr_y.evaluate(ctx))
            return MdTest(
                field_x, field_y, condition.op, condition.constant, alpha
            )
        assert condition.comparison is not None
        p_hat, size = condition.comparison.probability(ctx)
        if size is None:
            raise QueryError(
                "pTest needs a sampled operand; the comparison involves "
                "only exact values"
            )
        return PTest(p_hat, size, condition.tau, ">", alpha)

    def _evaluate_significance(
        self, condition: SignificanceCondition, ctx: EvalContext
    ) -> _ConditionOutcome:
        predicate = self._build_predicate(condition, ctx)
        if condition.alpha2 is None:
            result = predicate.run()
            decision = ThreeValued.TRUE if result.reject else ThreeValued.FALSE
        else:
            decision = coupled_tests(
                predicate, condition.alpha1, condition.alpha2
            ).value
        qualifies = decision is ThreeValued.TRUE or (
            decision is ThreeValued.UNSURE and self.config.keep_unsure
        )
        return _ConditionOutcome(qualifies, 1.0, (), (decision,))

    def _evaluate_condition(
        self, condition: Condition, ctx: EvalContext
    ) -> _ConditionOutcome:
        if isinstance(condition, CompareCondition):
            q, size = condition.comparison.probability(ctx)
            if condition.threshold is not None:
                return _ConditionOutcome(
                    q >= condition.threshold, q, (size,), ()
                )
            return _ConditionOutcome(q > 0.0, q, (size,), ())
        if isinstance(condition, SignificanceCondition):
            return self._evaluate_significance(condition, ctx)
        if isinstance(condition, AndCondition):
            probability = 1.0
            sizes: list[int | None] = []
            decisions: list[ThreeValued] = []
            qualifies = True
            for part in condition.parts:
                outcome = self._evaluate_condition(part, ctx)
                qualifies = qualifies and outcome.qualifies
                probability *= outcome.probability
                sizes.extend(outcome.sizes)
                decisions.extend(outcome.decisions)
            return _ConditionOutcome(
                qualifies, probability, tuple(sizes), tuple(decisions)
            )
        if isinstance(condition, OrCondition):
            miss_probability = 1.0
            sizes = []
            for part in condition.parts:
                outcome = self._evaluate_condition(part, ctx)
                miss_probability *= 1.0 - outcome.probability
                sizes.extend(outcome.sizes)
            probability = 1.0 - miss_probability
            return _ConditionOutcome(probability > 0.0, probability,
                                     tuple(sizes), ())
        if isinstance(condition, NotCondition):
            outcome = self._evaluate_condition(condition.part, ctx)
            probability = 1.0 - outcome.probability
            return _ConditionOutcome(probability > 0.0, probability,
                                     outcome.sizes, ())
        raise QueryError(f"unknown condition node {type(condition).__name__}")

    # -- accuracy ----------------------------------------------------------------

    def _draw(
        self, dist: object, m: int, rng: "np.random.Generator | None" = None
    ) -> np.ndarray:
        """``m`` values of ``dist`` from ``rng``, else the query generator.

        The shared-subplan engine passes a guard object as ``rng`` so
        that *any* attempt to draw — which would make the prefix
        RNG-dependent — raises before mutating state.
        """
        return dist.sample(  # type: ignore[attr-defined]
            rng if rng is not None else self._rng, m
        )

    def _field_accuracy(
        self,
        field: DfSized,
        rng: "np.random.Generator | None" = None,
    ) -> AccuracyInfo | None:
        method = self.config.accuracy_method
        if method == "none" or field.sample_size is None:
            return None
        dist = field.distribution
        if isinstance(dist, Deterministic):
            return None
        n = field.sample_size
        if n < 2:
            return None
        if method == "analytic":
            return distribution_accuracy(dist, n, self.config.confidence)
        # Bootstrap: the value sequence is either the Monte-Carlo output
        # (empirical result) or freshly sampled from the distribution.
        # The budget is max(mc_samples, r * n, 2n) rounded up to a
        # multiple of n, so chunking never drops values and r >= 2 holds
        # for every de facto sample size.
        cfg = self.config
        budget = max(cfg.mc_samples, cfg.bootstrap_resamples * n, 2 * n)
        m = -(-budget // n) * n
        edges = (
            dist.edges if isinstance(dist, HistogramDistribution) else None
        )
        buffered = (
            dist.values
            if isinstance(dist, EmpiricalDistribution) and dist.size >= 2 * n
            else None
        )
        if (
            cfg.target_ci_width is not None
            or cfg.target_relative_width is not None
        ):
            return self._adaptive_accuracy(dist, n, m, edges, buffered, rng)
        if buffered is not None:
            values = buffered
            if values.size < m:
                extra = self._draw(dist, m - values.size, rng)
                values = np.concatenate([values, extra])
        else:
            values = self._draw(dist, m, rng)
        return bootstrap_accuracy_info(
            values, n, cfg.confidence, edges
        )

    def _adaptive_accuracy(
        self,
        dist: object,
        n: int,
        m: int,
        edges: "Sequence[float] | None",
        buffered: np.ndarray | None,
        rng: "np.random.Generator | None" = None,
    ) -> AccuracyInfo:
        """Early-stopping bootstrap: escalate draws until the width target.

        Each escalation round consumes the Monte-Carlo output first (when
        the result is empirical) and only then draws fresh values, so a
        tight result stops without sampling at all.  Fresh draws go
        through :meth:`_draw`, so the round values are a pure function
        of (seed, round order).
        """
        cfg = self.config
        cursor = 0

        def draw_round(count: int) -> np.ndarray:
            nonlocal cursor
            if buffered is None:
                return self._draw(dist, count, rng)
            take = min(count, buffered.size - cursor)
            take = max(take, 0)
            block = buffered[cursor : cursor + take]
            cursor += take
            if count > take:
                block = np.concatenate(
                    [block, self._draw(dist, count - take, rng)]
                )
            return block

        return adaptive_bootstrap_accuracy_info(
            draw_round,
            n,
            cfg.confidence,
            target_ci_width=cfg.target_ci_width,
            target_relative_width=cfg.target_relative_width,
            max_resamples=m // n,
            initial_resamples=cfg.bootstrap_initial_resamples,
            growth=cfg.bootstrap_growth,
            edges=edges,
        )

    # -- execution ----------------------------------------------------------------

    def residual_outcome(
        self, tup: UncertainTuple
    ) -> ResidualOutcome | None:
        """Run only the per-query residual stage (the WHERE conjuncts).

        Returns ``None`` when the tuple is filtered out, otherwise the
        accumulated membership probability / sample sizes / decisions.
        This is the first half of :meth:`execute_one`; the shared-subplan
        engine calls it per query and only computes the (shareable)
        prefix when at least one query matched.
        """
        ctx = EvalContext(tup, self._rng, self.config.mc_samples)
        probability = tup.probability
        sizes: list[int | None] = []
        decisions: list[ThreeValued] = []
        for conjunct in self.query.conjuncts:
            outcome = self._evaluate_condition(conjunct, ctx)
            if not outcome.qualifies:
                return None
            probability *= outcome.probability
            sizes.extend(outcome.sizes)
            decisions.extend(outcome.decisions)
        if probability <= 0.0:
            return None
        return ResidualOutcome(
            probability, tuple(sizes), tuple(decisions), ctx
        )

    def evaluate_prefix(
        self,
        tup: UncertainTuple,
        rng: "np.random.Generator | None" = None,
    ) -> tuple[dict[str, DfSized], dict[str, AccuracyInfo]]:
        """Run only the accuracy-bearing prefix: projection + accuracy.

        With ``rng=None`` this consumes the executor's own generator,
        exactly as :meth:`execute_one` would.  The shared-subplan engine
        passes a guard generator instead: if the prefix turns out to
        need randomness (Monte-Carlo projection expressions, bootstrap
        draws), the guard raises before any state mutates, and the
        engine falls back to each member's private prefix.
        """
        attributes = self._project(tup, rng)
        return attributes, self._accuracy(attributes, rng)

    def _project(
        self,
        tup: UncertainTuple,
        rng: "np.random.Generator | None" = None,
    ) -> dict[str, DfSized]:
        """The SELECT expressions (or every attribute for ``SELECT *``)."""
        ctx = EvalContext(
            tup,
            self._rng if rng is None else rng,
            self.config.mc_samples,
        )
        if self.query.star:
            return {name: tup.dfsized(name) for name in tup.attributes}
        return {
            alias: expr.evaluate(ctx)
            for expr, alias in self.query.select_items
        }

    def _accuracy(
        self,
        attributes: dict[str, DfSized],
        rng: "np.random.Generator | None" = None,
    ) -> dict[str, AccuracyInfo]:
        """Theorem-1 accuracy of every distribution-valued field."""
        accuracy: dict[str, AccuracyInfo] = {}
        if self.config.accuracy_method != "none":
            for name, field in attributes.items():
                info = self._field_accuracy(field, rng)
                if info is not None:
                    accuracy[name] = info
        return accuracy

    def finalize_result(
        self,
        tup: UncertainTuple,
        outcome: ResidualOutcome,
        attributes: dict[str, DfSized],
        accuracy: dict[str, AccuracyInfo],
    ) -> ResultTuple:
        """Assemble a :class:`ResultTuple` from residual + prefix output."""
        return self._result(
            tup, outcome, attributes, accuracy, self._sort_key(tup, outcome)
        )

    def _sort_key(
        self, tup: UncertainTuple, outcome: ResidualOutcome
    ) -> float | None:
        """Expected value of the ORDER BY expression (may draw values)."""
        if self.query.order_by is None:
            return None
        ctx = outcome.ctx
        if ctx is None:  # decided in arrays, which drew nothing
            ctx = EvalContext(tup, self._rng, self.config.mc_samples)
        return self.query.order_by.evaluate(ctx).distribution.mean()

    def _result(
        self,
        tup: UncertainTuple,
        outcome: ResidualOutcome,
        attributes: dict[str, DfSized],
        accuracy: dict[str, AccuracyInfo],
        sort_key: float | None,
    ) -> ResultTuple:
        """The result tuple, with its membership-probability interval."""
        finite_sizes = [s for s in outcome.sizes if s is not None]
        probability_interval = None
        if finite_sizes and self.config.accuracy_method != "none":
            probability_interval = tuple_probability_interval(
                outcome.probability,
                min(finite_sizes),
                self.config.confidence,
            )
        return ResultTuple(
            attributes=attributes,
            probability=outcome.probability,
            probability_interval=probability_interval,
            accuracy=accuracy,
            decisions=outcome.decisions,
            source=tup,
            sort_key=sort_key,
        )

    def execute_one(self, tup: UncertainTuple) -> ResultTuple | None:
        """Run the query against a single tuple; None when filtered out."""
        if self.query.is_aggregate:
            raise QueryError(
                "aggregate queries need the whole stream; use execute()"
            )
        outcome = self.residual_outcome(tup)
        if outcome is None:
            return None
        attributes, accuracy = self.evaluate_prefix(tup)
        return self.finalize_result(tup, outcome, attributes, accuracy)

    @staticmethod
    def _group_key(tup: UncertainTuple, attribute: str) -> object:
        """The grouping value of a tuple: must be deterministic."""
        value = tup.value(attribute)
        if isinstance(value, DfSized):
            value = value.distribution
        if isinstance(value, Deterministic):
            return value.value
        if isinstance(value, (int, float, str)) and not isinstance(
            value, bool
        ):
            return value
        raise QueryError(
            f"GROUP BY {attribute!r} needs a deterministic key; "
            f"got {type(value).__name__}"
        )

    def _execute_aggregate(
        self, tuples: Iterable[UncertainTuple]
    ) -> list[ResultTuple]:
        """SELECT AVG/SUM/COUNT(...) [GROUP BY key] over the input.

        Possible-world moment semantics with independent tuple
        memberships B_i ~ Bernoulli(p_i) and field values X_i:

        * COUNT: E = sum(p_i),  Var = sum(p_i (1 - p_i))   (exact)
        * SUM:   E = sum(p_i mu_i),
                 Var = sum(p_i (sigma_i^2 + mu_i^2) - p_i^2 mu_i^2) (exact)
        * AVG:   SUM / E[COUNT] with variance scaled by E[COUNT]^2 —
                 exact when every p_i = 1, a documented first-order
                 approximation otherwise.

        Each output field is a Gaussian (CLT across the window) carrying
        the minimum contributing de facto sample size (Lemma 3).  With
        GROUP BY, one row per group is emitted in sorted key order (the
        key appears in the output under its attribute name); groups with
        no qualifying tuples produce no row.
        """
        items = list(zip(self.query.select_items, self.query.aggregates))
        group_by = self.query.group_by

        class _Acc:
            __slots__ = (
                "exp_sum", "var_sum", "size_min", "exp_count",
                "var_count", "condition_sizes", "qualified",
            )

            def __init__(acc) -> None:
                acc.exp_sum = [0.0] * len(items)
                acc.var_sum = [0.0] * len(items)
                acc.size_min: list[int | None] = [None] * len(items)
                acc.exp_count = 0.0
                acc.var_count = 0.0
                acc.condition_sizes: list[int] = []
                acc.qualified = 0

        groups: dict[object, _Acc] = {}

        for tup in tuples:
            ctx = EvalContext(tup, self._rng, self.config.mc_samples)
            probability = tup.probability
            keep = True
            condition_sizes: list[int] = []
            for conjunct in self.query.conjuncts:
                outcome = self._evaluate_condition(conjunct, ctx)
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
                self._group_key(tup, group_by)
                if group_by is not None else None
            )
            acc = groups.get(key)
            if acc is None:
                acc = groups[key] = _Acc()
            acc.qualified += 1
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

        results: list[ResultTuple] = []
        for key in sorted(groups, key=str):
            acc = groups[key]
            attributes: dict[str, DfSized] = {}
            if group_by is not None:
                if isinstance(key, str):
                    # Text keys pass through unchanged.
                    attributes[group_by] = key  # type: ignore[assignment]
                else:
                    attributes[group_by] = DfSized(
                        Deterministic(float(key)), None  # type: ignore[arg-type]
                    )
            for i, ((_expr, alias), agg) in enumerate(items):
                if agg == "count":
                    dist = GaussianDistribution(
                        acc.exp_count, acc.var_count
                    )
                    size = (
                        min(acc.condition_sizes)
                        if acc.condition_sizes else None
                    )
                elif agg == "sum":
                    dist = GaussianDistribution(
                        acc.exp_sum[i], max(acc.var_sum[i], 0.0)
                    )
                    size = acc.size_min[i]
                else:  # avg
                    dist = GaussianDistribution(
                        acc.exp_sum[i] / acc.exp_count,
                        max(acc.var_sum[i], 0.0)
                        / (acc.exp_count * acc.exp_count),
                    )
                    size = acc.size_min[i]
                attributes[alias] = DfSized(dist, size)

            accuracy: dict[str, AccuracyInfo] = {}
            if self.config.accuracy_method != "none":
                for name, field in attributes.items():
                    if not isinstance(field, DfSized):
                        continue
                    info = self._field_accuracy(field)
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

    def execute_iter(
        self, tuples: Iterable[UncertainTuple]
    ) -> "Iterable[ResultTuple]":
        """Stream results tuple-at-a-time (no ORDER BY / LIMIT support).

        The generator form suits continuous processing where buffering
        the whole result is undesirable; blocking clauses are rejected
        because they need the full result set.
        """
        if self.query.order_by is not None or self.query.limit is not None:
            raise QueryError(
                "execute_iter cannot apply ORDER BY / LIMIT; "
                "use execute() for blocking clauses"
            )
        if self.query.is_aggregate:
            raise QueryError(
                "aggregate queries need the whole stream; use execute()"
            )
        for tup in tuples:
            result = self.execute_one(tup)
            if result is not None:
                yield result

    def _scalar_matches(
        self, tuples: Iterable[UncertainTuple]
    ) -> Iterator[tuple[UncertainTuple, ResidualOutcome]]:
        for tup in tuples:
            outcome = self.residual_outcome(tup)
            if outcome is not None:
                yield tup, outcome

    def _matches(
        self, tuples: Iterable[UncertainTuple]
    ) -> Iterator[tuple[UncertainTuple, ResidualOutcome]]:
        """The tuples WHERE keeps, with their outcomes, in arrival order.

        A kernel-shaped WHERE clause is decided in arrays
        (:mod:`repro.query.residual`), ``_CHUNK_ROWS`` tuples at a
        time.  Rows the kernels leave, and chunks that are not
        kernel-typed, run the scalar residual when the iteration reaches
        them, so per-row work and errors keep the scalar loop's order.
        """
        kernel = kernel_conjuncts(self.query)
        if not kernel:  # no WHERE clause, or not a kernel shape
            yield from self._scalar_matches(tuples)
            return
        keep_unsure = self.config.keep_unsure
        rest = iter(tuples)
        while chunk := list(islice(rest, _CHUNK_ROWS)):
            decided = decide_rows(kernel, chunk, keep_unsure)
            if decided is None:
                yield from self._scalar_matches(chunk)
                continue
            hits, fallback = decided
            for b, outcome in merge_fallback(
                hits, fallback, lambda b: self.residual_outcome(chunk[b])
            ):
                yield chunk[b], outcome

    def execute(
        self, tuples: Iterable[UncertainTuple]
    ) -> list[ResultTuple]:
        """Run the query over a stream of tuples, collecting results.

        ORDER BY sorts by the expected value of the order expression;
        LIMIT truncates afterwards (or truncates arrival order when no
        ORDER BY is present).  Ties keep arrival order, ascending or
        descending.  Accuracy and probability intervals are computed
        after the cut, for the returned rows only — except bootstrap
        accuracy, which draws from the generator and so runs per tuple
        in arrival order.  A kernel-shaped WHERE clause is decided in
        arrays (see :meth:`_matches`) with the same results.
        """
        if self.query.is_aggregate:
            return self._execute_aggregate(tuples)
        # Everything that may draw from the generator or raise on a
        # tuple's values runs before the cut, in arrival order.
        deferred = self.config.accuracy_method != "bootstrap"
        rows = []
        for tup, outcome in self._matches(tuples):
            attributes = self._project(tup)
            accuracy = None if deferred else self._accuracy(attributes)
            rows.append(
                (
                    tup,
                    outcome,
                    attributes,
                    accuracy,
                    self._sort_key(tup, outcome),
                )
            )
        if self.query.order_by is not None:
            rows.sort(
                key=lambda row: (row[-1] is None, row[-1]),
                reverse=self.query.descending,
            )
        if self.query.limit is not None:
            rows = rows[: self.query.limit]
        return [
            self._result(
                tup,
                outcome,
                attributes,
                self._accuracy(attributes) if accuracy is None else accuracy,
                sort_key,
            )
            for tup, outcome, attributes, accuracy, sort_key in rows
        ]


def run_query(
    text: str,
    tuples: Sequence[UncertainTuple],
    schema: Schema | None = None,
    config: ExecutorConfig | None = None,
) -> list[ResultTuple]:
    """One-shot convenience: parse, compile, and execute a query."""
    executor = QueryExecutor(text, schema=schema, config=config)
    return executor.execute(tuples)
