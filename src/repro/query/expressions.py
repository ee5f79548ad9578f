"""Expression AST and evaluation over uncertain tuples.

Expressions evaluate to :class:`~repro.core.dfsample.DfSized` values:
a distribution plus the de facto sample size behind it.  Evaluation
implements Lemma 3 structurally — every node's sample size is the minimum
over its children's — so Theorem 1 can attach accuracy to any result.

Arithmetic on two Gaussians under ``+``/``-`` (and Gaussian-constant
affine forms) stays closed-form; anything else falls back to Monte Carlo
(:mod:`repro.distributions.arithmetic`), yielding an empirical result
distribution whose value sequence doubles as bootstrap input.
"""

from __future__ import annotations

import abc
import dataclasses

import numpy as np

from repro.core.dfsample import DfSized
from repro.distributions.arithmetic import (
    _DIV_EPSILON as _DET_DIV_EPSILON,
    apply_unary,
    combine,
)
from repro.distributions.base import Deterministic, Distribution
from repro.distributions.convolution import convolve_histograms
from repro.distributions.gaussian import GaussianDistribution
from repro.distributions.histogram import HistogramDistribution
from repro.errors import DistributionError, QueryError
from repro.streams.tuples import UncertainTuple

__all__ = [
    "EvalContext",
    "Expression",
    "Column",
    "Literal",
    "BinaryOp",
    "UnaryOp",
    "Comparison",
    "predicate_probability",
]

_COMPARISON_OPS = ("<", "<=", ">", ">=", "=", "<>")


@dataclasses.dataclass
class EvalContext:
    """Evaluation environment: the current tuple, RNG, and MC budget."""

    tup: UncertainTuple
    rng: np.random.Generator
    mc_samples: int = 1000

    def __post_init__(self) -> None:
        if self.mc_samples < 2:
            raise QueryError(
                f"mc_samples must be >= 2, got {self.mc_samples}"
            )


class Expression(abc.ABC):
    """A node of the expression AST."""

    @abc.abstractmethod
    def evaluate(self, ctx: EvalContext) -> DfSized:
        """Value of this expression for the context tuple."""

    @abc.abstractmethod
    def columns(self) -> set[str]:
        """Names of all columns referenced beneath this node."""


@dataclasses.dataclass(frozen=True)
class Column(Expression):
    """A reference to a tuple attribute by name."""

    name: str

    def evaluate(self, ctx: EvalContext) -> DfSized:
        return ctx.tup.dfsized(self.name)

    def columns(self) -> set[str]:
        return {self.name}

    def __str__(self) -> str:
        return self.name


@dataclasses.dataclass(frozen=True)
class Literal(Expression):
    """A numeric constant — an exact value with no sampling error."""

    value: float

    def evaluate(self, ctx: EvalContext) -> DfSized:
        return DfSized(Deterministic(self.value), None)

    def columns(self) -> set[str]:
        return set()

    def __str__(self) -> str:
        return repr(self.value)


def _deterministic_divide(a: float, b: float) -> float | None:
    """Exact division with the same near-zero-denominator nudge as
    :func:`repro.distributions.arithmetic.safe_divide`, so the
    deterministic fast path cannot produce magnitudes the Monte-Carlo
    path never would (a denormal divisor once drove a downstream
    SQUARE to infinity)."""
    if b == 0.0:
        return None
    if abs(b) < _DET_DIV_EPSILON:
        b = np.copysign(_DET_DIV_EPSILON, b)
    return a / b


def _closed_form_binary(
    op: str, left: Distribution, right: Distribution
) -> Distribution | None:
    """Exact result for the Gaussian/histogram/constant cases, else None."""
    lg = isinstance(left, GaussianDistribution)
    rg = isinstance(right, GaussianDistribution)
    ld = isinstance(left, Deterministic)
    rd = isinstance(right, Deterministic)
    if (
        op in ("+", "-")
        and isinstance(left, HistogramDistribution)
        and isinstance(right, HistogramDistribution)
    ):
        # Exact piecewise-uniform convolution (no Monte Carlo noise).
        return convolve_histograms(left, right, subtract=(op == "-"))
    if op == "+":
        if lg and rg:
            return left.plus(right)
        if lg and rd:
            return left.shifted(right.value)
        if ld and rg:
            return right.shifted(left.value)
    elif op == "-":
        if lg and rg:
            return left.minus(right)
        if lg and rd:
            return left.shifted(-right.value)
        if ld and rg:
            return right.scaled(-1.0).shifted(left.value)
    elif op == "*":
        if lg and rd:
            return left.scaled(right.value)
        if ld and rg:
            return right.scaled(left.value)
    elif op == "/":
        if lg and rd and right.value != 0.0:
            return left.scaled(1.0 / right.value)
    if ld and rd:
        ops = {
            "+": lambda a, b: a + b,
            "-": lambda a, b: a - b,
            "*": lambda a, b: a * b,
            "/": _deterministic_divide,
        }
        result = ops[op](left.value, right.value)
        if result is not None and np.isfinite(result):
            return Deterministic(result)
    return None


@dataclasses.dataclass(frozen=True)
class BinaryOp(Expression):
    """Arithmetic node over the paper's binary operators: + - * /."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in ("+", "-", "*", "/"):
            raise QueryError(f"unknown binary operator {self.op!r}")

    def evaluate(self, ctx: EvalContext) -> DfSized:
        lhs = self.left.evaluate(ctx)
        rhs = self.right.evaluate(ctx)
        size = DfSized.combine_sizes((lhs, rhs))
        try:
            exact = _closed_form_binary(
                self.op, lhs.distribution, rhs.distribution
            )
        except DistributionError:
            # The exact form can overflow (e.g. a Gaussian scaled by
            # 1/c for a denormal c makes sigma^2/c^2 infinite).  Monte
            # Carlo nudges near-zero divisors and stays finite.
            exact = None
        if exact is not None:
            return DfSized(exact, size)
        result = combine(
            self.op, lhs.distribution, rhs.distribution, ctx.rng,
            ctx.mc_samples,
        )
        return DfSized(result, size)

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclasses.dataclass(frozen=True)
class UnaryOp(Expression):
    """Unary node: sqrtabs (SQRT(ABS(.))), square, neg, abs."""

    op: str
    operand: Expression

    def __post_init__(self) -> None:
        if self.op not in ("sqrtabs", "square", "neg", "abs"):
            raise QueryError(f"unknown unary operator {self.op!r}")

    def evaluate(self, ctx: EvalContext) -> DfSized:
        value = self.operand.evaluate(ctx)
        dist = value.distribution
        if isinstance(dist, Deterministic):
            fns = {
                "sqrtabs": lambda x: float(np.sqrt(np.abs(x))),
                "square": lambda x: x * x,
                "neg": lambda x: -x,
                "abs": abs,
            }
            out = fns[self.op](dist.value)
            if not np.isfinite(out):
                raise QueryError(
                    f"{self.op}({dist.value!r}) overflows to {out!r}"
                )
            return DfSized(Deterministic(out), value.sample_size)
        if self.op == "neg" and isinstance(dist, GaussianDistribution):
            return DfSized(dist.scaled(-1.0), value.sample_size)
        result = apply_unary(self.op, dist, ctx.rng, ctx.mc_samples)
        return DfSized(result, value.sample_size)

    def columns(self) -> set[str]:
        return self.operand.columns()

    def __str__(self) -> str:
        return f"{self.op}({self.operand})"


@dataclasses.dataclass(frozen=True)
class Comparison:
    """A comparison ``left op right`` whose truth is a probability.

    Not an :class:`Expression` — it evaluates to a probability (and the
    d.f. sample size of the underlying boolean r.v.), the quantity both
    probability-threshold predicates and pTest consume.
    """

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _COMPARISON_OPS:
            raise QueryError(f"unknown comparison operator {self.op!r}")

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def probability(self, ctx: EvalContext) -> tuple[float, int | None]:
        """(P[left op right], d.f. sample size of the indicator)."""
        return predicate_probability(self, ctx)

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


def _tail_probability(dist: Distribution, op: str, c: float) -> float:
    """P[X op c] from the cdf of a single distribution."""
    if op == ">":
        return dist.prob_greater(c)
    if op == ">=":
        # 1 - P[X < c] keeps the point mass at c (exact values, discrete
        # and empirical distributions); for continuous ones it is P[X > c].
        return 1.0 - dist.prob_less(c)
    if op == "<":
        return dist.prob_less(c)
    if op == "<=":
        return dist.cdf(c)
    raise QueryError(f"no tail probability for operator {op!r}")


def predicate_probability(
    comparison: Comparison, ctx: EvalContext
) -> tuple[float, int | None]:
    """P[comparison holds] and the d.f. sample size of the boolean r.v.

    Fast path: one side is an exact constant and the operator is an
    inequality — the probability is a cdf evaluation.  General path:
    Monte Carlo over both sides.
    """
    lhs = comparison.left.evaluate(ctx)
    rhs = comparison.right.evaluate(ctx)
    size = DfSized.combine_sizes((lhs, rhs))
    op = comparison.op

    if op in (">", ">=", "<", "<=")and isinstance(
        rhs.distribution, Deterministic
    ):
        return _tail_probability(lhs.distribution, op, rhs.distribution.value), size
    if op in (">", ">=", "<", "<=") and isinstance(
        lhs.distribution, Deterministic
    ):
        flipped = {">": "<", ">=": "<=", "<": ">", "<=": ">="}[op]
        return (
            _tail_probability(rhs.distribution, flipped, lhs.distribution.value),
            size,
        )

    xs = lhs.distribution.sample(ctx.rng, ctx.mc_samples)
    ys = rhs.distribution.sample(ctx.rng, ctx.mc_samples)
    if op == ">":
        hits = xs > ys
    elif op == ">=":
        hits = xs >= ys
    elif op == "<":
        hits = xs < ys
    elif op == "<=":
        hits = xs <= ys
    elif op == "=":
        hits = xs == ys
    else:  # '<>'
        hits = xs != ys
    return float(np.mean(hits)), size
