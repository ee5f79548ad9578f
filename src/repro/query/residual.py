"""WHERE clauses decided in arrays, for one-shot and standing queries.

A plan's *residual* is its WHERE conjunction: per tuple it yields the
membership probability after the conjunct factors, the contributing de
facto sample sizes and the significance-test decisions (a
:class:`ResidualOutcome`), or filters the tuple out.
:meth:`repro.query.executor.QueryExecutor.residual_outcome` is the
scalar reference.

When the residual has a kernel shape (:func:`kernel_conjuncts`) —
``column op literal`` inequalities, or one ``mTest`` on a column — the
rows are decided by the array twins of the scalar code
(:func:`repro.distributions.gaussian.tail_probabilities`,
:func:`repro.core.coupled.m_test_verdicts`), which equal it bit for bit
per row, so each emitted probability is the float the scalar path
would emit.  Rows outside the kernels' domain — non-finite values, and
for ``mTest`` exact sample sizes, ``n < 2`` and zero variance — are
left to the scalar residual, which decides or raises exactly as
before.  The kernels never draw random values, so deciding a row in
arrays leaves every generator untouched.

Both :meth:`QueryExecutor.execute` (one-shot reads over a stream
buffer) and :class:`repro.query.multiquery.MultiQueryEngine` (standing
queries on ``insert_many``) decide their residuals here.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.core.coupled import (
    UNDECIDED,
    VERDICTS,
    ThreeValued,
    m_test_verdicts,
)
from repro.core.dfsample import DfSized
from repro.distributions.gaussian import (
    GaussianDistribution,
    tail_probabilities,
)
from repro.query.expressions import Column, EvalContext, Literal
from repro.query.parser import CompareCondition, SignificanceCondition

# Private intra-package import: the strict inference that keeps
# materialized values pickle-identical also decides kernel eligibility.
from repro.streams.columnar import (
    EXACT_SIZE,
    FloatColumn,
    GaussianDfColumn,
    IntColumn,
    _infer_column,
    _scalar_column,
)
from repro.streams.tuples import UncertainTuple

__all__ = [
    "MTestConjunct",
    "ResidualOutcome",
    "VecConjunct",
    "kernel_conjuncts",
    "vectorizable_conjuncts",
]


@dataclasses.dataclass
class ResidualOutcome:
    """Result of a plan's residual stage (WHERE conjuncts) on one tuple.

    Everything here is per-query: the membership probability after the
    conjunct factors, the contributing de facto sample sizes, and the
    significance-test decisions.  ``ctx`` is the evaluation context the
    conjuncts ran under, reused by
    :meth:`~repro.query.executor.QueryExecutor.finalize_result` for the
    ORDER BY sort key so expression evaluation order matches the
    monolithic ``execute_one`` exactly.  Outcomes decided in arrays
    carry ``ctx=None``; the sort key then builds its own context on the
    same tuple and generator (the kernels drew nothing, so the draws
    are the same).
    """

    probability: float
    sizes: tuple[int | None, ...]
    decisions: tuple[ThreeValued, ...]
    ctx: EvalContext | None


_FLIP = {">": "<", ">=": "<=", "<": ">", "<=": ">="}
_VEC_OPS = frozenset(_FLIP)

_TRUE = VERDICTS.index(ThreeValued.TRUE)
_UNSURE = VERDICTS.index(ThreeValued.UNSURE)


@dataclasses.dataclass(frozen=True)
class VecConjunct:
    """One vectorizable WHERE conjunct, normalized to column-vs-constant.

    ``op`` is the effective inequality applied to the *column's*
    distribution (flipped when the literal was on the left), matching
    ``predicate_probability``'s fast path.  ``threshold`` is the PROB
    tau, or ``None`` for bare possible-world semantics.
    """

    column: str
    op: str
    constant: float
    threshold: float | None


@dataclasses.dataclass(frozen=True)
class MTestConjunct:
    """A WHERE ``mTest(column, op, constant, alpha1[, alpha2])`` call."""

    column: str
    op: str
    constant: float
    alpha1: float
    alpha2: float | None


def vectorizable_conjuncts(compiled) -> "tuple[VecConjunct, ...] | None":
    """The residual as column-vs-literal inequalities, or None.

    A residual is decided in arrays when every conjunct is a plain
    comparison between one column and one literal under an inequality
    operator — the shape of the paper's probability-threshold
    workloads.  Significance predicates, OR/NOT trees, equality
    comparisons, expression arithmetic and aggregates return None.
    ORDER BY does not matter: the sort key is evaluated per matched row.
    """
    if compiled.is_aggregate:
        return None
    specs: list[VecConjunct] = []
    for conj in compiled.conjuncts:
        if not isinstance(conj, CompareCondition):
            return None
        comp = conj.comparison
        if comp.op not in _VEC_OPS:
            return None
        left, right = comp.left, comp.right
        if isinstance(left, Column) and isinstance(right, Literal):
            specs.append(
                VecConjunct(
                    left.name, comp.op, float(right.value), conj.threshold
                )
            )
        elif isinstance(left, Literal) and isinstance(right, Column):
            specs.append(
                VecConjunct(
                    right.name,
                    _FLIP[comp.op],
                    float(left.value),
                    conj.threshold,
                )
            )
        else:
            return None
    return tuple(specs)


def kernel_conjuncts(
    compiled,
) -> "tuple[VecConjunct, ...] | tuple[MTestConjunct] | None":
    """The residual in a shape the array kernels decide, or None.

    Either the :func:`vectorizable_conjuncts` inequalities, or a single
    ``mTest`` on a column with valid significance levels (invalid
    levels raise on every row, which the scalar path reports).  The
    rest runs the scalar residual.
    """
    specs = vectorizable_conjuncts(compiled)
    if (
        specs is not None
        or compiled.is_aggregate
        or len(compiled.conjuncts) != 1
    ):
        return specs
    cond = compiled.conjuncts[0]
    if (
        isinstance(cond, SignificanceCondition)
        and cond.kind == "mtest"
        and isinstance(cond.expr_x, Column)
        and cond.op in ("<", ">", "<>")
        and all(
            alpha is None or 0.0 < alpha < 1.0
            for alpha in (cond.alpha1, cond.alpha2)
        )
    ):
        return (
            MTestConjunct(
                cond.expr_x.name,
                cond.op,
                float(cond.constant),
                cond.alpha1,
                cond.alpha2,
            ),
        )
    return None


SUPPORTED_COLUMNS = (FloatColumn, IntColumn, GaussianDfColumn)


class ColumnView:
    """One batch column as the arrays the residual kernels read.

    Deterministic (Float/Int) columns are zero-variance with exact
    sample sizes.  ``covered`` marks the rows the tail kernel decides:
    a non-finite value makes the scalar path raise, so it runs there.
    """

    __slots__ = ("mu", "sigma2", "sizes", "n", "covered")

    def __init__(self, column) -> None:
        if isinstance(column, GaussianDfColumn):
            self.mu = column.mu
            self.sigma2 = column.sigma2
            self.n = column.sizes
            self.sizes = [
                None if size == EXACT_SIZE else size
                for size in column.sizes.tolist()
            ]
        else:
            self.mu = np.asarray(column.data, dtype=np.float64)
            self.sigma2 = np.zeros(len(self.mu), dtype=np.float64)
            self.n = None  # no sampled values: mTest raises on every row
            self.sizes = [None] * len(self.mu)
        self.covered = np.isfinite(self.mu) & np.isfinite(self.sigma2)


def decide_single(
    kernel: "Sequence[VecConjunct | MTestConjunct]",
    columns: "Sequence[ColumnView]",
    probabilities: np.ndarray,
    keep_unsure: bool,
) -> "tuple[list[tuple[int, ResidualOutcome]], np.ndarray]":
    """One residual's matches over every row, and the rows decided.

    ``columns[i]`` is the view of ``kernel[i].column``.  Matches come
    out in row order; rows outside ``covered`` are the scalar
    residual's to decide.
    """
    covered = np.ones(len(probabilities), dtype=bool)
    keep = np.ones(len(probabilities), dtype=bool)
    probability = probabilities
    size_columns: list[list] = []
    code_columns: list[list] = []
    for spec, column in zip(kernel, columns):
        covered &= column.covered
        if isinstance(spec, VecConjunct):
            q = tail_probabilities(
                column.mu, column.sigma2, spec.op, spec.constant
            )
            keep &= (
                q > 0.0 if spec.threshold is None
                else q >= spec.threshold
            )
            probability = probability * q
            size_columns.append(column.sizes)
        else:
            codes = m_test_verdicts(
                column.mu,
                np.sqrt(column.sigma2),
                column.n,
                spec.op,
                spec.constant,
                spec.alpha1,
                spec.alpha2,
            )
            covered &= codes != UNDECIDED
            keep &= (codes == _TRUE) | ((codes == _UNSURE) & keep_unsure)
            code_columns.append(codes.tolist())
    keep &= covered & (probability > 0.0)
    values = probability.tolist()
    hits = [
        (
            b,
            ResidualOutcome(
                values[b],
                tuple(sizes[b] for sizes in size_columns),
                tuple(VERDICTS[codes[b]] for codes in code_columns),
                None,
            ),
        )
        for b in np.flatnonzero(keep).tolist()
    ]
    return hits, covered


def merge_fallback(
    hits: "Iterable[tuple[int, ResidualOutcome]]",
    fallback: "Iterable[int]",
    residual: "Callable[[int], ResidualOutcome | None]",
) -> "Iterator[tuple[int, ResidualOutcome]]":
    """Row-ordered matches: the kernel ``hits`` plus the ``fallback`` rows.

    Both inputs are in row order and disjoint.  ``residual(row)`` runs
    the scalar residual of a fallback row only when the iteration
    reaches that row, so a consumer that does per-row work between
    matches sees the scalar loop's order of work and of errors.
    """
    pending = iter(fallback)
    row = next(pending, None)
    for b, outcome in hits:
        while row is not None and row < b:
            scalar = residual(row)
            if scalar is not None:
                yield row, scalar
            row = next(pending, None)
        yield b, outcome
    while row is not None:
        scalar = residual(row)
        if scalar is not None:
            yield row, scalar
        row = next(pending, None)


def _kernel_value(value: object) -> bool:
    """Whether a value can sit in a column the kernels read."""
    kind = type(value)
    return kind is float or kind is int or (
        kind is DfSized
        and type(value.distribution) is GaussianDistribution
    )


def decide_rows(
    kernel: "Sequence[VecConjunct | MTestConjunct]",
    tuples: "Sequence[UncertainTuple]",
    keep_unsure: bool,
) -> "tuple[list[tuple[int, ResidualOutcome]], list[int]] | None":
    """Kernel matches and scalar-fallback rows of a run of tuples.

    Columnarizes only the WHERE columns and the probabilities, and
    returns ``(hits, fallback)`` (both in row order), or ``None`` when
    the rows are not kernel-typed and the scalar residual must decide
    all of them.  The first row is checked before any array is built,
    so a stream of, say, histogram values costs one type test.
    """
    first = tuples[0]
    if type(first.probability) is not float or not all(
        _kernel_value(first.attributes.get(spec.column))
        for spec in kernel
    ):
        return None
    probabilities = _scalar_column([tup.probability for tup in tuples])
    if not isinstance(probabilities, np.ndarray):
        # Not every membership probability is a float: the scalar path
        # keeps their own types in the emitted probability.
        return None
    views: dict[str, ColumnView] = {}
    for spec in kernel:
        if spec.column in views:
            continue
        # A missing attribute reads as None: an object column, so the
        # scalar residual raises its SchemaError.
        column = _infer_column(
            [tup.attributes.get(spec.column) for tup in tuples]
        )
        if not isinstance(column, SUPPORTED_COLUMNS):
            return None
        views[spec.column] = ColumnView(column)
    columns = [views[spec.column] for spec in kernel]
    if any(
        isinstance(spec, MTestConjunct) and column.n is None
        for spec, column in zip(kernel, columns)
    ):
        return None
    hits, covered = decide_single(kernel, columns, probabilities, keep_unsure)
    return hits, np.flatnonzero(~covered).tolist()
