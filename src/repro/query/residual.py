"""WHERE clauses decided in arrays, for one-shot and standing queries.

A plan's *residual* is its WHERE conjunction: per tuple it yields the
membership probability after the conjunct factors, the contributing de
facto sample sizes and the significance-test decisions (a
:class:`ResidualOutcome`), or filters the tuple out.
:meth:`repro.query.executor.QueryExecutor.residual_outcome` is the
scalar reference.

When the residual has a kernel shape (:func:`kernel_conjuncts`) —
no conjunct at all, ``column op literal`` inequalities, or one
``mTest`` on a column — the rows are decided by the array twins of the
scalar code (:func:`repro.distributions.gaussian.tail_probabilities`,
:func:`repro.distributions.histogram.histogram_tail_probabilities`,
:func:`repro.core.coupled.m_test_verdicts`), which equal it bit for bit
per row, so each emitted probability is the float the scalar path
would emit.  A column is kernel-typed (:func:`column_view`) when it
holds Python floats or ints, ``DfSized`` Gaussians, or ``DfSized``
histograms of one bucket count.  Rows outside the kernels' domain —
non-finite values, and for ``mTest`` exact sample sizes, ``n < 2`` and
zero variance — are left to the scalar residual, which decides or
raises exactly as before.  The kernels never draw random values, so
deciding a row in arrays leaves every generator untouched.

Both :meth:`QueryExecutor.execute` (one-shot reads over a stream
buffer) and :class:`repro.query.multiquery.MultiQueryEngine` (standing
queries on ``insert_many``) take their matches the same way: one
:class:`ChunkViews` per run of rows builds each column view once,
:func:`decide_rows` decides what the kernels can, and
:func:`row_matches` yields the matches in row order, running the
scalar residual on the other rows as the iteration reaches them.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import repeat

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
from repro.distributions.histogram import (
    HistogramDistribution,
    histogram_means,
    histogram_tail_probabilities,
    histogram_variances,
    stack_histograms,
)
from repro.query.expressions import Column, EvalContext, Literal, UnaryOp
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
    "ColumnView",
    "MTestConjunct",
    "ResidualOutcome",
    "VecConjunct",
    "column_view",
    "kernel_conjuncts",
    "vectorizable_conjuncts",
]


@dataclasses.dataclass(slots=True)
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


def _constant(expr) -> float | None:
    """The float a literal or a negated literal compares as, or None.

    The parser reads ``-1`` as ``UnaryOp('neg', Literal(1.0))``.  A
    negated non-finite literal raises in the scalar path, so it is not
    a constant here.
    """
    if isinstance(expr, Literal):
        return float(expr.value)
    if isinstance(expr, UnaryOp) and expr.op == "neg":
        value = _constant(expr.operand)
        if value is not None and np.isfinite(value):
            return -value
    return None


def vectorizable_conjuncts(compiled) -> "tuple[VecConjunct, ...] | None":
    """The residual as column-vs-constant inequalities, or None.

    A residual is decided in arrays when every conjunct is a plain
    comparison between one column and one literal (possibly negated)
    under an inequality operator — the shape of the paper's
    probability-threshold workloads.  No WHERE clause is the empty
    tuple: every row with a positive membership probability matches.
    Significance predicates, OR/NOT trees, equality comparisons and
    expression arithmetic return None.  Neither ORDER BY nor
    aggregation matters: both read the matched rows, and aggregates
    take their WHERE matches from the same evaluator.
    """
    specs: list[VecConjunct] = []
    for conj in compiled.conjuncts:
        if not isinstance(conj, CompareCondition):
            return None
        comp = conj.comparison
        if comp.op not in _VEC_OPS:
            return None
        left, right = comp.left, comp.right
        if isinstance(left, Column) and (
            constant := _constant(right)
        ) is not None:
            specs.append(
                VecConjunct(left.name, comp.op, constant, conj.threshold)
            )
        elif isinstance(right, Column) and (
            constant := _constant(left)
        ) is not None:
            specs.append(
                VecConjunct(
                    right.name, _FLIP[comp.op], constant, conj.threshold
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
    if specs is not None or len(compiled.conjuncts) != 1:
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


class ColumnView:
    """One batch column as the arrays the residual kernels read.

    Deterministic (Float/Int) columns are zero-variance with exact
    sample sizes.  ``covered`` marks the rows the tail kernel decides:
    a non-finite value makes the scalar path raise, so it runs there.
    ``mu`` and ``sigma2`` equal each row's ``distribution.mean()`` and
    ``variance()``.  A histogram view also keeps the stacked bucket
    matrices ``(edges, probabilities)`` its tail kernel reads.
    """

    __slots__ = ("mu", "sigma2", "sizes", "n", "covered", "histograms")

    def __init__(self, column) -> None:
        self.histograms = None
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

    @classmethod
    def of_histograms(cls, values: list) -> "ColumnView | None":
        """The view of ``DfSized`` histograms of one bucket count, or None.

        Sample sizes must be ``int`` or ``None`` (the size column is
        ``int64``, as for Gaussians).
        """
        if {type(value) for value in values} != {DfSized}:
            return None
        dists = [value.distribution for value in values]
        sizes = [value.sample_size for value in values]
        if (
            {type(dist) for dist in dists} != {HistogramDistribution}
            or not {type(size) for size in sizes} <= {int, type(None)}
            or len({len(dist.probabilities) for dist in dists}) != 1
        ):
            return None
        try:
            n = np.array(
                [EXACT_SIZE if size is None else size for size in sizes],
                dtype=np.int64,
            )
        except OverflowError:
            return None
        edges, probabilities = stack_histograms(dists)
        view = cls.__new__(cls)
        view.histograms = (edges, probabilities)
        view.mu = histogram_means(edges, probabilities)
        view.sigma2 = histogram_variances(edges, probabilities, view.mu)
        view.sizes = sizes
        view.n = n
        view.covered = np.isfinite(view.mu) & np.isfinite(view.sigma2)
        return view

    def tail(self, op: str, c: float) -> np.ndarray:
        """``P[X op c]`` per row, bit for bit the scalar tail probability."""
        if self.histograms is None:
            return tail_probabilities(self.mu, self.sigma2, op, c)
        return histogram_tail_probabilities(*self.histograms, op, c)


def column_view(values: list) -> "ColumnView | None":
    """The kernel view of one column's values, or None if not kernel-typed.

    A missing attribute reads as None: an object column, so the scalar
    path raises its SchemaError.
    """
    column = _infer_column(values)
    if isinstance(column, (FloatColumn, IntColumn, GaussianDfColumn)):
        return ColumnView(column)
    return ColumnView.of_histograms(values)


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
            q = column.tail(spec.op, spec.constant)
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
    rows = np.flatnonzero(keep).tolist()
    values = probability[rows].tolist()
    # Per matched row, the tuple of its sizes (one per tail conjunct)
    # and of its decisions (one per mTest).
    row_sizes = (
        zip(*[[sizes[b] for b in rows] for sizes in size_columns])
        if size_columns else repeat(())
    )
    row_decisions = (
        zip(*[[VERDICTS[codes[b]] for b in rows] for codes in code_columns])
        if code_columns else repeat(())
    )
    hits = [
        (b, ResidualOutcome(value, sizes, decisions, None))
        for b, value, sizes, decisions in zip(
            rows, values, row_sizes, row_decisions
        )
    ]
    return hits, covered


def _kernel_value(value: object) -> bool:
    """Whether a value can sit in a column the kernels read."""
    kind = type(value)
    return kind is float or kind is int or (
        kind is DfSized
        and type(value.distribution)
        in (GaussianDistribution, HistogramDistribution)
    )


class ChunkViews:
    """The kernel views of one run of tuples.

    :meth:`view` is a column's :class:`ColumnView` over every row, built
    once on first use, or None where the column is not kernel-typed.  A
    row that lacks the attribute reads as None, so its column is not
    kernel-typed.  The first row is checked before any list is built, so
    a column of, say, text values costs one type test.
    ``probabilities`` holds the membership probabilities as float64, or
    is None when one is not a Python float: the scalar path keeps their
    own types in the emitted probability.  Building a view never raises.
    """

    __slots__ = ("tuples", "probabilities", "_views")

    def __init__(self, tuples: "Sequence[UncertainTuple]") -> None:
        self.tuples = tuples
        column = _scalar_column([tup.probability for tup in tuples])
        self.probabilities = column if isinstance(column, np.ndarray) else None
        self._views: dict[str, ColumnView | None] = {}

    def view(self, name: str) -> "ColumnView | None":
        views = self._views
        if name not in views:
            tuples = self.tuples
            views[name] = (
                column_view([tup.attributes.get(name) for tup in tuples])
                if tuples and _kernel_value(tuples[0].attributes.get(name))
                else None
            )
        return views[name]


def decide_rows(
    kernel: "Sequence[VecConjunct | MTestConjunct] | None",
    views: ChunkViews,
    keep_unsure: bool,
) -> "tuple[list[tuple[int, ResidualOutcome]], Sequence[int]]":
    """A residual's kernel matches over a chunk, and the rows it leaves.

    Returns ``(hits, fallback)``, both in row order; the ``fallback``
    rows are the scalar residual's to decide.  Without a kernel shape
    (``kernel`` is None), or over rows that are not kernel-typed, the
    kernels decide nothing and every row falls back.
    """
    undecided = [], range(len(views.tuples))
    probabilities = views.probabilities
    if kernel is None or probabilities is None:
        return undecided
    columns = [views.view(spec.column) for spec in kernel]
    if any(
        column is None
        or (isinstance(spec, MTestConjunct) and column.n is None)
        for spec, column in zip(kernel, columns)
    ):
        return undecided
    hits, covered = decide_single(kernel, columns, probabilities, keep_unsure)
    return hits, np.flatnonzero(~covered).tolist()


def row_matches(
    decided: "tuple[Iterable[tuple[int, ResidualOutcome]], Iterable[int]]",
    tuples: "Sequence[UncertainTuple]",
    residual: "Callable[[UncertainTuple], ResidualOutcome | None]",
) -> "Iterator[tuple[int, ResidualOutcome]]":
    """Row-ordered ``(row, outcome)`` matches of a :func:`decide_rows` pair.

    Yields the kernel hits and, between them, the fallback rows that
    ``residual`` keeps.  ``residual`` runs on a fallback row only when
    the iteration reaches that row, so a consumer that does per-row work
    between matches sees the scalar loop's order of work, of generator
    draws and of errors.
    """
    hits, fallback = decided
    pending = iter(fallback)
    row = next(pending, None)
    for b, outcome in hits:
        while row is not None and row < b:
            scalar = residual(tuples[row])
            if scalar is not None:
                yield row, scalar
            row = next(pending, None)
        yield b, outcome
    while row is not None:
        scalar = residual(tuples[row])
        if scalar is not None:
            yield row, scalar
        row = next(pending, None)
