"""Basic significance predicates — mTest, mdTest, pTest (paper §IV-B).

Each predicate wraps a classical hypothesis test:

* ``mTest(X, op, c, alpha)`` — population-mean test, H0: E(X) = c versus
  H1: E(X) op c, via the one-sample t statistic (z for large samples,
  consistent with Lemma 2's cutoff).
* ``mdTest(X, Y, op, c, alpha)`` — mean-difference test, H0: E(X) − E(Y) = c,
  via the two-sample Welch t statistic.
* ``pTest(pred, tau, alpha)`` — population-proportion test,
  H0: Pr[pred] = tau versus H1: Pr[pred] op tau, via the one-proportion
  z statistic.

A predicate "returns TRUE" when the null hypothesis is rejected at
significance level alpha, which bounds the false-positive rate by alpha.
Predicates are immutable and support ``replaced(op=..., alpha=...)`` so the
COUPLED-TESTS algorithm (:mod:`repro.core.coupled`) can build the inverse
test exactly as in the paper's listing.
"""

from __future__ import annotations

import abc
import dataclasses
import functools
import math
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np
from scipy import special

from repro.core.analytic import SMALL_SAMPLE_MEAN_CUTOFF, _chi2_upper
from repro.core.dfsample import DfSized
from repro.distributions.base import Distribution
from repro.errors import AccuracyError, QueryError

__all__ = [
    "OPS",
    "INVERSE_OP",
    "FieldStats",
    "TestResult",
    "m_test",
    "m_test_rejects",
    "md_test",
    "p_test",
    "v_test",
    "SignificancePredicate",
    "MTest",
    "MdTest",
    "PTest",
    "VTest",
]

OPS = ("<", ">", "<>")
INVERSE_OP = {"<": ">", ">": "<"}


def _check_op(op: str, allow_two_sided: bool = True) -> str:
    if op not in OPS or (op == "<>" and not allow_two_sided):
        raise QueryError(f"unsupported test operator {op!r}")
    return op


def _check_alpha(alpha: float) -> float:
    if not 0.0 < alpha < 1.0:
        raise AccuracyError(f"significance level must be in (0,1), got {alpha}")
    return alpha


class TestResult(NamedTuple):
    """Outcome of one hypothesis test.

    ``reject`` is True when H0 is rejected (the predicate holds);
    ``statistic`` is the test statistic; ``p_value`` the attained
    significance.  Truthiness follows ``reject`` so predicates compose
    naturally in boolean contexts.
    """

    reject: bool
    statistic: float
    p_value: float

    def __bool__(self) -> bool:
        return self.reject


@dataclasses.dataclass(frozen=True, slots=True)
class FieldStats:
    """Summary statistics of a probabilistic field: (mean, std, n).

    This is all the significance tests need; the helpers below build one
    from a raw sample, a distribution with a known (de facto) sample size,
    or a :class:`DfSized` value.
    """

    mean: float
    std: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise AccuracyError(f"sample size must be >= 1, got {self.n}")
        if self.std < 0:
            raise AccuracyError(f"std must be >= 0, got {self.std}")

    @classmethod
    def from_sample(cls, values: Sequence[float] | np.ndarray) -> "FieldStats":
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size < 2:
            raise AccuracyError("need >= 2 observations for field statistics")
        return cls(float(arr.mean()), float(arr.std(ddof=1)), int(arr.size))

    @classmethod
    def from_distribution(cls, dist: Distribution, n: int) -> "FieldStats":
        return cls(dist.mean(), dist.std(), n)

    @classmethod
    def from_dfsized(cls, value: DfSized) -> "FieldStats":
        if value.sample_size is None:
            raise AccuracyError(
                "cannot run a significance test on an exact value: "
                "no sampling uncertainty to test against"
            )
        return cls.from_distribution(value.distribution, value.sample_size)


@functools.lru_cache(maxsize=4096)
def _critical_value(alpha: float, df: float | None) -> float:
    """Upper-alpha critical value of the t (given df) or normal reference."""
    if df is not None:
        return float(special.stdtrit(df, 1.0 - alpha))
    return float(special.ndtri(1.0 - alpha))


def _survival(statistic: float, df: float | None) -> float:
    """P[T > statistic] under the t (given df) or normal reference.

    Uses scipy.special directly — the stats.t/norm front-ends cost two
    orders of magnitude more per call, which matters at stream rates.
    """
    if math.isinf(statistic):
        return 0.0 if statistic > 0 else 1.0
    if df is not None:
        return 1.0 - float(special.stdtr(df, statistic))
    return float(special.ndtr(-statistic))


def _one_sided_decision(
    statistic: float, op: str, alpha: float, df: float | None
) -> TestResult:
    """Shared rejection logic for t/z statistics over '<', '>', '<>'."""
    if op == ">":
        p_value = _survival(statistic, df)
        reject = statistic > _critical_value(alpha, df)
    elif op == "<":
        p_value = _survival(-statistic, df)
        reject = statistic < -_critical_value(alpha, df)
    else:  # '<>'
        p_value = 2.0 * _survival(abs(statistic), df)
        reject = abs(statistic) > _critical_value(alpha / 2.0, df)
    return TestResult(bool(reject), float(statistic), min(p_value, 1.0))


def m_test(
    field: FieldStats, op: str, c: float, alpha: float = 0.05
) -> TestResult:
    """mTest: is E(X) op c statistically significant at level alpha?

    One-sample mean test.  Uses the Student-t reference distribution for
    n below the small-sample cutoff and the normal otherwise, mirroring
    Lemma 2's regime split.
    """
    _check_op(op)
    _check_alpha(alpha)
    scale = field.std / math.sqrt(field.n)
    if scale == 0.0:
        # Degenerate (or subnormal-underflow) spread: the statistic is
        # +/- infinity, or 0 at exact equality.
        diff = field.mean - c
        statistic = math.inf * np.sign(diff) if diff != 0 else 0.0
    else:
        statistic = (field.mean - c) / scale
    df = field.n - 1 if field.n < SMALL_SAMPLE_MEAN_CUTOFF else None
    if df is not None and df < 1:
        raise AccuracyError("mTest needs a sample of size >= 2")
    return _one_sided_decision(statistic, op, alpha, df)


def _critical_values(alpha: float, n: np.ndarray) -> np.ndarray:
    """Per-row ``_critical_value(alpha, df)`` of :func:`m_test`.

    One memoized lookup per distinct sample size, with the scalar's
    Student-t/z switch and its Python-int ``df``; rows with ``n < 2``
    (which the scalar test rejects) get NaN.
    """
    sizes, inverse = np.unique(n, return_inverse=True)
    table = np.array(
        [
            math.nan
            if size < 2
            else _critical_value(
                alpha, size - 1 if size < SMALL_SAMPLE_MEAN_CUTOFF else None
            )
            for size in sizes.tolist()
        ],
        dtype=np.float64,
    )
    return table[inverse]


def m_test_rejects(
    mean: np.ndarray,
    std: np.ndarray,
    n: np.ndarray,
    op: str,
    c: float,
    alpha: float = 0.05,
) -> np.ndarray:
    """Per-row ``m_test(FieldStats(mean, std, n), op, c, alpha).reject``.

    The array twin of :func:`m_test` over ``(mean, std, n)`` columns:
    the statistic uses the scalar's arithmetic and the critical values
    come from the same memoized table, so every row's verdict is the
    scalar's.  The twin holds on rows with ``n >= 2`` and a positive,
    finite ``std / sqrt(n)``; elsewhere the scalar test raises (``n <
    2``) or uses an infinite statistic, and the result is unspecified.
    """
    _check_op(op)
    _check_alpha(alpha)
    mean = np.asarray(mean, dtype=np.float64)
    n = np.asarray(n, dtype=np.int64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        scale = np.asarray(std, dtype=np.float64) / np.sqrt(n)
        statistic = (mean - c) / scale
    if op == "<>":
        return np.abs(statistic) > _critical_values(alpha / 2.0, n)
    critical = _critical_values(alpha, n)
    if op == ">":
        return statistic > critical
    return statistic < -critical


def md_test(
    field_x: FieldStats,
    field_y: FieldStats,
    op: str,
    c: float = 0.0,
    alpha: float = 0.05,
) -> TestResult:
    """mdTest: is E(X) − E(Y) op c statistically significant?

    Two-sample mean-difference test with the Welch statistic and
    Welch–Satterthwaite degrees of freedom (robust to unequal variances;
    the textbook the paper follows uses the same statistic with a pooled
    df in the equal-variance case).
    """
    _check_op(op)
    _check_alpha(alpha)
    var_term = (
        field_x.std**2 / field_x.n + field_y.std**2 / field_y.n
    )
    diff = field_x.mean - field_y.mean - c
    if var_term == 0.0:
        statistic = math.inf * np.sign(diff) if diff != 0 else 0.0
        df: float | None = None
    else:
        statistic = diff / math.sqrt(var_term)
        numerator = var_term**2
        denom = 0.0
        if field_x.n > 1:
            denom += (field_x.std**2 / field_x.n) ** 2 / (field_x.n - 1)
        if field_y.n > 1:
            denom += (field_y.std**2 / field_y.n) ** 2 / (field_y.n - 1)
        if denom == 0.0:
            raise AccuracyError("mdTest needs samples of size >= 2")
        # Always use the Welch t reference: unlike the one-sample case
        # there is no textbook cutoff, and the t converges to the normal
        # anyway as df grows.
        df = numerator / denom
    return _one_sided_decision(statistic, op, alpha, df)


def p_test(
    p_hat: float,
    n: int,
    op: str,
    tau: float,
    alpha: float = 0.05,
) -> TestResult:
    """pTest: is Pr[pred] op tau statistically significant?

    One-proportion z test on the estimated probability ``p_hat`` of the
    predicate being true, computed from a (de facto) sample of size n.
    H0: Pr[pred] = tau.  The paper defines H1 with '>' as the common case;
    '<' and '<>' are supported for coupling.
    """
    _check_op(op)
    _check_alpha(alpha)
    if not 0.0 <= p_hat <= 1.0:
        raise AccuracyError(f"estimated probability must be in [0,1]: {p_hat}")
    if not 0.0 < tau < 1.0:
        raise AccuracyError(f"threshold tau must be in (0,1), got {tau}")
    if n < 1:
        raise AccuracyError(f"sample size must be >= 1, got {n}")
    scale = math.sqrt(tau * (1.0 - tau) / n)
    statistic = (p_hat - tau) / scale
    return _one_sided_decision(statistic, op, alpha, None)


class SignificancePredicate(abc.ABC):
    """A bound significance predicate: data + test parameters, immutable.

    ``run()`` performs the hypothesis test; TRUE (reject H0) bounds the
    false-positive rate by ``alpha``.  ``replaced()`` derives a copy with a
    different op / alpha, which is how COUPLED-TESTS builds the inverse
    test (lines 2-11 of the paper's listing).
    """

    op: str
    alpha: float

    @abc.abstractmethod
    def run(self) -> TestResult:
        """Execute the test; truthy result means the predicate holds."""

    @abc.abstractmethod
    def replaced(
        self, op: str | None = None, alpha: float | None = None
    ) -> "SignificancePredicate":
        """A copy with the given fields overridden."""

    def inverse(self) -> "SignificancePredicate":
        """The coupled inverse test ('>' <-> '<')."""
        if self.op not in INVERSE_OP:
            raise QueryError(
                f"operator {self.op!r} has no single inverse; "
                "COUPLED-TESTS splits '<>' into two one-sided tests instead"
            )
        return self.replaced(op=INVERSE_OP[self.op])


@dataclasses.dataclass(frozen=True, slots=True)
class MTest(SignificancePredicate):
    """Bound mTest(X, op, c, alpha)."""

    field: FieldStats
    op: str
    c: float
    alpha: float = 0.05

    def run(self) -> TestResult:
        return m_test(self.field, self.op, self.c, self.alpha)

    def replaced(
        self, op: str | None = None, alpha: float | None = None
    ) -> "MTest":
        return MTest(
            self.field,
            self.op if op is None else op,
            self.c,
            self.alpha if alpha is None else alpha,
        )


@dataclasses.dataclass(frozen=True, slots=True)
class MdTest(SignificancePredicate):
    """Bound mdTest(X, Y, op, c, alpha)."""

    field_x: FieldStats
    field_y: FieldStats
    op: str
    c: float = 0.0
    alpha: float = 0.05

    def run(self) -> TestResult:
        return md_test(self.field_x, self.field_y, self.op, self.c, self.alpha)

    def replaced(
        self, op: str | None = None, alpha: float | None = None
    ) -> "MdTest":
        return MdTest(
            self.field_x,
            self.field_y,
            self.op if op is None else op,
            self.c,
            self.alpha if alpha is None else alpha,
        )


@dataclasses.dataclass(frozen=True, slots=True)
class PTest(SignificancePredicate):
    """Bound pTest(pred, tau, alpha) over an estimated probability."""

    p_hat: float
    n: int
    tau: float
    op: str = ">"
    alpha: float = 0.05

    def run(self) -> TestResult:
        return p_test(self.p_hat, self.n, self.op, self.tau, self.alpha)

    def replaced(
        self, op: str | None = None, alpha: float | None = None
    ) -> "PTest":
        return PTest(
            self.p_hat,
            self.n,
            self.tau,
            self.op if op is None else op,
            self.alpha if alpha is None else alpha,
        )


def v_test(
    field: FieldStats, op: str, c: float, alpha: float = 0.05
) -> TestResult:
    """vTest: is Var(X) op c statistically significant? (extension)

    A chi-square variance test — a natural fourth significance predicate
    beyond the paper's three, mirroring Lemma 2's variance interval:
    under H0: Var(X) = c, the statistic (n-1) * s^2 / c follows a
    chi-square distribution with n-1 degrees of freedom.
    """
    _check_op(op)
    _check_alpha(alpha)
    if c <= 0:
        raise AccuracyError(f"variance under test must be > 0, got {c}")
    if field.n < 2:
        raise AccuracyError("vTest needs a sample of size >= 2")
    df = field.n - 1
    statistic = df * field.std**2 / c

    def chi2_upper(tail: float) -> float:
        # Memoized in repro.core.analytic: the stream path runs this
        # test per tuple with a constant (alpha, df), so the critical
        # values are cache hits, not chi-square solves.
        return _chi2_upper(tail, df)

    sf = float(special.chdtrc(df, statistic))  # P[chi2 > statistic]
    if op == ">":
        p_value = sf
        reject = statistic > chi2_upper(alpha)
    elif op == "<":
        p_value = 1.0 - sf
        reject = statistic < chi2_upper(1.0 - alpha)
    else:  # '<>'
        p_value = 2.0 * min(sf, 1.0 - sf)
        reject = (
            statistic > chi2_upper(alpha / 2.0)
            or statistic < chi2_upper(1.0 - alpha / 2.0)
        )
    return TestResult(bool(reject), float(statistic), min(p_value, 1.0))


@dataclasses.dataclass(frozen=True, slots=True)
class VTest(SignificancePredicate):
    """Bound vTest(X, op, c, alpha) — the variance-test extension."""

    field: FieldStats
    op: str
    c: float
    alpha: float = 0.05

    def run(self) -> TestResult:
        return v_test(self.field, self.op, self.c, self.alpha)

    def replaced(
        self, op: str | None = None, alpha: float | None = None
    ) -> "VTest":
        return VTest(
            self.field,
            self.op if op is None else op,
            self.c,
            self.alpha if alpha is None else alpha,
        )
