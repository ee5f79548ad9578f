"""COUPLED-TESTS — controlling both error rates (paper §IV-C).

A single significance test only bounds the false-positive rate.  The
coupled-tests technique runs the original test T1 and its inverse T2:

* if T1 rejects -> TRUE (false-positive rate <= alpha1);
* else if T2 rejects -> FALSE (false-negative rate <= alpha2, because the
  original test's false negative is exactly the inverse test's false
  positive);
* else -> UNSURE (the data cannot support either decision at the requested
  error rates).

For the two-sided operator '<>' the algorithm splits alpha1 across the two
one-sided tests; by construction it never answers FALSE there, so the
false-negative rate is 0 and the union bound keeps the false-positive rate
below alpha1 (Theorem 3).
"""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

from repro.core.predicates import (
    INVERSE_OP,
    SignificancePredicate,
    TestResult,
    m_test_rejects,
)
from repro.errors import AccuracyError

__all__ = [
    "ThreeValued",
    "CoupledOutcome",
    "coupled_tests",
    "CoupledPredicate",
    "VERDICTS",
    "UNDECIDED",
    "m_test_verdicts",
]


class ThreeValued(enum.Enum):
    """Three-valued predicate result: TRUE, FALSE, or UNSURE."""

    TRUE = "TRUE"
    FALSE = "FALSE"
    UNSURE = "UNSURE"

    def __bool__(self) -> bool:
        """Strict truthiness: only TRUE selects a tuple; UNSURE does not."""
        return self is ThreeValued.TRUE


@dataclasses.dataclass(frozen=True, slots=True)
class CoupledOutcome:
    """Result of COUPLED-TESTS plus the underlying test outcomes."""

    value: ThreeValued
    primary: TestResult
    secondary: TestResult | None = None

    def __bool__(self) -> bool:
        return bool(self.value)


def coupled_tests(
    predicate: SignificancePredicate,
    alpha1: float = 0.05,
    alpha2: float = 0.05,
) -> CoupledOutcome:
    """Algorithm COUPLED-TESTS(P, alpha1, alpha2).

    ``alpha1`` bounds the false-positive rate and ``alpha2`` the
    false-negative rate of the returned three-valued decision.
    """
    _check_alphas(alpha1, alpha2)

    if predicate.op == "<>":
        # Lines 3-7: split alpha1 between the two one-sided tests.
        test_lt = predicate.replaced(op="<", alpha=alpha1 / 2.0)
        test_gt = predicate.replaced(op=">", alpha=alpha1 / 2.0)
        result_lt = test_lt.run()
        if result_lt.reject:
            return CoupledOutcome(ThreeValued.TRUE, result_lt)
        result_gt = test_gt.run()
        if result_gt.reject:
            # Line 19: for '<>' a rejection by either side means TRUE.
            return CoupledOutcome(ThreeValued.TRUE, result_lt, result_gt)
        return CoupledOutcome(ThreeValued.UNSURE, result_lt, result_gt)

    # Lines 9-11: T1 is the original test at alpha1, T2 its inverse at alpha2.
    test_1 = (
        predicate if predicate.alpha == alpha1
        else predicate.replaced(alpha=alpha1)
    )
    result_1 = test_1.run()
    if result_1.reject:
        return CoupledOutcome(ThreeValued.TRUE, result_1)
    test_2 = predicate.inverse().replaced(alpha=alpha2)
    result_2 = test_2.run()
    if result_2.reject:
        return CoupledOutcome(ThreeValued.FALSE, result_1, result_2)
    return CoupledOutcome(ThreeValued.UNSURE, result_1, result_2)


def _check_alphas(alpha1: float, alpha2: float) -> None:
    for name, alpha in (("alpha1", alpha1), ("alpha2", alpha2)):
        if not 0.0 < alpha < 1.0:
            raise AccuracyError(f"{name} must be in (0,1), got {alpha}")


#: :func:`m_test_verdicts` codes index this tuple.
VERDICTS = (ThreeValued.FALSE, ThreeValued.TRUE, ThreeValued.UNSURE)
_FALSE, _TRUE, _UNSURE = range(len(VERDICTS))

#: The :func:`m_test_verdicts` code of a row the kernel leaves to the
#: scalar test.
UNDECIDED = -1


def m_test_verdicts(
    mean: np.ndarray,
    std: np.ndarray,
    n: np.ndarray,
    op: str,
    c: float,
    alpha1: float = 0.05,
    alpha2: float | None = None,
) -> np.ndarray:
    """Per-row mTest decisions over ``(mean, std, n)`` columns.

    Returns ``int8`` codes into :data:`VERDICTS`.  With ``alpha2`` the
    code is ``coupled_tests(MTest(field, op, c, alpha1), alpha1,
    alpha2).value``; without it, TRUE when ``MTest(...).run()`` rejects
    and FALSE otherwise (a single test never answers UNSURE).  The tests
    are :func:`~repro.core.predicates.m_test_rejects`, so every decided
    row matches the scalar path.  Rows with ``n < 2`` (an exact value is
    ``n = -1``), a zero ``std`` or non-finite moments are
    :data:`UNDECIDED`: the scalar test raises or uses an infinite
    statistic there, and decides them itself.
    """
    mean = np.asarray(mean, dtype=np.float64)
    std = np.asarray(std, dtype=np.float64)
    n = np.asarray(n, dtype=np.int64)

    def rejects(test_op: str, alpha: float) -> np.ndarray:
        return m_test_rejects(mean, std, n, test_op, c, alpha)

    if alpha2 is None:
        codes = np.where(rejects(op, alpha1), _TRUE, _FALSE)
    else:
        _check_alphas(alpha1, alpha2)
        if op == "<>":
            either = rejects("<", alpha1 / 2.0) | rejects(">", alpha1 / 2.0)
            codes = np.where(either, _TRUE, _UNSURE)
        else:
            codes = np.where(
                rejects(op, alpha1),
                _TRUE,
                np.where(rejects(INVERSE_OP[op], alpha2), _FALSE, _UNSURE),
            )
    codes = codes.astype(np.int8)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = std / np.sqrt(n)
    decided = (
        (n >= 2)
        & (scale > 0.0)
        & np.isfinite(scale)
        & np.isfinite(mean)
    )
    codes[~decided] = UNDECIDED
    return codes


@dataclasses.dataclass(frozen=True, slots=True)
class CoupledPredicate:
    """A significance predicate evaluated with coupled error-rate control.

    Wraps any :class:`SignificancePredicate` with (alpha1, alpha2); calling
    :meth:`evaluate` runs COUPLED-TESTS.  This is the form significance
    predicates take inside WHERE clauses of the query layer.
    """

    predicate: SignificancePredicate
    alpha1: float = 0.05
    alpha2: float = 0.05

    def evaluate(self) -> CoupledOutcome:
        return coupled_tests(self.predicate, self.alpha1, self.alpha2)
