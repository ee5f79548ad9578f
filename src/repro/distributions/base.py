"""Abstract distribution interface and the degenerate (deterministic) case.

Every attribute of an uncertain tuple is conceptually a random variable.  The
:class:`Distribution` ABC is the contract the rest of the system programs
against: moments, sampling, and tail probabilities.  A plain deterministic
value is the special case :class:`Deterministic` — a distribution with all
mass on one point — so deterministic and probabilistic fields flow through
the same operators.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import DistributionError

__all__ = ["Distribution", "Deterministic", "as_distribution"]


class Distribution(abc.ABC):
    """A univariate probability distribution used as an attribute value.

    Subclasses must implement :meth:`mean`, :meth:`variance`,
    :meth:`sample`, and :meth:`cdf`.  Everything else has sensible defaults
    expressed in terms of those four.
    """

    @abc.abstractmethod
    def mean(self) -> float:
        """Expected value of the random variable."""

    @abc.abstractmethod
    def variance(self) -> float:
        """Variance of the random variable."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` iid values; always returns a 1-D float array."""

    @abc.abstractmethod
    def cdf(self, x: float) -> float:
        """P[X <= x]."""

    def std(self) -> float:
        """Standard deviation, sqrt of :meth:`variance`."""
        return float(np.sqrt(self.variance()))

    def prob_greater(self, threshold: float) -> float:
        """P[X > threshold]."""
        return 1.0 - self.cdf(threshold)

    def prob_less(self, threshold: float) -> float:
        """P[X < threshold] (equals the cdf for continuous distributions;
        distributions with point masses override it)."""
        return self.cdf(threshold)

    def is_deterministic(self) -> bool:
        """True when all probability mass sits on a single value."""
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(mean={self.mean():.4g}, "
            f"var={self.variance():.4g})"
        )


class Deterministic(Distribution):
    """A single value with probability 1 — a traditional database field."""

    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        self.value = float(value)
        if not np.isfinite(self.value):
            raise DistributionError(
                f"deterministic value must be finite, got {value!r}"
            )

    def mean(self) -> float:
        return self.value

    def variance(self) -> float:
        return 0.0

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        return np.full(size, self.value)

    def cdf(self, x: float) -> float:
        return 1.0 if x >= self.value else 0.0

    def prob_less(self, threshold: float) -> float:
        return 1.0 if threshold > self.value else 0.0

    def is_deterministic(self) -> bool:
        return True

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Deterministic) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("Deterministic", self.value))

    def __repr__(self) -> str:
        return f"Deterministic({self.value!r})"


def as_distribution(value: "Distribution | float | int") -> Distribution:
    """Coerce a raw number into a :class:`Deterministic` distribution.

    Distributions pass through unchanged; anything else must be a real
    number.  This is the single coercion point used by tuple construction
    and expression evaluation.
    """
    if isinstance(value, Distribution):
        return value
    if isinstance(value, (int, float, np.integer, np.floating)):
        return Deterministic(float(value))
    raise DistributionError(
        f"cannot interpret {value!r} as a distribution or number"
    )
