"""Finite mixtures of distributions.

Gaussian mixture models are one of the representations prior uncertain
stream systems (PODS [19]) operate on directly; we support general finite
mixtures so query processing in the "direct on distributions" category can
produce them (e.g. the result of a probabilistic CASE/union).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.distributions.base import Distribution
from repro.errors import DistributionError

__all__ = ["MixtureDistribution"]


class MixtureDistribution(Distribution):
    """Weighted mixture sum_i w_i * component_i."""

    __slots__ = ("components", "weights")

    def __init__(
        self,
        components: Sequence[Distribution],
        weights: Sequence[float] | None = None,
    ) -> None:
        if not components:
            raise DistributionError("mixture needs >= 1 component")
        comps = tuple(components)
        if weights is None:
            w = np.full(len(comps), 1.0 / len(comps))
        else:
            w = np.asarray(weights, dtype=float).ravel()
            if w.size != len(comps):
                raise DistributionError(
                    f"{len(comps)} components but {w.size} weights"
                )
            if np.any(w < 0):
                raise DistributionError("mixture weights must be >= 0")
            total = w.sum()
            if total <= 0:
                raise DistributionError("mixture weights must not all be 0")
            w = w / total
        self.components = comps
        self.weights = w

    def mean(self) -> float:
        return float(
            sum(w * c.mean() for w, c in zip(self.weights, self.components))
        )

    def variance(self) -> float:
        # Law of total variance: E[Var] + Var[E].
        mu = self.mean()
        expected_var = sum(
            w * c.variance() for w, c in zip(self.weights, self.components)
        )
        var_of_means = sum(
            w * (c.mean() - mu) ** 2
            for w, c in zip(self.weights, self.components)
        )
        return float(expected_var + var_of_means)

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        picks = rng.choice(len(self.components), size=size, p=self.weights)
        out = np.empty(size, dtype=float)
        for idx in np.unique(picks):
            mask = picks == idx
            out[mask] = self.components[idx].sample(rng, int(mask.sum()))
        return out

    def cdf(self, x: float) -> float:
        return float(
            sum(w * c.cdf(x) for w, c in zip(self.weights, self.components))
        )

    def prob_less(self, threshold: float) -> float:
        return float(
            sum(
                w * c.prob_less(threshold)
                for w, c in zip(self.weights, self.components)
            )
        )

    def __repr__(self) -> str:
        return f"MixtureDistribution({len(self.components)} components)"
