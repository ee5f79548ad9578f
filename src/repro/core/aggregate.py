"""Possible-world moments of COUNT, SUM and AVG over uncertain tuples.

Tuple memberships are independent, ``B_i ~ Bernoulli(p_i)``, and field
values ``X_i`` have mean ``mu_i`` and variance ``sigma_i^2``:

* COUNT: E = sum(p_i),  Var = sum(p_i (1 - p_i))   (exact)
* SUM:   E = sum(p_i mu_i),
         Var = sum(p_i (sigma_i^2 + mu_i^2) - p_i^2 mu_i^2)   (exact)
* AVG:   SUM / E[COUNT] with variance scaled by E[COUNT]^2 — exact when
         every p_i = 1, a first-order approximation otherwise.

:func:`accumulate_moments` sums the per-row terms of every group and
:func:`aggregate_moments` turns one group's sums into the (mean,
variance) of an aggregate.  The sums use ``np.bincount``, which adds
each group's terms one at a time in row order, so they equal a
sequential ``+=`` loop over the rows bit for bit.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

__all__ = ["GroupMoments", "accumulate_moments", "aggregate_moments"]


@dataclasses.dataclass
class GroupMoments:
    """Per-group sums of the possible-world moment terms.

    ``exp_count[g]`` and ``var_count[g]`` are group ``g``'s COUNT
    moments; ``exp_sum[i][g]`` and ``var_sum[i][g]`` the SUM moments of
    aggregate ``i``.  ``size_min[i][g]`` is the smallest sample size of
    aggregate ``i``'s values in the group and ``condition_size[g]`` the
    smallest WHERE-clause sample size (None when every size is exact).
    """

    exp_count: list[float]
    var_count: list[float]
    exp_sum: list[list[float]]
    var_sum: list[list[float]]
    size_min: list[list]
    condition_size: list


def _group_min(groups: Sequence[int], sizes: Sequence, n_groups: int) -> list:
    """Per group, the ``min`` over its non-None sizes, or None.

    Ties keep the first size seen, as ``min`` does.
    """
    best: list = [None] * n_groups
    for g, size in zip(groups, sizes):
        if size is not None:
            current = best[g]
            if current is None or size < current:
                best[g] = size
    return best


def accumulate_moments(
    groups: np.ndarray,
    n_groups: int,
    probabilities: np.ndarray,
    means: Sequence[np.ndarray],
    variances: Sequence[np.ndarray],
    sizes: Sequence[Sequence],
    condition_sizes: Sequence,
) -> GroupMoments:
    """Sum every group's moment terms over rows in arrival order.

    Row ``r`` belongs to group ``groups[r]`` with membership probability
    ``probabilities[r]``.  ``means[i][r]``, ``variances[i][r]`` and
    ``sizes[i][r]`` are the moments and sample size of aggregate ``i``'s
    value on row ``r``; ``condition_sizes[r]`` is the smallest finite
    WHERE-clause sample size of the row, or None.
    """
    p = probabilities

    def total(terms: np.ndarray) -> list[float]:
        return np.bincount(groups, weights=terms, minlength=n_groups).tolist()

    exp_sum, var_sum = [], []
    for mu, sigma2 in zip(means, variances):
        exp_sum.append(total(p * mu))
        var_sum.append(total(p * (sigma2 + mu * mu) - p * p * mu * mu))
    return GroupMoments(
        exp_count=total(p),
        var_count=total(p * (1.0 - p)),
        exp_sum=exp_sum,
        var_sum=var_sum,
        size_min=[_group_min(groups, s, n_groups) for s in sizes],
        condition_size=_group_min(groups, condition_sizes, n_groups),
    )


def aggregate_moments(
    kind: str, moments: GroupMoments, item: int, group: int
) -> tuple[float, float]:
    """(mean, variance) of aggregate ``item`` (``kind`` is count/sum/avg)."""
    if kind == "count":
        return moments.exp_count[group], moments.var_count[group]
    exp_sum = moments.exp_sum[item][group]
    var_sum = max(moments.var_sum[item][group], 0.0)
    if kind == "sum":
        return exp_sum, var_sum
    exp_count = moments.exp_count[group]
    return exp_sum / exp_count, var_sum / (exp_count * exp_count)
