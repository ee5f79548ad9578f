"""Supplementary experiments beyond the paper's figures.

Two evaluations the paper implies but does not plot, useful for anyone
deploying the system:

* **Tuple-probability interval coverage** — Theorem 1 treats a result
  tuple's membership probability as a one-bin histogram; we measure how
  often the Lemma-1 interval actually covers the *true* satisfaction
  probability of a threshold query, across sample sizes.
* **Confidence-level sweep** — how interval length and miss rate trade
  off as the requested confidence moves through 80/90/95/99%, for the
  mean statistic on road-delay data.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from repro.core.analytic import mean_interval, tuple_probability_interval
from repro.experiments.harness import render_table
from repro.learning.histogram_learner import HistogramLearner
from repro.workloads.cartel import CarTelSimulator

__all__ = [
    "TupleProbabilityCoverage",
    "run_tuple_probability_coverage",
    "ConfidenceSweep",
    "run_confidence_sweep",
]


@dataclasses.dataclass
class TupleProbabilityCoverage:
    """Coverage and width of result-tuple probability intervals per n."""

    sample_sizes: tuple[int, ...]
    confidence: float
    miss_rates: list[float]
    mean_lengths: list[float]

    def render(self) -> str:
        rows = [
            [n, self.miss_rates[i], self.mean_lengths[i]]
            for i, n in enumerate(self.sample_sizes)
        ]
        return render_table(
            ["n", "miss rate", "mean CI length"],
            rows,
            title=(
                "Supplementary: tuple-probability interval coverage "
                f"({self.confidence * 100:.0f}% CIs)"
            ),
        )


def run_tuple_probability_coverage(
    seed: int = 0,
    sample_sizes: Sequence[int] = (10, 20, 40, 80),
    trials: int = 200,
    confidence: float = 0.9,
) -> TupleProbabilityCoverage:
    """Coverage of Theorem 1's one-bin-histogram probability intervals.

    Per trial: learn a road's delay histogram from n observations,
    compute P[delay > threshold] from it, wrap that in a Lemma-1
    interval, and check whether the interval covers the road's *true*
    threshold probability (from the segment's closed-form lognormal).
    """
    sim = CarTelSimulator(60, seed=seed)
    segments = sim.pick_segments(min(trials, 60))
    miss_rates: list[float] = []
    mean_lengths: list[float] = []

    for n in sample_sizes:
        misses = 0
        total_length = 0.0
        count = 0
        for trial in range(trials):
            segment_id = segments[trial % len(segments)]
            threshold = sim.true_mean(segment_id)  # P[X > mean] varies
            # True probability from a large fresh sample of the segment.
            reference = sim.observations(segment_id, 20_000)
            true_p = float(np.mean(reference > threshold))

            sample = sim.observations(segment_id, n)
            learned = HistogramLearner(bucket_count=8).learn(sample)
            p_hat = learned.distribution.prob_greater(threshold)
            interval = tuple_probability_interval(
                p_hat, n, confidence
            ).interval
            misses += not interval.contains(true_p)
            total_length += interval.length
            count += 1
        miss_rates.append(misses / count)
        mean_lengths.append(total_length / count)

    return TupleProbabilityCoverage(
        tuple(sample_sizes), confidence, miss_rates, mean_lengths
    )


@dataclasses.dataclass
class ConfidenceSweep:
    """Interval length / miss rate trade-off across confidence levels."""

    confidences: tuple[float, ...]
    n: int
    miss_rates: list[float]
    mean_lengths: list[float]

    def render(self) -> str:
        rows = [
            [c, self.miss_rates[i], self.mean_lengths[i]]
            for i, c in enumerate(self.confidences)
        ]
        return render_table(
            ["confidence", "miss rate", "mean CI length"],
            rows,
            title=(
                "Supplementary: confidence level vs length/miss "
                f"(mean statistic, n={self.n})"
            ),
        )


def run_confidence_sweep(
    seed: int = 0,
    confidences: Sequence[float] = (0.8, 0.9, 0.95, 0.99),
    n: int = 20,
    trials: int = 300,
) -> ConfidenceSweep:
    """The requested-confidence dial on road-delay mean intervals."""
    sim = CarTelSimulator(60, seed=seed)
    segments = sim.pick_segments(40)

    miss_rates: list[float] = []
    mean_lengths: list[float] = []
    for confidence in confidences:
        misses = 0
        total_length = 0.0
        for trial in range(trials):
            segment_id = segments[trial % len(segments)]
            true_mean = sim.true_mean(segment_id)
            sample = sim.observations(segment_id, n)
            interval = mean_interval(
                float(sample.mean()), float(sample.std(ddof=1)),
                n, confidence,
            )
            misses += not interval.contains(true_mean)
            total_length += interval.length
        miss_rates.append(misses / trials)
        mean_lengths.append(total_length / trials)

    return ConfidenceSweep(
        tuple(confidences), n, miss_rates, mean_lengths
    )
