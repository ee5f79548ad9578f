"""Windowed-aggregate throughput: rolling kernels vs list rebuilds.

The sliding-window operators used to rebuild ``means``/``variances``
lists and re-scan ``min(sizes)`` on every slide — O(window) per tuple.
They now ride the rolling kernels of :mod:`repro.streams.rolling`
(compensated sums, monotonic-deque extrema, counter-based minimum
sample size), which makes every slide O(1) amortized.

This benchmark pits the shipped operators against ``_Legacy*`` copies
of the pre-PR list-rebuild implementations on the same streams and
asserts the speedup at ``window_size >= 256`` — where the O(window)
term dominates — is at least 3x.  The two arms run interleaved, one
run of each per repeat (alternating which goes first), and the gate
reads the median of the per-repeat ratios, so host load that drifts
during the run moves both arms of a pair alike.  Results land in
``benchmarks/results/BENCH_windows.json`` as
``{config, operator, window_size, tuples_per_sec}`` records (each arm's
best repeat).

``WINDOW_SMOKE=1`` shrinks the workload and relaxes the assertion to
"rolling is not slower" for CI smoke runs on noisy shared runners.
"""

import json
import os
from collections import deque

import numpy as np

from benchmarks.conftest import save_result
from repro.core.dfsample import DfSized
from repro.distributions.gaussian import GaussianDistribution
from repro.streams.engine import Pipeline
from repro.streams.operators import CountingSink, Operator, WindowAggregate
from repro.streams.throughput import measure_throughput
from repro.streams.tuples import UncertainTuple

SMOKE = os.environ.get("WINDOW_SMOKE", "") not in ("", "0")
N_ITEMS = 3000 if SMOKE else 20_000
REPEATS = 2 if SMOKE else 3
WINDOW_SIZES = (16, 256) if SMOKE else (16, 64, 256, 1024)
# The tentpole acceptance gate: O(1) vs O(window) must show up as at
# least this speedup once the window dwarfs the constant factors.
MIN_SPEEDUP = 1.0 if SMOKE else 3.0
GATED_WINDOW = 256


class _LegacyWindowAggregate(Operator):
    """The pre-PR WindowAggregate: full list rebuild on every slide."""

    def __init__(self, attribute, window_size, agg="avg", output=None):
        super().__init__()
        self.attribute = attribute
        self.window_size = window_size
        self.agg = agg
        self.output = output if output is not None else agg
        self._members = deque()

    def _advance(self, tup):
        field = tup.dfsized(self.attribute)
        dist = field.distribution
        self._members.append(
            (dist.mean(), dist.variance(), field.sample_size)
        )
        if len(self._members) > self.window_size:
            self._members.popleft()

        means = [m for m, _, _ in self._members]
        variances = [v for _, v, _ in self._members]
        sizes = [n for _, _, n in self._members if n is not None]
        df_size = min(sizes) if sizes else None
        k = len(self._members)

        if self.agg == "count":
            value = float(k)
        elif self.agg == "min":
            value = min(means)
        elif self.agg == "max":
            value = max(means)
        elif self.agg == "sum":
            value = DfSized(
                GaussianDistribution(sum(means), sum(variances)), df_size
            )
        else:  # avg
            value = DfSized(
                GaussianDistribution(
                    sum(means) / k, sum(variances) / (k * k)
                ),
                df_size,
            )
        attributes = dict(tup.attributes)
        attributes[self.output] = value
        return tup.with_attributes(attributes)

    def process_many(self, tuples):
        self.emit_many([self._advance(tup) for tup in tuples])


class _LegacySlidingGaussianAverage(Operator):
    """The pre-rolling SlidingGaussianAverage, a Gaussian-only AVG
    operator since folded into WindowAggregate: plain += / -= running
    sums."""

    def __init__(self, attribute, window_size, output="avg"):
        super().__init__()
        self.attribute = attribute
        self.window_size = window_size
        self.output = output
        self._members = deque()
        self._mu_sum = 0.0
        self._var_sum = 0.0
        self._size_counts = {}

    def _advance(self, tup):
        field = tup.dfsized(self.attribute)
        dist = field.distribution
        self._members.append((dist.mu, dist.sigma2, field.sample_size))
        self._mu_sum += dist.mu
        self._var_sum += dist.sigma2
        if field.sample_size is not None:
            counts = self._size_counts
            counts[field.sample_size] = counts.get(field.sample_size, 0) + 1
        if len(self._members) > self.window_size:
            old_mu, old_var, old_n = self._members.popleft()
            self._mu_sum -= old_mu
            self._var_sum -= old_var
            if old_n is not None:
                self._size_counts[old_n] -= 1
                if self._size_counts[old_n] == 0:
                    del self._size_counts[old_n]
        k = len(self._members)
        avg = GaussianDistribution(self._mu_sum / k, self._var_sum / (k * k))
        size = min(self._size_counts) if self._size_counts else None
        attributes = dict(tup.attributes)
        attributes[self.output] = DfSized(avg, size)
        return tup.with_attributes(attributes)

    def process_many(self, tuples):
        self.emit_many([self._advance(tup) for tup in tuples])


def _stream(n=N_ITEMS, seed=11):
    rng = np.random.default_rng(seed)
    mus = rng.normal(50.0, 12.0, size=n)
    sigmas = rng.uniform(0.5, 5.0, size=n)
    sizes = rng.integers(10, 200, size=n)
    return [
        UncertainTuple(
            {
                "x": DfSized(
                    GaussianDistribution(float(mu), float(s2)), int(sz)
                )
            }
        )
        for mu, s2, sz in zip(mus, sigmas, sizes)
    ]


def _measure_pair(rolling_factory, legacy_factory, tuples):
    """Best throughput of each arm and the median per-repeat ratio."""
    rolling_runs, legacy_runs = [], []
    for repeat in range(REPEATS):
        arms = [(rolling_factory, rolling_runs), (legacy_factory, legacy_runs)]
        if repeat % 2:
            arms.reverse()
        for factory, runs in arms:
            runs.append(measure_throughput(factory, tuples, repeats=1))
    ratios = [r / l for r, l in zip(rolling_runs, legacy_runs)]
    return max(rolling_runs), max(legacy_runs), float(np.median(ratios))


def test_window_throughput(results_dir):
    tuples = _stream()
    records = []
    speedups = {}

    # (label, shipped factory, legacy factory, speedup floor at
    # window >= GATED_WINDOW).  The rebuild operators must clear the
    # real O(window) -> O(1) bar.  The pre-rolling
    # SlidingGaussianAverage was already O(1), so WindowAggregate[avg],
    # which replaced it, is only gated on "not much slower than it".
    cases = [
        (
            "WindowAggregate[avg]",
            lambda w: lambda: Pipeline(
                [WindowAggregate("x", w, agg="avg"), CountingSink()]
            ),
            lambda w: lambda: Pipeline(
                [_LegacyWindowAggregate("x", w, agg="avg"), CountingSink()]
            ),
            MIN_SPEEDUP,
        ),
        (
            "WindowAggregate[min]",
            lambda w: lambda: Pipeline(
                [WindowAggregate("x", w, agg="min"), CountingSink()]
            ),
            lambda w: lambda: Pipeline(
                [_LegacyWindowAggregate("x", w, agg="min"), CountingSink()]
            ),
            MIN_SPEEDUP,
        ),
        (
            "WindowAggregate[avg] vs SGA",
            lambda w: lambda: Pipeline(
                [WindowAggregate("x", w), CountingSink()]
            ),
            lambda w: lambda: Pipeline(
                [_LegacySlidingGaussianAverage("x", w), CountingSink()]
            ),
            0.5,
        ),
    ]

    floors = {}
    for label, rolling_factory, legacy_factory, floor in cases:
        floors[label] = floor
        for window_size in WINDOW_SIZES:
            rolling, legacy, speedup = _measure_pair(
                rolling_factory(window_size),
                legacy_factory(window_size),
                tuples,
            )
            records.append(
                {
                    "config": "rolling",
                    "operator": label,
                    "window_size": window_size,
                    "tuples_per_sec": rolling,
                }
            )
            records.append(
                {
                    "config": "legacy-rebuild",
                    "operator": label,
                    "window_size": window_size,
                    "tuples_per_sec": legacy,
                }
            )
            speedups[(label, window_size)] = speedup

    (results_dir / "BENCH_windows.json").write_text(
        json.dumps(records, indent=1) + "\n"
    )

    lines = ["operator                       window   median speedup"]
    for (label, window_size), speedup in sorted(speedups.items()):
        lines.append(f"{label:<30} {window_size:>6}   {speedup:>6.2f}x")
    save_result(results_dir, "window_throughput", "\n".join(lines))

    for (label, window_size), speedup in speedups.items():
        if window_size < GATED_WINDOW:
            continue
        floor = floors[label]
        assert speedup >= floor, (
            f"{label} at window {window_size}: {speedup:.2f}x < {floor}x\n"
            + "\n".join(lines)
        )
