"""Figures 5(c) and 5(f): stream throughput impact (§V-C, §V-D).

The workload follows the paper: for each stream item 20 raw data points
are generated and a Gaussian is learned from them; the query is a
count-based sliding-window AVG with window size 1000, whose result is
again a Gaussian.  We measure maximum throughput (tuples/second) for:

* 5(c): query processing only; + analytical accuracy info (Lemma 2 on the
  window result); + bootstrap accuracy info.
* 5(f): no significance predicate; + coupled mTest; + coupled mdTest
  (current window mean vs previous result's); + coupled pTest
  (P[avg > c] > 0.8).
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable, Sequence

import numpy as np

from repro.core.accuracy import AccuracyInfo, ConfidenceInterval
from repro.core.adaptive import (
    DEFAULT_GROWTH,
    DEFAULT_INITIAL_RESAMPLES,
    adaptive_bootstrap_accuracy_info,
    resample_schedule,
    width_calibration,
)
from repro.core.analytic import accuracy_from_moments
from repro.core.bootstrap import (
    _resample_statistics,
    bootstrap_accuracy_batch,
    percentile_intervals,
)
from repro.core.coupled import coupled_tests
from repro.core.dfsample import DfSized
from repro.core.predicates import FieldStats, MdTest, MTest, PTest
from repro.distributions.gaussian import GaussianDistribution
from repro.experiments.harness import render_table
from repro.learning.gaussian_learner import GaussianLearner
from repro.obs.instrument import Observer
from repro.obs.provenance import lineage_from_operands
from repro.streams.columnar import (
    EXACT_SIZE,
    ArrayColumn,
    ColumnarBatch,
    GaussianDfColumn,
    ObjectColumn,
)
from repro.streams.engine import Pipeline
from repro.streams.operators import (
    ANY_PARTITION,
    CountingSink,
    Operator,
    WindowAggregate,
)
from repro.streams.throughput import measure_throughput
from repro.streams.tuples import UncertainTuple

__all__ = [
    "ThroughputResult",
    "fig5c_pipelines",
    "fig5f_pipelines",
    "make_stream",
    "run_fig5c",
    "run_fig5f",
]

RAW_POINTS_PER_ITEM = 20
WINDOW_SIZE = 1000
# Batch size for the vectorized execution path (Pipeline.run_batched).
BATCH_SIZE = 256


@dataclasses.dataclass
class ThroughputResult:
    """Throughput (tuples/second) per configuration, in listed order."""

    label: str
    throughputs: dict[str, float]

    def render(self) -> str:
        rows = [[name, int(tput)] for name, tput in self.throughputs.items()]
        return render_table(
            ["configuration", "tuples/second"], rows, title=self.label
        )

    def relative(self) -> dict[str, float]:
        """Throughput normalised by the first (baseline) configuration."""
        baseline = next(iter(self.throughputs.values()))
        return {
            name: tput / baseline for name, tput in self.throughputs.items()
        }


def make_stream(
    n_items: int, seed: int, mean: float = 100.0, std: float = 10.0
) -> list[UncertainTuple]:
    """Stream items carrying 20 raw data points each (paper §V-C).

    Learning the Gaussian from the raw points is *query-processing work*
    ("the query processor learns a Gaussian distribution from them"), so
    it happens inside the pipeline, not here.
    """
    rng = np.random.default_rng(seed)
    return [
        UncertainTuple(
            {"item": i, "points": rng.normal(mean, std, RAW_POINTS_PER_ITEM)}
        )
        for i in range(n_items)
    ]


class _LearnGaussian(Operator):
    """Learns a Gaussian attribute from each tuple's raw points (QP step)."""

    partition_key = ANY_PARTITION
    one_output_per_input = True

    def __init__(self, points_attribute: str, output: str) -> None:
        super().__init__()
        self.points_attribute = points_attribute
        self.output = output
        self._learner = GaussianLearner()

    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        # All per-item point vectors have the same length, so the whole
        # batch learns from one (batch, points) matrix in two NumPy
        # reductions instead of two per tuple.
        if isinstance(tuples, ColumnarBatch):
            column = tuples.column(self.points_attribute)
            if (
                isinstance(column, ArrayColumn)
                and column.matrix.shape[1] >= 2
            ):
                # The raw points already sit in one (batch, k) matrix —
                # learn straight off the columns, emit columns.
                matrix = column.matrix
                mus = matrix.mean(axis=1)
                sigma2s = matrix.var(axis=1, ddof=1)
                if not (
                    np.isfinite(mus).all() and np.isfinite(sigma2s).all()
                ):
                    for i in range(len(mus)):  # canonical per-row error
                        GaussianDistribution(
                            float(mus[i]), float(sigma2s[i])
                        )
                self.emit_many(
                    tuples.with_column(
                        self.output,
                        GaussianDfColumn(
                            mus,
                            sigma2s,
                            np.full(
                                len(mus), matrix.shape[1], dtype=np.int64
                            ),
                        ),
                    )
                )
                return
        points = [tup.value(self.points_attribute) for tup in tuples]
        try:
            matrix = np.asarray(points, dtype=float)
        except ValueError:
            matrix = None
        if matrix is None or matrix.ndim != 2 or matrix.shape[1] < 2:
            # Ragged or too-short point lists: learn row by row, so a
            # bad row raises the learner's own error.
            learned = [
                self._learner.learn(p).as_dfsized()  # type: ignore[arg-type]
                for p in points
            ]
        else:
            mus = matrix.mean(axis=1).tolist()
            sigma2s = matrix.var(axis=1, ddof=1).tolist()
            n = matrix.shape[1]
            learned = [
                DfSized(GaussianDistribution(mu, sigma2), n)
                for mu, sigma2 in zip(mus, sigma2s)
            ]
        out = []
        for tup, value in zip(tuples, learned):
            attributes = dict(tup.attributes)
            attributes[self.output] = value
            out.append(tup.with_attributes(attributes))
        self.emit_many(out)


class _AnalyticAccuracy(Operator):
    """Attaches analytic accuracy info to the window-average field."""

    partition_key = ANY_PARTITION
    one_output_per_input = True

    accuracy_attribute = "accuracy"

    def __init__(self, attribute: str, confidence: float = 0.9) -> None:
        super().__init__()
        self.attribute = attribute
        self.confidence = confidence

    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        # Vectorized Lemma 2: one mean_intervals/variance_intervals pass
        # over the whole batch instead of two interval solves per tuple.
        if isinstance(tuples, ColumnarBatch):
            column = tuples.gaussian_column(self.attribute)
            if (
                column is not None
                and len(column)
                and bool((column.sizes >= 2).all())
            ):
                # Every row eligible: Theorem 1 straight off the
                # (mu, sigma2, n) columns, accuracy as an object column.
                infos = accuracy_from_moments(
                    column.mu.tolist(),
                    column.sigma2.tolist(),
                    column.sizes.tolist(),
                    self.confidence,
                )
                self.emit_many(
                    tuples.with_column(
                        "accuracy", ObjectColumn(list(infos))
                    )
                )
                return
        fields = [tup.dfsized(self.attribute) for tup in tuples]
        eligible = [
            i
            for i, f in enumerate(fields)
            if f.sample_size is not None and f.sample_size >= 2
        ]
        if not eligible:
            self.emit_many(list(tuples))
            return
        means = [fields[i].distribution.mean() for i in eligible]
        variances = [fields[i].distribution.variance() for i in eligible]
        sizes = [fields[i].sample_size for i in eligible]
        infos = accuracy_from_moments(
            means, variances, sizes, self.confidence
        )
        out = list(tuples)
        for info, i in zip(infos, eligible):
            attributes = dict(out[i].attributes)
            attributes["accuracy"] = info
            out[i] = out[i].with_attributes(attributes)
        self.emit_many(out)

    def trace_lineage(self, tup: UncertainTuple) -> dict[str, object]:
        # Theorem 1 over the window average: the de facto size of the
        # result is the Lemma-3 min over the named operands (here one).
        return lineage_from_operands(
            {self.attribute: tup.attributes.get(self.attribute)}
        )


class _BootstrapAccuracy(Operator):
    """Attaches bootstrap accuracy info to the window-average field.

    With a width target (``target_ci_width`` / ``target_relative_width``)
    the fixed ``resamples`` budget becomes a cap and draws escalate
    adaptively (:mod:`repro.core.adaptive`).  Two slide-to-slide reuse
    layers ride on top, mirroring how the rolling layer reuses window
    aggregates:

    * **warm start** — consecutive window slides need nearly the same
      budget, so each tuple's schedule starts one growth step below the
      previous tuple's stopping point instead of back at ``r0``;
    * **identical-parameter cache** — a slide that leaves the window
      result (mu, sigma2, n) bit-identical reuses the previous
      AccuracyInfo outright, drawing nothing.

    Both layers evolve deterministically with the input stream.  The
    generator makes the output depend on every earlier draw, so the
    operator keeps the default ``partition_key`` (the whole stream in
    order) and sharded execution refuses it.
    """

    accuracy_attribute = "accuracy"

    def __init__(
        self,
        attribute: str,
        confidence: float = 0.9,
        resamples: int = 20,
        seed: int = 0,
        target_ci_width: float | None = None,
        target_relative_width: float | None = None,
        initial_resamples: int = DEFAULT_INITIAL_RESAMPLES,
        growth: float = DEFAULT_GROWTH,
    ) -> None:
        super().__init__()
        self.attribute = attribute
        self.confidence = confidence
        self.resamples = resamples
        self.target_ci_width = target_ci_width
        self.target_relative_width = target_relative_width
        self.initial_resamples = initial_resamples
        self.growth = growth
        self._rng = np.random.default_rng(seed)
        self._warm_r = initial_resamples
        self._cache_key: tuple[float, float, int] | None = None
        self._cache_info: AccuracyInfo | None = None

    @property
    def adaptive(self) -> bool:
        return (
            self.target_ci_width is not None
            or self.target_relative_width is not None
        )

    def _start_resamples(self) -> int:
        # One growth step below the previous stopping point: re-probes a
        # cheaper budget when the stream gets easier, yet reaches the
        # previous budget again after a single escalation.
        return max(
            self.initial_resamples, math.ceil(self._warm_r / self.growth)
        )

    def _adaptive_batch(
        self, mus: np.ndarray, sigma2s: np.ndarray, n: int
    ) -> list[AccuracyInfo]:
        """Vectorized escalation over a group of Gaussian output fields.

        All rows draw together round by round; a row leaves the active
        set as soon as its calibrated interval width meets the target,
        and only the surviving rows pay for the next round.  Statistics
        accumulated in earlier rounds are carried forward, never
        recomputed.  Rounds are drawn across the rows of a batch, so the
        drawn values depend on the batch size while the schedule and
        stopping semantics do not.
        """
        k = mus.size
        stds = np.sqrt(sigma2s)
        results: list[AccuracyInfo | None] = [None] * k
        active = np.arange(k)
        # Identical-parameter slides reuse the cached record directly.
        if self._cache_key is not None and self._cache_key[2] == n:
            mu0, sigma20 = self._cache_key[0], self._cache_key[1]
            hit = (mus == mu0) & (sigma2s == sigma20)
            if hit.any():
                for i in np.flatnonzero(hit):
                    results[i] = self._cache_info
                active = np.flatnonzero(~hit)
        schedule = resample_schedule(
            self._start_resamples(), self.growth, self.resamples
        )
        acc_means: np.ndarray | None = None
        acc_vars: np.ndarray | None = None
        prev_r = 0
        rounds = 0
        for r_total in schedule:
            if not active.size:
                break
            delta_r = r_total - prev_r
            if delta_r <= 0:
                continue
            block = self._rng.normal(
                mus[active][:, None],
                stds[active][:, None],
                (active.size, delta_r * n),
            )
            m_new, v_new, _ = _resample_statistics(
                block.reshape(active.size * delta_r, n), None
            )
            m_new = m_new.reshape(active.size, delta_r)
            v_new = v_new.reshape(active.size, delta_r)
            acc_means = (
                m_new
                if acc_means is None
                else np.concatenate([acc_means, m_new], axis=1)
            )
            acc_vars = (
                v_new
                if acc_vars is None
                else np.concatenate([acc_vars, v_new], axis=1)
            )
            prev_r = r_total
            rounds += 1
            mean_lo, mean_hi = percentile_intervals(
                acc_means.T, self.confidence
            )
            var_lo, var_hi = percentile_intervals(acc_vars.T, self.confidence)
            factor = width_calibration(r_total, self.confidence)
            done = np.ones(active.size, dtype=bool)
            if r_total != schedule[-1]:
                widths = (mean_hi - mean_lo) * factor
                if self.target_ci_width is not None:
                    done &= widths <= self.target_ci_width
                if self.target_relative_width is not None:
                    scale = np.abs((mean_lo + mean_hi) / 2.0)
                    done &= (scale > 0.0) & (
                        widths <= self.target_relative_width * scale
                    )
                    var_widths = (var_hi - var_lo) * factor
                    var_scale = np.abs((var_lo + var_hi) / 2.0)
                    done &= (var_scale > 0.0) & (
                        var_widths <= self.target_relative_width * var_scale
                    )
            for j in np.flatnonzero(done):
                row = int(active[j])
                results[row] = AccuracyInfo(
                    mean=ConfidenceInterval(
                        float(mean_lo[j]), float(mean_hi[j]), self.confidence
                    ),
                    variance=ConfidenceInterval(
                        float(var_lo[j]), float(var_hi[j]), self.confidence
                    ),
                    sample_size=n,
                    method="bootstrap",
                    values_used=r_total * n,
                    values_dropped=0,
                    draws_used=r_total * n,
                    rounds=rounds,
                )
            keep = ~done
            active = active[keep]
            acc_means = acc_means[keep]
            acc_vars = acc_vars[keep]
        if k:
            self._warm_r = max(
                self.initial_resamples, results[-1].draws_used // n
            )
            self._cache_key = (float(mus[-1]), float(sigma2s[-1]), n)
            self._cache_info = results[-1]
        return results  # type: ignore[return-value]

    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        # Vectorized BOOTSTRAP-ACCURACY-INFO: sample every tuple's output
        # variable into one (batch, m) matrix, then chunk statistics and
        # percentile intervals for the whole batch in a single pass.
        if isinstance(tuples, ColumnarBatch):
            column = tuples.gaussian_column(self.attribute)
            if (
                column is not None
                and len(column)
                and bool((column.sizes >= 2).all())
            ):
                # Same size-grouping and RNG draw order as the tuple
                # path (one broadcast normal per group), but the moments
                # come straight off the columns.
                sizes = column.sizes.tolist()
                by_n: dict[int, list[int]] = {}
                for i, n in enumerate(sizes):
                    by_n.setdefault(n, []).append(i)
                infos_out: list[object] = [None] * len(sizes)
                for n, indices in by_n.items():
                    idx = np.asarray(indices, dtype=np.intp)
                    mus = column.mu[idx]
                    if self.adaptive:
                        infos = self._adaptive_batch(
                            mus, column.sigma2[idx], n
                        )
                    else:
                        m = self.resamples * n
                        stds = np.sqrt(column.sigma2[idx])
                        matrix = self._rng.normal(
                            mus[:, None], stds[:, None], (len(indices), m)
                        )
                        infos = bootstrap_accuracy_batch(
                            matrix, n, self.confidence
                        )
                    for info, i in zip(infos, indices):
                        infos_out[i] = info
                self.emit_many(
                    tuples.with_column("accuracy", ObjectColumn(infos_out))
                )
                return
        fields = [tup.dfsized(self.attribute) for tup in tuples]
        out = list(tuples)
        # Group eligible tuples by sample size so each group shares one
        # (batch, m) kernel call (the window workload has a constant n).
        by_n: dict[int, list[int]] = {}
        for i, f in enumerate(fields):
            if f.sample_size is not None and f.sample_size >= 2:
                by_n.setdefault(f.sample_size, []).append(i)
        for n, indices in by_n.items():
            dists = [fields[i].distribution for i in indices]
            all_gaussian = all(
                isinstance(d, GaussianDistribution) for d in dists
            )
            if self.adaptive and all_gaussian:
                infos = self._adaptive_batch(
                    np.array([d.mu for d in dists]),
                    np.array([d.sigma2 for d in dists]),
                    n,
                )
            elif self.adaptive:
                infos = [
                    adaptive_bootstrap_accuracy_info(
                        lambda count, d=d: d.sample(self._rng, count),
                        n,
                        self.confidence,
                        target_ci_width=self.target_ci_width,
                        target_relative_width=self.target_relative_width,
                        max_resamples=self.resamples,
                        initial_resamples=self._start_resamples(),
                        growth=self.growth,
                    )
                    for d in dists
                ]
            else:
                m = self.resamples * n
                if all_gaussian:
                    mus = np.array([d.mu for d in dists])
                    stds = np.sqrt([d.sigma2 for d in dists])
                    matrix = self._rng.normal(
                        mus[:, None], stds[:, None], (len(dists), m)
                    )
                else:
                    matrix = np.stack(
                        [d.sample(self._rng, m) for d in dists]
                    )
                infos = bootstrap_accuracy_batch(matrix, n, self.confidence)
            for info, i in zip(infos, indices):
                attributes = dict(out[i].attributes)
                attributes["accuracy"] = info
                out[i] = out[i].with_attributes(attributes)
        self.emit_many(out)

    def trace_lineage(self, tup: UncertainTuple) -> dict[str, object]:
        lineage = lineage_from_operands(
            {self.attribute: tup.attributes.get(self.attribute)}
        )
        lineage["resamples"] = self.resamples
        if self.target_ci_width is not None:
            lineage["target_ci_width"] = self.target_ci_width
        if self.target_relative_width is not None:
            lineage["target_relative_width"] = self.target_relative_width
        return lineage


def _slug(name: str) -> str:
    """Configuration label -> metric-name segment."""
    return (
        name.lower()
        .replace("(", "")
        .replace(")", "")
        .replace(" ", "_")
    )


def _measure_all(
    label: str,
    configurations: "dict[str, tuple]",
    tuples: Sequence[UncertainTuple],
    repeats: int,
    observer: Observer | None,
    figure: str,
) -> ThroughputResult:
    """Measure every configuration; with an observer, also record the
    per-stage breakdown of each one under ``{figure}.{config slug}``.

    A configuration value is ``(factory, batch_size)``; a ``None``
    batch size measures the per-tuple path.
    """
    throughputs = {}
    for name, (factory, batch_size) in configurations.items():
        throughputs[name] = measure_throughput(
            factory,
            tuples,
            repeats,
            batch_size=batch_size,
            observer=observer,
            prefix=f"{figure}.{_slug(name)}",
        )
    return ThroughputResult(label, throughputs)


def _fig5_pipeline(*stages: Callable[[], Operator]) -> Callable[[], Pipeline]:
    """Factory for learn -> sliding AVG -> ``stages`` -> counting sink."""

    def build() -> Pipeline:
        return Pipeline(
            [
                _LearnGaussian("points", "value"),
                WindowAggregate("value", WINDOW_SIZE),
                *(stage() for stage in stages),
                CountingSink(),
            ]
        )

    return build


def _configurations(
    pipelines: dict[str, Callable[[], Pipeline]],
    batch_size: int,
) -> dict[str, tuple]:
    """Every pipeline on the per-tuple path, then "(batched)"; see
    :func:`_measure_all`."""
    configurations: dict[str, tuple] = {
        name: (factory, None) for name, factory in pipelines.items()
    }
    for name, factory in pipelines.items():
        configurations[f"{name} (batched)"] = (factory, batch_size)
    return configurations


def fig5c_pipelines(
    seed: int = 0,
    target_ci_width: float | None = None,
    target_relative_width: float | None = None,
) -> dict[str, Callable[[], Pipeline]]:
    """Figure 5(c) configurations: label -> fresh-pipeline factory.

    A width target adds "bootstrap adaptive", the bootstrap stage with
    early-stopping draws.
    """
    pipelines = {
        "QP only": _fig5_pipeline(),
        "analytic": _fig5_pipeline(lambda: _AnalyticAccuracy("avg")),
        "bootstrap": _fig5_pipeline(
            lambda: _BootstrapAccuracy("avg", seed=seed)
        ),
    }
    if target_ci_width is not None or target_relative_width is not None:
        pipelines["bootstrap adaptive"] = _fig5_pipeline(
            lambda: _BootstrapAccuracy(
                "avg",
                seed=seed,
                target_ci_width=target_ci_width,
                target_relative_width=target_relative_width,
            )
        )
    return pipelines


def run_fig5c(
    seed: int = 0,
    n_items: int = 4000,
    repeats: int = 3,
    batch_size: int = BATCH_SIZE,
    observer: Observer | None = None,
    target_ci_width: float | None = None,
    target_relative_width: float | None = None,
) -> ThroughputResult:
    """Figure 5(c): accuracy-computation overhead on stream throughput.

    Each configuration is measured twice: on the per-tuple path
    (``Pipeline.run``, one-row batches) and on the vectorized batched path
    (``Pipeline.run_batched``, suffix "(batched)").  ``observer``
    additionally collects a per-stage breakdown (tuples in/out, wall
    time, interval widths; spans and frames when it holds them) from
    one observed pass per configuration, under prefix
    ``fig5c.{configuration}``.

    A width target (``target_ci_width`` / ``target_relative_width``)
    adds "bootstrap adaptive" configurations that run the same
    bootstrap stage with early-stopping draws, for a direct
    fixed-vs-adaptive throughput comparison.
    """
    tuples = make_stream(n_items, seed)
    configurations = _configurations(
        fig5c_pipelines(seed, target_ci_width, target_relative_width),
        batch_size,
    )
    return _measure_all(
        "Figure 5(c): throughput with accuracy computation",
        configurations,
        tuples,
        repeats,
        observer,
        "fig5c",
    )


def _gaussian_moments(
    tuples: Sequence[UncertainTuple], attribute: str
) -> list[tuple[float, float, int]]:
    """``(mu, sigma2, n)`` of every row whose ``attribute`` has a size."""
    if isinstance(tuples, ColumnarBatch):
        column = tuples.gaussian_column(attribute)
        if column is not None:
            return [
                (mu, sigma2, n)
                for mu, sigma2, n in zip(
                    column.mu.tolist(),
                    column.sigma2.tolist(),
                    column.sizes.tolist(),
                )
                if n != EXACT_SIZE
            ]
    rows = []
    for tup in tuples:
        field = tup.dfsized(attribute)
        if field.sample_size is not None:
            dist = field.distribution
            rows.append((dist.mean(), dist.variance(), field.sample_size))
    return rows


class _CoupledMTest(Operator):
    """Coupled mTest on the window average against a constant."""

    partition_key = ANY_PARTITION
    one_output_per_input = True

    def __init__(self, attribute: str, constant: float) -> None:
        super().__init__()
        self.attribute = attribute
        self.constant = constant

    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        # One coupled test per row; the batch passes through untouched.
        for mu, sigma2, n in _gaussian_moments(tuples, self.attribute):
            stats = FieldStats(mu, math.sqrt(sigma2), n)
            coupled_tests(MTest(stats, ">", self.constant, 0.05), 0.05, 0.05)
        self.emit_many(tuples)


class _CoupledMdTest(Operator):
    """Coupled mdTest: current window average vs the previous one."""

    def __init__(self, attribute: str) -> None:
        super().__init__()
        self.attribute = attribute
        self._previous: FieldStats | None = None

    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        # Each row's stats become the next row's "previous".
        previous = self._previous
        for mu, sigma2, n in _gaussian_moments(tuples, self.attribute):
            stats = FieldStats(mu, math.sqrt(sigma2), n)
            if previous is not None:
                coupled_tests(
                    MdTest(stats, previous, ">", 0.0, 0.05), 0.05, 0.05
                )
            previous = stats
        self._previous = previous
        self.emit_many(tuples)


class _CoupledPTest(Operator):
    """Coupled pTest: P[avg > constant] above a probability threshold."""

    partition_key = ANY_PARTITION
    one_output_per_input = True

    def __init__(
        self, attribute: str, constant: float, tau: float = 0.8
    ) -> None:
        super().__init__()
        self.attribute = attribute
        self.constant = constant
        self.tau = tau

    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        # The tuple path reuses each row's distribution; columns build it.
        column = (
            tuples.gaussian_column(self.attribute)
            if isinstance(tuples, ColumnarBatch)
            else None
        )
        if column is not None:
            rows = [
                (GaussianDistribution(mu, sigma2), n)
                for mu, sigma2, n in zip(
                    column.mu.tolist(),
                    column.sigma2.tolist(),
                    column.sizes.tolist(),
                )
                if n != EXACT_SIZE
            ]
        else:
            fields = [tup.dfsized(self.attribute) for tup in tuples]
            rows = [
                (f.distribution, f.sample_size)
                for f in fields
                if f.sample_size is not None
            ]
        for dist, n in rows:
            p_hat = dist.prob_greater(self.constant)
            coupled_tests(
                PTest(p_hat, n, self.tau, ">", 0.05), 0.05, 0.05
            )
        self.emit_many(tuples)


def fig5f_pipelines() -> dict[str, Callable[[], Pipeline]]:
    """Figure 5(f) configurations: label -> fresh-pipeline factory."""
    return {
        "no predicate": _fig5_pipeline(),
        "mTest": _fig5_pipeline(lambda: _CoupledMTest("avg", 99.0)),
        "mdTest": _fig5_pipeline(lambda: _CoupledMdTest("avg")),
        "pTest": _fig5_pipeline(lambda: _CoupledPTest("avg", 99.0, 0.8)),
    }


def run_fig5f(
    seed: int = 0,
    n_items: int = 4000,
    repeats: int = 3,
    batch_size: int = BATCH_SIZE,
    observer: Observer | None = None,
) -> ThroughputResult:
    """Figure 5(f): significance-predicate overhead on stream throughput.

    As in :func:`run_fig5c`, every configuration is measured on both the
    per-tuple and the batched execution path, with an optional
    per-stage metrics breakdown under ``fig5f.{configuration}``.
    """
    tuples = make_stream(n_items, seed)
    configurations = _configurations(fig5f_pipelines(), batch_size)
    return _measure_all(
        "Figure 5(f): throughput with significance predicates",
        configurations,
        tuples,
        repeats,
        observer,
        "fig5f",
    )
