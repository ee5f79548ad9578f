"""Per-operator instrumentation bundles and snapshot helpers.

:class:`OperatorMetrics` is the object an :class:`~repro.streams.operators.Operator`
holds when a :class:`~repro.obs.metrics.MetricsRegistry` is attached to
its pipeline.  It pre-registers every metric the operator hooks update,
so the hot path does plain attribute access — no dict lookups per tuple.

The metric names are hierarchical: ``{operator id}.{metric}``, where the
operator id is ``{prefix}.{index:02d}.{ClassName}`` as assigned by
:meth:`Pipeline.attach_metrics`.  :func:`operator_rows` groups a registry
snapshot back into one row per operator for tabular reporting
(:func:`repro.experiments.harness.render_metrics_table`).
"""

from __future__ import annotations

import math

from repro.core.accuracy import AccuracyInfo
from repro.core.analytic import mean_interval
from repro.core.dfsample import DfSized
from repro.obs.metrics import (
    MetricsRegistry,
    exponential_buckets,
)

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "INTERVAL_WIDTH_BUCKETS",
    "SAMPLE_SIZE_BUCKETS",
    "ROLLING_DRIFT_BUCKETS",
    "SYNOPSIS_ERROR_BUCKETS",
    "DRAWS_USED_BUCKETS",
    "OperatorMetrics",
    "operator_rows",
]

# Batch sizes: powers of two up to 64k (Pipeline.run_batched defaults
# to 256; sources may feed anything).
BATCH_SIZE_BUCKETS = exponential_buckets(1.0, 2.0, 17)
# Interval widths span many orders of magnitude across workloads
# (traffic delays vs normalized probabilities): geometric from 1e-4.
INTERVAL_WIDTH_BUCKETS = exponential_buckets(1e-4, 10.0**0.5, 16)
# De facto sample sizes: the paper's experiments use n in [10, 1000].
SAMPLE_SIZE_BUCKETS = exponential_buckets(2.0, 2.0, 12)
# Drift observed at each rolling-sum re-sum (see repro.streams.rolling):
# compensated sums typically drift < 1e-12 absolute, so the buckets
# reach down to 1e-18 — a drift in the upper decades flags a kernel bug.
ROLLING_DRIFT_BUCKETS = exponential_buckets(1e-18, 10.0, 20)
# Sketch synopsis error (value units folded into the CI): tiny for
# well-provisioned sketches, so the decades reach down to 1e-6.
SYNOPSIS_ERROR_BUCKETS = exponential_buckets(1e-6, 10.0**0.5, 16)
# Monte-Carlo draws consumed per emitted accuracy record: the adaptive
# bootstrap escalates in powers of two from small pilot rounds.
DRAWS_USED_BUCKETS = exponential_buckets(8.0, 2.0, 12)


class OperatorMetrics:
    """Everything one operator records: counts, timings, distributions.

    ``accuracy_attribute`` enables the interval-width/sample-size
    histograms: each emitted tuple's attribute of that name is inspected
    — an :class:`AccuracyInfo` contributes its mean-interval width
    directly, while a :class:`DfSized` distribution with a usable sample
    size contributes its Lemma-2 mean interval at ``confidence``.
    """

    __slots__ = (
        "name",
        "tuples_in",
        "tuples_out",
        "batch_seconds",
        "flush_seconds",
        "batch_sizes",
        "accuracy_attribute",
        "confidence",
        "interval_widths",
        "sample_sizes",
        "synopsis_errors",
        "draws_used",
        "unsure",
        "rolling_resums",
        "rolling_drift",
        "memory",
        "state_bytes",
        "_registry",
    )

    def __init__(
        self,
        registry: MetricsRegistry,
        name: str,
        accuracy_attribute: str | None = None,
        confidence: float = 0.95,
        rolling: bool = False,
        memory: bool = False,
    ) -> None:
        self.name = name
        self.tuples_in = registry.counter(
            f"{name}.tuples_in", "tuples received by the operator"
        )
        self.tuples_out = registry.counter(
            f"{name}.tuples_out", "tuples emitted downstream"
        )
        self.batch_seconds = registry.timer(
            f"{name}.batch_seconds",
            "wall time per receive_many() call (inclusive of downstream)",
        )
        self.flush_seconds = registry.timer(
            f"{name}.flush_seconds", "wall time spent draining on flush"
        )
        self.batch_sizes = registry.histogram(
            f"{name}.batch_size",
            BATCH_SIZE_BUCKETS,
            "input batch size distribution",
        )
        self.accuracy_attribute = accuracy_attribute
        self.confidence = confidence
        if accuracy_attribute is not None:
            self.interval_widths = registry.histogram(
                f"{name}.interval_width",
                INTERVAL_WIDTH_BUCKETS,
                f"emitted CI width of {accuracy_attribute!r} "
                f"(mean interval at {confidence:g} confidence)",
            )
            self.sample_sizes = registry.histogram(
                f"{name}.sample_size",
                SAMPLE_SIZE_BUCKETS,
                f"de facto sample size of emitted {accuracy_attribute!r}",
            )
            self.synopsis_errors = registry.histogram(
                f"{name}.synopsis_error",
                SYNOPSIS_ERROR_BUCKETS,
                f"sketch synopsis error folded into emitted "
                f"{accuracy_attribute!r} intervals",
            )
            self.draws_used = registry.histogram(
                f"{name}.draws_used",
                DRAWS_USED_BUCKETS,
                f"Monte-Carlo draws behind emitted {accuracy_attribute!r}",
            )
            self.unsure = registry.counter(
                f"{name}.interval_width.unsure",
                "emitted accuracy records whose CI width was missing or "
                "non-finite (e.g. keep_unsure passthroughs)",
            )
        else:
            self.interval_widths = None
            self.sample_sizes = None
            self.synopsis_errors = None
            self.draws_used = None
            self.unsure = None
        if rolling:
            self.rolling_resums = registry.counter(
                f"{name}.rolling.resums",
                "drift-guard exact re-sums of the rolling window sums",
            )
            self.rolling_drift = registry.histogram(
                f"{name}.rolling.drift",
                ROLLING_DRIFT_BUCKETS,
                "absolute drift of the compensated sums at each re-sum",
            )
        else:
            self.rolling_resums = None
            self.rolling_drift = None
        # The state gauge is created lazily on the first report so a
        # registry snapshot distinguishes "never reported" (no gauge,
        # rendered as '-') from "reported zero bytes".
        self.memory = memory
        self.state_bytes = None
        self._registry = registry if memory else None

    def record_state_bytes(self, value: float) -> None:
        """Sample the operator's retained bytes (creates the gauge)."""
        gauge = self.state_bytes
        if gauge is None:
            gauge = self._registry.gauge(
                f"{self.name}.state.bytes",
                "approximate retained operator state, sampled on flush",
            )
            self.state_bytes = gauge
        gauge.set(value)

    def observe_accuracy(self, tup) -> None:
        """Record interval width + sample size of one emitted tuple.

        An accuracy record whose mean-interval width is missing or
        non-finite (``keep_unsure`` passthroughs carry intervals with
        infinite bounds, whose length is inf — or nan when both bounds
        are infinite) counts in the dedicated ``interval_width.unsure``
        counter instead of raising from ``Histogram.observe`` or being
        silently skipped.
        """
        value = tup.attributes.get(self.accuracy_attribute)
        if isinstance(value, AccuracyInfo):
            interval = value.mean
            width = None if interval is None else interval.length
            size = value.sample_size
            if value.synopsis_error > 0.0:
                self.synopsis_errors.observe(value.synopsis_error)
            if value.draws_used > 0:
                self.draws_used.observe(value.draws_used)
        elif (
            isinstance(value, DfSized)
            and value.sample_size is not None
            and value.sample_size >= 2
        ):
            dist = value.distribution
            width = mean_interval(
                dist.mean(), dist.std(), value.sample_size, self.confidence
            ).length
            size = value.sample_size
        else:
            return
        if width is not None and math.isfinite(width):
            self.interval_widths.observe(width)
        else:
            self.unsure.inc()
        self.sample_sizes.observe(size)


def _stage_sort_key(op_id: str) -> tuple:
    """Sort key ordering operator ids by *numeric* stage index.

    Operator ids look like ``{prefix}.{index}.{ClassName}``; comparing
    the raw string orders stage 10 before stage 2 whenever the index is
    not zero-padded (and even padded ids break at >= 100 stages).  Each
    dotted segment compares as an integer when it is one, keeping
    pipeline prefixes grouped and stages in execution order.
    """
    return tuple(
        (0, int(segment), "") if segment.isdigit() else (1, 0, segment)
        for segment in op_id.split(".")
    )


def operator_rows(
    snapshot: "dict[str, dict[str, object]] | MetricsRegistry",
) -> list[dict[str, object]]:
    """Group a registry snapshot into one summary row per operator.

    Recognises the ``{operator id}.{metric}`` names written by
    :class:`OperatorMetrics` and derives selectivity (out/in) plus
    self-time: in a linear push pipeline each operator's timers include
    all downstream work, so ``self = inclusive - next stage's inclusive``
    for adjacent stages of the same pipeline prefix.
    """
    if isinstance(snapshot, MetricsRegistry):
        snapshot = snapshot.snapshot()
    per_op: dict[str, dict[str, object]] = {}
    for name, state in snapshot.items():
        op_id, _, metric = name.rpartition(".")
        if not op_id:
            continue
        if metric == "bytes" and op_id.endswith(".state"):
            # ``{op}.state.bytes`` belongs to the parent operator row,
            # not a phantom ``{op}.state`` operator.
            op_id, metric = op_id[: -len(".state")], "state_bytes"
        elif metric == "unsure" and op_id.endswith(".interval_width"):
            # ``{op}.interval_width.unsure`` likewise folds into the
            # operator that owns the interval-width histogram.
            op_id = op_id[: -len(".interval_width")]
            metric = "interval_width_unsure"
        bucket = per_op.setdefault(op_id, {})
        bucket[metric] = state
    rows: list[dict[str, object]] = []
    for op_id, metrics in per_op.items():
        if "tuples_in" not in metrics or "tuples_out" not in metrics:
            continue  # not an operator bundle
        tuples_in = metrics["tuples_in"]["value"]
        tuples_out = metrics["tuples_out"]["value"]
        batch = metrics.get("batch_seconds", {})
        flush = metrics.get("flush_seconds", {})
        calls = batch.get("count", 0)
        inclusive = batch.get("total_seconds", 0.0) + flush.get(
            "total_seconds", 0.0
        )
        row: dict[str, object] = {
            "operator": op_id,
            "tuples_in": tuples_in,
            "tuples_out": tuples_out,
            "selectivity": (
                tuples_out / tuples_in if tuples_in else float("nan")
            ),
            "calls": calls,
            "inclusive_seconds": inclusive,
        }
        widths = metrics.get("interval_width")
        if widths is not None and widths.get("count"):
            row["interval_width_mean"] = widths["mean"]
            row["interval_width_max"] = widths["max"]
        sizes = metrics.get("sample_size")
        if sizes is not None and sizes.get("count"):
            row["sample_size_min"] = sizes["min"]
        unsure = metrics.get("interval_width_unsure")
        if unsure is not None and unsure.get("value"):
            row["unsure"] = unsure["value"]
        # A ``state.bytes`` gauge only exists once the operator actually
        # reported (it is created lazily by ``record_state_bytes``), so
        # a missing key here renders as '-' rather than a misleading 0.
        state = metrics.get("state_bytes")
        if state is not None:
            row["state_bytes"] = state["value"]
        rows.append(row)
    rows.sort(key=lambda r: _stage_sort_key(str(r["operator"])))
    # Self-time: subtract the next stage's inclusive time within the
    # same pipeline prefix (rows are in numeric stage order).
    for current, following in zip(rows, rows[1:]):
        cur_prefix = str(current["operator"]).rpartition(".")[0]
        next_prefix = str(following["operator"]).rpartition(".")[0]
        cur_prefix = cur_prefix.rpartition(".")[0]
        next_prefix = next_prefix.rpartition(".")[0]
        current["self_seconds"] = current["inclusive_seconds"]
        if cur_prefix == next_prefix:
            current["self_seconds"] = max(
                0.0,
                current["inclusive_seconds"]
                - following["inclusive_seconds"],
            )
    if rows:
        rows[-1]["self_seconds"] = rows[-1]["inclusive_seconds"]
    return rows
