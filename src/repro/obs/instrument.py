"""The :class:`Observer` handle, per-operator handles and snapshot helpers.

An :class:`Observer` is attached once to a pipeline or database.  Each
operator of an observed pipeline then holds one :class:`OperatorObserver`,
which pre-registers every metric the operator hooks update, so the hot
path does plain attribute access — no dict lookups per tuple.

The metric names are hierarchical: ``{operator id}.{metric}``, where the
operator id is ``{prefix}.{index:02d}.{ClassName}`` as assigned by
:meth:`Pipeline.attach`.  :func:`operator_rows` groups a registry
snapshot back into one row per operator for tabular reporting
(:func:`repro.experiments.harness.render_metrics_table`).
"""

from __future__ import annotations

import math
from time import perf_counter

from repro.core.accuracy import AccuracyInfo
from repro.core.analytic import mean_interval
from repro.core.dfsample import DfSized
from repro.errors import ObservabilityError
from repro.obs.metrics import MetricsRegistry, exponential_buckets
from repro.obs.timeseries import TelemetryConfig, TelemetryRecorder
from repro.obs.trace import Span, TraceConfig, Tracer

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "INTERVAL_WIDTH_BUCKETS",
    "SAMPLE_SIZE_BUCKETS",
    "ROLLING_DRIFT_BUCKETS",
    "SYNOPSIS_ERROR_BUCKETS",
    "DRAWS_USED_BUCKETS",
    "Observer",
    "OperatorObserver",
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


class Observer:
    """The one observability handle a pipeline or database records into.

    It always holds a :class:`~repro.obs.metrics.MetricsRegistry`
    (:attr:`metrics`).  ``trace`` adds a :class:`~repro.obs.trace.Tracer`
    (:attr:`tracer`: run/stage/batch spans, plus accuracy provenance when
    the config asks for it); ``frames`` adds a
    :class:`~repro.obs.timeseries.TelemetryRecorder` (:attr:`frames`)
    built on :attr:`metrics`, so frames always diff the registry the
    operators write to.  Either part is ``None`` when its config is.

    :meth:`snapshot` / :meth:`merge` ship an observer across a process
    boundary: a sharded run records each shard into a worker observer
    and merges the snapshots home in shard order.
    """

    def __init__(
        self,
        trace: TraceConfig | None = None,
        frames: TelemetryConfig | None = None,
    ) -> None:
        self.frames = None if frames is None else TelemetryRecorder(frames)
        self.metrics = (
            MetricsRegistry() if self.frames is None else self.frames.registry
        )
        self.tracer = None if trace is None else Tracer(trace)

    def snapshot(self) -> dict[str, object]:
        """Plain-dict state of every part, for shipping across processes."""
        tracer, frames = self.tracer, self.frames
        return {
            "metrics": self.metrics.snapshot(),
            "spans": None if tracer is None else tracer.snapshot(),
            "frames": None if frames is None else frames.snapshot(),
        }

    def merge(self, snapshot: dict[str, object]) -> None:
        """Fold another observer's :meth:`snapshot` into this one.

        The order is fixed: metrics merge, then the frame series folds
        and re-baselines against the merged registry (so the next local
        frame does not count the merged-in history), then spans.  Call
        once per shard, in shard order.
        """
        for part, mine in (("spans", self.tracer), ("frames", self.frames)):
            if (snapshot.get(part) is None) != (mine is None):
                raise ObservabilityError(
                    f"observer snapshot and observer disagree on {part}: "
                    f"build both from the same configs"
                )
        self.metrics.merge_snapshot(snapshot["metrics"])  # type: ignore[arg-type]
        if self.frames is not None:
            self.frames.merge_snapshot(snapshot["frames"])  # type: ignore[arg-type]
            self.frames.resync()
        if self.tracer is not None:
            self.tracer.merge_spans(snapshot["spans"])  # type: ignore[arg-type]


class OperatorObserver:
    """Everything one operator records: counts, timings, distributions,
    and — when the observer traces — its stage and batch spans.

    The operator hooks call :meth:`receive_many`, :meth:`emit_many` and
    :meth:`flush` only when an observer is attached; every metric is
    pre-registered so the hot path does plain attribute access.  The
    stage span's ``tuples_in``/``tuples_out``/``calls``/``seconds`` are
    the per-run deltas of the same counters and timers.

    ``accuracy_attribute`` enables the interval-width/sample-size
    histograms (and provenance records): each emitted tuple's attribute
    of that name is inspected — an :class:`AccuracyInfo` contributes its
    mean-interval width directly, while a :class:`DfSized` distribution
    with a usable sample size contributes its Lemma-2 mean interval at
    ``confidence``.
    """

    __slots__ = (
        "name",
        "index",
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
        "tracer",
        "stage_span",
        "_stage_base",
        "_registry",
    )

    def __init__(
        self,
        observer: Observer,
        name: str,
        index: int = 0,
        accuracy_attribute: str | None = None,
        confidence: float = 0.95,
        rolling: bool = False,
        memory: bool = False,
    ) -> None:
        registry = observer.metrics
        self.name = name
        self.index = index
        self.tracer = observer.tracer
        self.stage_span: Span | None = None
        self._stage_base = (0, 0, 0, 0.0)
        self._registry = registry
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
        self.memory = memory

    # -- run lifecycle (driven by Pipeline) -----------------------------

    def _stage_counts(self) -> tuple[int, int, int, float]:
        batch = self.batch_seconds
        return (
            self.tuples_in.value,
            self.tuples_out.value,
            batch.count,
            batch.total + self.flush_seconds.total,
        )

    def start_stage(self, run_span: Span) -> None:
        """Open this operator's stage span for one pipeline run."""
        self._stage_base = self._stage_counts()
        self.stage_span = self.tracer.begin(  # type: ignore[union-attr]
            self.name,
            kind="stage",
            parent=run_span,
            attrs={"stage_index": self.index},
        )

    def end_stage(self) -> None:
        """Close the stage span as a summary: duration = inclusive time."""
        span = self.stage_span
        if span is None:
            return
        tuples_in, tuples_out, calls, seconds = (
            now - base
            for now, base in zip(self._stage_counts(), self._stage_base)
        )
        self.tracer.end(  # type: ignore[union-attr]
            span,
            end=span.start + seconds,
            tuples_in=tuples_in,
            tuples_out=tuples_out,
            calls=calls,
            batches=calls,
        )
        self.stage_span = None

    # -- hot-path hooks (driven by Operator) ----------------------------

    def receive_many(self, operator, tuples) -> None:
        """Run ``operator.process_many(tuples)``, recording the call."""
        size = len(tuples)
        self.tuples_in.inc(size)
        self.batch_sizes.observe(size)
        tracer = self.tracer
        span = None
        if tracer is not None:
            out_before = self.tuples_out.value
            span = tracer.begin_batch(
                f"{self.name}.batch",
                parent=self.stage_span,
                attrs={"stage_index": self.index, "batch_size": size},
            )
        start = perf_counter()
        try:
            operator.process_many(tuples)
        finally:
            self.batch_seconds.record(perf_counter() - start)
            if span is not None:
                tracer.end(span, emitted=self.tuples_out.value - out_before)

    def emit_many(self, operator, tuples) -> None:
        """Count an emitted batch; record its accuracy and provenance.

        The accuracy attribute is read as one column: a
        :class:`~repro.streams.columnar.ColumnarBatch` (the only batch
        with a ``column`` method) hands over its column values without
        materializing rows.  Rows are materialized only for a tracer
        that records provenance.
        """
        self.tuples_out.inc(len(tuples))
        attribute = self.accuracy_attribute
        if attribute is None:
            return
        column_of = getattr(tuples, "column", None)
        if column_of is None:
            values = [tup.attributes.get(attribute) for tup in tuples]
        else:
            column = column_of(attribute)
            values = [None] * len(tuples) if column is None else column.values()
        observe = self.observe_value
        for value in values:
            observe(value)
        tracer = self.tracer
        if tracer is not None and tracer.provenance is not None:
            record = tracer.provenance.record
            for tup in tuples:
                record(self, operator, tup)

    def flush(self, operator) -> None:
        """Run ``operator.on_flush()`` timed; sample its retained state."""
        start = perf_counter()
        try:
            operator.on_flush()
        finally:
            self.flush_seconds.record(perf_counter() - start)
        if self.memory:
            retained = operator.state_bytes()
            if retained is not None:
                self.record_state_bytes(retained)

    def counter(self, metric: str, help: str = ""):
        """The operator's own ``{name}.{metric}`` counter (get-or-create)."""
        return self._registry.counter(f"{self.name}.{metric}", help)

    def record_state_bytes(self, value: float) -> None:
        """Sample the operator's retained bytes.

        The gauge is created on the first report, so a snapshot tells
        "never reported" (no gauge, rendered as '-') from zero bytes.
        """
        self._registry.gauge(
            f"{self.name}.state.bytes",
            "approximate retained operator state, sampled on flush",
        ).set(value)

    def observe_accuracy(self, tup) -> None:
        """Record interval width + sample size of one emitted tuple."""
        self.observe_value(tup.attributes.get(self.accuracy_attribute))

    def observe_value(self, value) -> None:
        """Record interval width + sample size of one accuracy value.

        An accuracy record whose mean-interval width is missing or
        non-finite (``keep_unsure`` passthroughs carry intervals with
        infinite bounds, whose length is inf — or nan when both bounds
        are infinite) counts in the dedicated ``interval_width.unsure``
        counter instead of raising from ``Histogram.observe`` or being
        silently skipped.
        """
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
    :class:`OperatorObserver` and derives selectivity (out/in) plus
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
