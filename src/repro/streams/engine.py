"""Pipeline assembly and execution.

A :class:`Pipeline` chains operators into a linear push pipeline, runs a
tuple source through it, and flushes buffered state at end-of-stream.

Passing a :class:`~repro.obs.metrics.MetricsRegistry` (``registry=`` or
:meth:`Pipeline.attach_metrics`) turns on per-operator observability:
each operator records tuples in/out, wall time, batch sizes, and —
for accuracy-producing operators — emitted confidence-interval widths;
the pipeline itself records runs, tuples pushed, and end-to-end wall
time.  With no registry the execution paths are unchanged.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import islice
from time import perf_counter
from typing import TYPE_CHECKING

from repro.errors import StreamError
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TelemetryRecorder
from repro.obs.trace import Span, Tracer
from repro.streams.columnar import ColumnarBatch, as_columnar
from repro.streams.operators import CountingSink, Operator
from repro.streams.tuples import UncertainTuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.parallel.pool import WorkerPool

__all__ = ["Pipeline"]


def _chunked(
    source: Iterable[UncertainTuple], size: int
) -> Iterator[list[UncertainTuple]]:
    """Consecutive lists of ``size`` tuples (the last may be shorter)."""
    iterator = iter(source)
    while batch := list(islice(iterator, size)):
        yield batch


class Pipeline:
    """A linear chain of operators ending in a sink.

    The last operator is conventionally a sink (:class:`CollectSink` or
    :class:`CountingSink`), but any operator chain works — tuples emitted
    by the final operator simply vanish if it has no terminal behaviour.
    """

    def __init__(
        self,
        operators: Sequence[Operator],
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        telemetry: TelemetryRecorder | None = None,
    ) -> None:
        if not operators:
            raise StreamError("pipeline needs at least one operator")
        self.operators = list(operators)
        for upstream, downstream in zip(self.operators, self.operators[1:]):
            upstream.connect(downstream)
        self.registry: MetricsRegistry | None = None
        self._metrics_prefix = "pipeline"
        self.tracer: Tracer | None = None
        self._trace_prefix = "pipeline"
        self.telemetry: TelemetryRecorder | None = None
        if registry is not None:
            self.attach_metrics(registry)
        if tracer is not None:
            self.attach_trace(tracer)
        if telemetry is not None:
            self.attach_telemetry(telemetry)

    def attach_metrics(
        self, registry: MetricsRegistry, prefix: str = "pipeline"
    ) -> MetricsRegistry:
        """Record this pipeline's execution into ``registry``.

        Operators get metric names ``{prefix}.{index:02d}.{ClassName}.*``
        so a registry shared across pipelines (or across configurations
        of the same experiment) keeps every stage distinguishable.
        """
        self.registry = registry
        self._metrics_prefix = prefix
        for index, op in enumerate(self.operators):
            name = f"{prefix}.{index:02d}.{type(op).__name__.lstrip('_')}"
            op.attach_metrics(registry, name)
        self._runs = registry.counter(
            f"{prefix}.runs", "completed run()/run_batched() calls"
        )
        self._tuples_pushed = registry.counter(
            f"{prefix}.tuples", "source tuples pushed into the pipeline"
        )
        self._run_seconds = registry.timer(
            f"{prefix}.run_seconds", "end-to-end wall time per run"
        )
        return registry

    def detach_metrics(self) -> None:
        """Stop recording metrics on this pipeline and its operators."""
        self.registry = None
        for op in self.operators:
            op.detach_metrics()
        for attribute in ("_runs", "_tuples_pushed", "_run_seconds"):
            if hasattr(self, attribute):
                delattr(self, attribute)

    def attach_trace(
        self, tracer: Tracer, prefix: str = "pipeline"
    ) -> Tracer:
        """Record this pipeline's spans into ``tracer``.

        Stage spans get the same ``{prefix}.{index:02d}.{ClassName}``
        names as metrics, so traces and metric tables line up.
        """
        self.tracer = tracer
        self._trace_prefix = prefix
        for index, op in enumerate(self.operators):
            name = f"{prefix}.{index:02d}.{type(op).__name__.lstrip('_')}"
            op.attach_trace(tracer, name, index)
        return tracer

    def detach_trace(self) -> None:
        """Stop recording spans on this pipeline and its operators."""
        self.tracer = None
        for op in self.operators:
            op.detach_trace()

    def attach_telemetry(
        self, recorder: TelemetryRecorder, prefix: str = "pipeline"
    ) -> TelemetryRecorder:
        """Cut frame-series telemetry from this pipeline's execution.

        Telemetry rides on metrics: if the recorder wraps a different
        registry than the one currently attached (or none is attached),
        the recorder's registry is attached under ``prefix`` — so an
        attached recorder always observes this pipeline's own metrics.
        The run loops then advance the recorder's stream position per
        pushed tuple/batch and finalize the trailing frame at
        end-of-run.  With no recorder attached the execution paths are
        untouched (telemetry is only ever consulted on the instrumented
        branch that an attached registry already selects).
        """
        self.telemetry = recorder
        if self.registry is not recorder.registry:
            self.attach_metrics(recorder.registry, prefix)
        return recorder

    def detach_telemetry(self) -> None:
        """Stop cutting frames (the metrics registry stays attached)."""
        self.telemetry = None

    def _begin_run(self, mode: str) -> Span:
        """Open the run span and every operator's stage span."""
        span = self.tracer.begin(
            f"{self._trace_prefix}.{mode}", kind="run"
        )
        for op in self.operators:
            handle = op._trace
            if handle is not None:
                handle.start_stage(span)
        return span

    def _end_run(self, span: Span, count: int) -> None:
        """Close every stage span (as inclusive-time summaries) + run."""
        for op in self.operators:
            handle = op._trace
            if handle is not None:
                handle.end_stage()
        self.tracer.end(span, tuples=count)

    @property
    def metrics_prefix(self) -> str:
        """Metric-name prefix from the last :meth:`attach_metrics` call."""
        return self._metrics_prefix

    @property
    def trace_prefix(self) -> str:
        """Span-name prefix from the last :meth:`attach_trace` call."""
        return self._trace_prefix

    @property
    def head(self) -> Operator:
        return self.operators[0]

    @property
    def sink(self) -> Operator:
        return self.operators[-1]

    def push(self, tup: UncertainTuple) -> None:
        """Feed one tuple into the pipeline, as a one-row batch."""
        self.push_many([tup])

    def push_many(self, tuples: Sequence[UncertainTuple]) -> None:
        """Feed a batch of tuples into the pipeline."""
        if tuples:
            self.head.receive_many(tuples)

    def run(self, source: Iterable[UncertainTuple]) -> Operator:
        """Push every tuple from the source, flush, and return the sink.

        Each tuple travels as a one-row batch:
        ``run_batched(source, batch_size=1)``.
        """
        return self._run(source, 1, "run")

    def run_batched(
        self,
        source: Iterable[UncertainTuple],
        batch_size: int = 256,
    ) -> Operator:
        """Like :meth:`run`, but push tuples in batches of ``batch_size``.

        Operators amortize per-tuple dispatch and vectorize accuracy
        computation across the batch; outputs keep arrival order, so
        the sink contents match :meth:`run` (the adaptive bootstrap of
        the Fig 5(c) experiment is the exception: its escalation rounds
        span a batch, so its draws depend on the batch size).

        With ``batch_size > 1``, uniform-layout sequence sources are
        columnarized up front
        (:class:`~repro.streams.columnar.ColumnarBatch`) so batches are
        zero-copy column slices and operators consume columns directly;
        non-uniform layouts and plain iterables keep the tuple-list
        batching.
        """
        return self._run(source, batch_size, "run_batched")

    def _run(
        self, source: Iterable[UncertainTuple], batch_size: int, mode: str
    ) -> Operator:
        """The one run loop behind :meth:`run` and :meth:`run_batched`."""
        if batch_size < 1:
            raise StreamError(f"batch size must be >= 1, got {batch_size}")
        if batch_size > 1 and isinstance(source, Sequence):
            columnar = as_columnar(source)
            if columnar is not None:
                source = columnar
        if batch_size == 1:
            batches: Iterable[Sequence[UncertainTuple]] = (
                [tup] for tup in source
            )
        elif isinstance(source, ColumnarBatch):
            total = len(source)
            batches = (
                source.slice(a, min(a + batch_size, total))
                for a in range(0, total, batch_size)
            )
        else:
            batches = _chunked(source, batch_size)
        head = self.head
        receive = head.receive_many
        registry = self.registry
        tracer = self.tracer
        telemetry = self.telemetry
        if registry is None and tracer is None and telemetry is None:
            for batch in batches:
                receive(batch)
            head.flush()
            return self.sink
        run_span = self._begin_run(mode) if tracer is not None else None
        count = 0
        start = perf_counter()
        try:
            for batch in batches:
                receive(batch)
                count += len(batch)
                if telemetry is not None:
                    telemetry.advance(len(batch))
            head.flush()
            if registry is not None:
                self._run_seconds.record(perf_counter() - start)
                self._tuples_pushed.inc(count)
                self._runs.inc()
        finally:
            # A run that raises still closes its spans and cuts its
            # trailing telemetry frame.
            if telemetry is not None:
                telemetry.finalize()
            if tracer is not None:
                self._end_run(run_span, count)
        return self.sink

    def run_sharded(
        self,
        source: Iterable[UncertainTuple],
        partition_by: str,
        pool: "WorkerPool",
        batch_size: int = 256,
    ) -> Operator:
        """Run keyed shards on ``pool``; the sink ends as :meth:`run_batched`'s.

        The input is hash-partitioned by the ``partition_by`` attribute
        into one shard per pool worker; each shard runs through this
        pipeline (pickled once, observers detached) via
        :meth:`run_batched` in a worker process.  The per-shard sinks —
        plus per-worker metrics, trace and telemetry snapshots, when
        attached — merge back into *this* pipeline's sink and
        observers, so the sink contents equal :meth:`run_batched`'s
        element for element at any worker count.

        Otherwise the call raises instead:

        * :class:`StreamError`, before anything is pickled, when an
          operator's declared ``partition_key`` is not ``ANY_PARTITION``
          or ``partition_by`` (a global window, a rolling learner, a
          TTL'd, flush-only or differently keyed ``GroupedAggregate``,
          an undeclared operator), or the sink is not a :class:`CollectSink` /
          :class:`CountingSink`;
        * :class:`~repro.errors.ParallelError`, before any shard runs,
          when the pipeline cannot pickle or a stage ahead of a
          ``CollectSink`` may drop tuples (a filter), whose order the
          merge could not restore.

        The caller owns ``pool`` (a long-lived
        :class:`~repro.parallel.pool.WorkerPool`) and reuses it across
        calls.  See ``docs/PARALLELISM.md``.
        """
        from repro.parallel.sharded import run_sharded as _run_sharded

        result = _run_sharded(self, source, partition_by, pool, batch_size)
        sink = self.sink
        if isinstance(sink, CountingSink):
            sink.count += result.merged_count()
        else:
            # process_many stores the merged chunk as received, keeping
            # a columnar merge columnar in the parent sink.
            sink.process_many(result.merged_results())
        if self.registry is not None:
            result.merge_metrics(self.registry)
        if self.telemetry is not None:
            # After merge_metrics: merge_telemetry re-baselines the
            # recorder against the post-merge cumulative registry.
            result.merge_telemetry(self.telemetry)
        if self.tracer is not None:
            result.merge_trace(self.tracer)
        return sink
