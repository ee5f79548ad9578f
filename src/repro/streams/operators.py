"""Push-based stream operators.

Operators form a linear pipeline (fan-in/fan-out are expressed by running
several pipelines over the same source).  Each operator receives a batch
of tuples, does its work, and pushes zero or more tuples downstream as
one batch; ``flush`` propagates end-of-stream so windowed operators can
drain.  A single tuple travels as a one-row batch.

The two filters embody the paper's two predicate styles:

* :class:`ProbabilisticFilter` — classic probability-threshold semantics:
  the tuple's membership probability is multiplied by P[predicate].
* :class:`SignificanceFilter` — the paper's significance predicates with
  coupled error-rate control (§IV): TRUE keeps the tuple, FALSE drops it,
  and UNSURE is kept or dropped by policy.
"""

from __future__ import annotations

import abc
import math
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from time import perf_counter

import numpy as np

# Not called here since the learners build their emissions per batch;
# the name stays importable from this module because perfbench's layer
# spans wrap it.
from repro.core.analytic import accuracy_from_moments  # noqa: F401
from repro.core.coupled import ThreeValued, coupled_tests
from repro.core.dfsample import DfSized
from repro.core.predicates import SignificancePredicate
from repro.distributions.gaussian import GaussianDistribution
from repro.errors import StreamError
from repro.obs.instrument import OperatorMetrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import OperatorTrace, Tracer
from repro.streams.columnar import (
    EXACT_SIZE,
    ColumnarBatch,
    GaussianDfColumn,
    _infer_column,
    as_columnar,
)
from repro.streams.rolling import DEFAULT_RESUM_INTERVAL, RollingWindowStats
from repro.streams.tuples import UncertainTuple
from repro.streams.windows import CountWindow

__all__ = [
    "ANY_PARTITION",
    "Operator",
    "Select",
    "Project",
    "Derive",
    "ProbabilisticFilter",
    "SignificanceFilter",
    "SlidingGaussianAverage",
    "WindowAggregate",
    "TimeWindowAggregate",
    "RollingLearnOperator",
    "CollectSink",
    "CountingSink",
]


#: :attr:`Operator.partition_key` of an operator that keeps no state
#: across tuples, so any partition of the stream gives the same answer.
ANY_PARTITION = "*"


class Operator(abc.ABC):
    """Base class: process batches, push results to the downstream operator.

    Entry points (:meth:`receive_many`, :meth:`emit_many`, :meth:`flush`)
    double as observability hooks: when a
    :class:`~repro.obs.metrics.MetricsRegistry` is attached (via
    :meth:`attach_metrics`, usually through ``Pipeline(registry=...)``)
    they record tuples in/out, wall time per call, and batch sizes.  With
    no registry attached each hook is a single attribute check, so the
    uninstrumented hot path is unchanged.

    Subclasses implement :meth:`process_many` (one batch: a tuple list
    or a :class:`~repro.streams.columnar.ColumnarBatch`) and hand their
    output to :meth:`emit_many` — not the ``receive_many`` entry point,
    which owns the instrumentation.
    """

    #: Attribute whose accuracy the operator reports on emitted tuples
    #: (an :class:`~repro.core.accuracy.AccuracyInfo` or a
    #: :class:`~repro.core.dfsample.DfSized`).  ``None`` disables the
    #: interval-width/sample-size histograms.
    accuracy_attribute: str | None = None

    #: Set by operators holding drift-guarded rolling state
    #: (:mod:`repro.streams.rolling`): registers the per-operator
    #: ``rolling.resums`` counter and ``rolling.drift`` histogram and
    #: triggers :meth:`_sync_rolling_metrics` on attach/detach.
    rolling_metrics: bool = False

    #: Set by operators with meaningful retained state: registers the
    #: per-operator ``state.bytes`` gauge, sampled from
    #: :meth:`state_bytes` on every :meth:`flush` (opt-in, like
    #: ``rolling_metrics``, so stateless operators pay nothing).
    memory_metrics: bool = False

    #: What a shard of this operator must see for
    #: :meth:`~repro.streams.engine.Pipeline.run_sharded` to return the
    #: batched answer: :data:`ANY_PARTITION` (stateless), an attribute
    #: name (every tuple carrying a value of that key), or ``None`` — the
    #: whole stream in arrival order, which sharding refuses.  ``None``
    #: is the default, so an undeclared subclass is never sharded.
    partition_key: str | None = None

    #: True when every input tuple yields exactly one output tuple, in
    #: order.  A sharded ``CollectSink`` merge restores input order from
    #: input positions, so it refuses pipelines with any stage that may
    #: drop tuples; ``False`` (may drop) is the default.
    one_output_per_input: bool = False

    def __init__(self) -> None:
        self._downstream: Operator | None = None
        self._obs: OperatorMetrics | None = None
        self._trace: OperatorTrace | None = None

    def connect(self, downstream: "Operator") -> "Operator":
        """Attach (and return) the downstream operator, enabling chaining."""
        self._downstream = downstream
        return downstream

    def attach_metrics(
        self, registry: MetricsRegistry, name: str | None = None
    ) -> OperatorMetrics:
        """Start recording this operator's metrics into ``registry``."""
        if name is None:
            name = type(self).__name__.lstrip("_")
        self._obs = OperatorMetrics(
            registry,
            name,
            self.accuracy_attribute,
            rolling=self.rolling_metrics,
            memory=self.memory_metrics,
        )
        self._sync_rolling_metrics()
        return self._obs

    def detach_metrics(self) -> None:
        """Stop recording metrics (already-recorded values are kept)."""
        self._obs = None
        self._sync_rolling_metrics()

    def attach_trace(
        self, tracer: Tracer, name: str | None = None, index: int = 0
    ) -> OperatorTrace:
        """Start recording this operator's spans into ``tracer``.

        Mirrors :meth:`attach_metrics`: the handle carries the stage
        name/index and the ``accuracy_attribute`` feeding provenance.
        """
        if name is None:
            name = type(self).__name__.lstrip("_")
        self._trace = OperatorTrace(
            tracer, name, index, self.accuracy_attribute
        )
        return self._trace

    def detach_trace(self) -> None:
        """Stop recording spans (already-recorded spans are kept)."""
        self._trace = None

    def trace_lineage(self, tup: UncertainTuple) -> dict[str, object] | None:
        """Accuracy lineage of one *emitted* tuple, for provenance.

        Accuracy-producing operators override this to report the named
        input sample sizes behind the emitted accuracy attribute and the
        Lemma-3 minimum that became the de facto size (usually via
        :func:`~repro.obs.provenance.lineage_from_operands`).  Must be a
        pure function of the emitted tuple — never of operator state —
        so every batch size records identical lineage.
        """
        return None

    def _sync_rolling_metrics(self) -> None:
        """Hook: bind/unbind drift-guard metrics on rolling kernels.

        Operators with ``rolling_metrics = True`` override this to call
        ``set_metrics`` on each rolling state they hold — binding when
        ``self._obs`` is set, unbinding otherwise.  Unbinding matters:
        sharded execution pickles the pipeline after detaching metrics
        (:func:`~repro.parallel.sharded.pipeline_payload`), and kernel
        state must never drag registry objects into worker processes.
        """

    def emit_many(self, tuples: Sequence[UncertainTuple]) -> None:
        """Push a whole batch downstream."""
        if not tuples:
            return
        obs = self._obs
        if obs is not None:
            obs.tuples_out.inc(len(tuples))
            if obs.accuracy_attribute is not None:
                observe = obs.observe_accuracy
                for tup in tuples:
                    observe(tup)
        trace = self._trace
        if trace is not None:
            trace.on_emit_many(self, tuples)
        if self._downstream is not None:
            self._downstream.receive_many(tuples)

    def receive_many(self, tuples: Sequence[UncertainTuple]) -> None:
        """Handle a batch of tuples (every ``Pipeline`` entry point)."""
        obs = self._obs
        trace = self._trace
        if obs is None and trace is None:
            self.process_many(tuples)
            return
        if obs is not None:
            obs.tuples_in.inc(len(tuples))
            obs.batch_sizes.observe(len(tuples))
        span = None
        out_before = 0
        if trace is not None:
            out_before = trace.tuples_out
            span = trace.begin_batch(len(tuples))
        start = perf_counter()
        try:
            self.process_many(tuples)
        finally:
            elapsed = perf_counter() - start
            if obs is not None:
                obs.batch_seconds.record(elapsed)
            if trace is not None:
                trace.seconds += elapsed
                trace.end_batch(span, trace.tuples_out - out_before)

    @abc.abstractmethod
    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        """Handle one input batch; pass the outputs to :meth:`emit_many`.

        Outputs keep arrival order: a stream cut into batches of any
        size reaches the sink in the same order.
        """

    def flush(self) -> None:
        """Propagate end-of-stream; override ``on_flush`` to drain state."""
        obs = self._obs
        trace = self._trace
        if obs is None and trace is None:
            self.on_flush()
        else:
            start = perf_counter()
            try:
                self.on_flush()
            finally:
                elapsed = perf_counter() - start
                if obs is not None:
                    obs.flush_seconds.record(elapsed)
                if trace is not None:
                    trace.seconds += elapsed
            if obs is not None and obs.memory:
                retained = self.state_bytes()
                if retained is not None:
                    obs.record_state_bytes(retained)
        if self._downstream is not None:
            self._downstream.flush()

    def on_flush(self) -> None:
        """Hook for subclasses with buffered state."""

    def state_bytes(self) -> int | None:
        """Approximate bytes of retained operator state, or ``None``.

        Operators with ``memory_metrics = True`` override this; the
        value is sampled into the ``{op}.state.bytes`` gauge on every
        :meth:`flush` (not per tuple — sizing state can be O(state)).
        """
        return None


class Select(Operator):
    """Keeps tuples for which ``predicate(tuple)`` is truthy."""

    partition_key = ANY_PARTITION

    def __init__(self, predicate: Callable[[UncertainTuple], bool]) -> None:
        super().__init__()
        self.predicate = predicate

    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        predicate = self.predicate
        if isinstance(tuples, ColumnarBatch):
            # The predicate is a black box, so rows materialize for the
            # test — but survivors stay columnar downstream.
            kept = [i for i, tup in enumerate(tuples) if predicate(tup)]
            if len(kept) == len(tuples):
                self.emit_many(tuples)
            else:
                self.emit_many(tuples.take(kept))
            return
        self.emit_many([tup for tup in tuples if predicate(tup)])


class Project(Operator):
    """Keeps only the named attributes."""

    partition_key = ANY_PARTITION
    one_output_per_input = True

    def __init__(self, names: Sequence[str]) -> None:
        super().__init__()
        if not names:
            raise StreamError("projection needs at least one attribute")
        self.names = tuple(names)

    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        names = self.names
        if isinstance(tuples, ColumnarBatch) and all(
            name in tuples.names for name in names
        ):
            self.emit_many(tuples.project(names))
            return
        # Missing attributes raise the canonical SchemaError.
        self.emit_many(
            [
                tup.with_attributes(
                    {name: tup.value(name) for name in names}
                )
                for tup in tuples
            ]
        )


class Derive(Operator):
    """Adds a computed attribute ``name = fn(tuple)``."""

    partition_key = ANY_PARTITION
    one_output_per_input = True

    def __init__(
        self, name: str, fn: Callable[[UncertainTuple], object]
    ) -> None:
        super().__init__()
        self.name = name
        self.fn = fn

    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        fn = self.fn
        if isinstance(tuples, ColumnarBatch):
            values = [fn(tup) for tup in tuples]
            self.emit_many(
                tuples.with_column(self.name, _infer_column(values))
            )
            return
        name = self.name
        out = []
        for tup in tuples:
            attributes = dict(tup.attributes)
            attributes[name] = fn(tup)
            out.append(tup.with_attributes(attributes))
        self.emit_many(out)


class ProbabilisticFilter(Operator):
    """Probability-threshold filtering (possible-world semantics).

    ``probability_fn(tuple)`` returns P[predicate holds] for the tuple; the
    output tuple's membership probability is scaled by it.  Tuples whose
    resulting probability falls below ``threshold`` are dropped (the
    default threshold 0 keeps every tuple with positive probability —
    plain possible-world semantics).
    """

    partition_key = ANY_PARTITION

    def __init__(
        self,
        probability_fn: Callable[[UncertainTuple], float],
        threshold: float = 0.0,
    ) -> None:
        super().__init__()
        if not 0.0 <= threshold <= 1.0:
            raise StreamError(
                f"probability threshold must be in [0,1], got {threshold}"
            )
        self.probability_fn = probability_fn
        self.threshold = threshold

    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        probability_fn = self.probability_fn
        threshold = self.threshold
        out = []
        for tup in tuples:
            q = float(probability_fn(tup))
            if not 0.0 <= q <= 1.0:
                raise StreamError(
                    f"predicate probability must be in [0,1], got {q}"
                )
            scaled = tup.scaled(q)
            if scaled.probability > threshold:
                out.append(scaled)
        self.emit_many(out)


class SignificanceFilter(Operator):
    """Filters by a significance predicate with coupled error-rate control.

    ``predicate_factory(tuple)`` binds the test to the tuple's fields; the
    coupled decision keeps TRUE tuples, drops FALSE ones, and treats UNSURE
    per ``keep_unsure``.  Decisions are counted for observability.
    """

    partition_key = ANY_PARTITION

    def __init__(
        self,
        predicate_factory: Callable[[UncertainTuple], SignificancePredicate],
        alpha1: float = 0.05,
        alpha2: float = 0.05,
        keep_unsure: bool = False,
    ) -> None:
        super().__init__()
        self.predicate_factory = predicate_factory
        self.alpha1 = alpha1
        self.alpha2 = alpha2
        self.keep_unsure = keep_unsure
        self.decisions: Counter[ThreeValued] = Counter()

    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        out = []
        for tup in tuples:
            predicate = self.predicate_factory(tup)
            value = coupled_tests(predicate, self.alpha1, self.alpha2).value
            self.decisions[value] += 1
            if value is ThreeValued.TRUE or (
                value is ThreeValued.UNSURE and self.keep_unsure
            ):
                out.append(tup)
        self.emit_many(out)


class SlidingGaussianAverage(Operator):
    """Count-based sliding-window AVG over a Gaussian attribute (§V-C).

    Maintains compensated running sums of the window members' means and
    variances (:class:`~repro.streams.rolling.RollingWindowStats`), so
    each arrival costs O(1) with drift-guarded accuracy; the result
    attribute is the exact Gaussian of the average of independent
    Gaussians, tagged with the window's minimum input sample size
    (Lemma 3: the d.f. sample size of the AVG).
    """

    rolling_metrics = True
    memory_metrics = True

    def __init__(
        self,
        attribute: str,
        window_size: int,
        output: str = "avg",
        emit_partial: bool = True,
        resum_interval: int = DEFAULT_RESUM_INTERVAL,
    ) -> None:
        super().__init__()
        if window_size < 1:
            raise StreamError(f"window size must be >= 1, got {window_size}")
        self.attribute = attribute
        self.window_size = window_size
        self.output = output
        self.accuracy_attribute = output
        self.emit_partial = emit_partial
        self._stats = RollingWindowStats(resum_interval)

    def _sync_rolling_metrics(self) -> None:
        obs = self._obs
        if obs is None:
            self._stats.set_metrics(None, None)
        else:
            self._stats.set_metrics(obs.rolling_resums, obs.rolling_drift)

    def _advance(self, tup: UncertainTuple) -> UncertainTuple | None:
        """Slide the window by one tuple; return the output tuple, if any."""
        field = tup.dfsized(self.attribute)
        dist = field.distribution
        if not isinstance(dist, GaussianDistribution):
            raise StreamError(
                f"SlidingGaussianAverage needs Gaussian attributes, got "
                f"{type(dist).__name__}"
            )
        stats = self._stats
        stats.push(dist.mu, dist.sigma2, field.sample_size)
        if stats.count > self.window_size:
            stats.evict_oldest()

        k = stats.count
        if k < self.window_size and not self.emit_partial:
            return None
        avg = GaussianDistribution(
            stats.mean_sum / k, stats.var_sum / (k * k)
        )
        attributes = dict(tup.attributes)
        attributes[self.output] = DfSized(avg, stats.df_size)
        return tup.with_attributes(attributes)

    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        if isinstance(tuples, ColumnarBatch):
            column = tuples.gaussian_column(self.attribute)
            if column is not None:
                self._advance_columns(tuples, column)
                return
        advance = self._advance
        self.emit_many(
            [out for out in map(advance, tuples) if out is not None]
        )

    def _advance_columns(
        self, batch: ColumnarBatch, column: GaussianDfColumn
    ) -> None:
        """Slide over ``(mu, sigma2, n)`` columns without materializing.

        The rolling sums are fed in arrival order (no vectorized
        re-association), so emitted values are bit-identical to the
        tuple-list path.
        """
        stats = self._stats
        window = self.window_size
        mus = column.mu.tolist()
        sigma2s = column.sigma2.tolist()
        sizes = column.sizes.tolist()
        out_mu: list[float] = []
        out_var: list[float] = []
        out_size: list[int] = []
        kept = None if self.emit_partial else []
        for i, mu in enumerate(mus):
            size = sizes[i]
            stats.push(mu, sigma2s[i], None if size == EXACT_SIZE else size)
            if stats.count > window:
                stats.evict_oldest()
            k = stats.count
            if kept is not None:
                if k < window:
                    continue
                kept.append(i)
            avg_mu = stats.mean_sum / k
            avg_var = stats.var_sum / (k * k)
            if avg_var < 0.0 or not (
                math.isfinite(avg_mu) and math.isfinite(avg_var)
            ):
                GaussianDistribution(avg_mu, avg_var)  # canonical error
            df = stats.df_size
            out_mu.append(avg_mu)
            out_var.append(avg_var)
            out_size.append(EXACT_SIZE if df is None else df)
        base = batch if kept is None else batch.take(kept)
        self.emit_many(
            base.with_column(
                self.output,
                GaussianDfColumn(
                    np.asarray(out_mu, dtype=np.float64),
                    np.asarray(out_var, dtype=np.float64),
                    np.asarray(out_size, dtype=np.int64),
                ),
            )
        )

    def state_bytes(self) -> int:
        return self._stats.nbytes

    def trace_lineage(self, tup: UncertainTuple) -> dict[str, object]:
        return _window_lineage(tup, self.attribute, self.output)


def _window_lineage(
    tup: UncertainTuple, attribute: str, output: str
) -> dict[str, object]:
    """Lineage of a windowed aggregate from the *emitted* tuple alone.

    The emitted tuple still carries the newest window member under
    ``attribute`` and the aggregate under ``output``, whose Lemma-3
    ``sample_size`` is the window's minimum — so the de facto size is
    readable without touching operator state (which would be stale for
    all but the last tuple of a batched ``emit_many``).
    """
    out = tup.attributes.get(output)
    df_size = out.sample_size if isinstance(out, DfSized) else None
    field = tup.attributes.get(attribute)
    newest = field.sample_size if isinstance(field, DfSized) else None
    return {
        "kind": "window",
        "inputs": {attribute: newest},
        "df_size": df_size,
        "min_input": (
            attribute
            if df_size is not None and newest == df_size
            else None
        ),
    }


_SCALAR_AGGS = ("avg", "sum", "count", "min", "max")


def _aggregate_value(stats: RollingWindowStats, agg: str) -> object:
    """Aggregate value of one window from its rolling statistics.

    Shared by :class:`WindowAggregate`, :class:`TimeWindowAggregate`,
    and :class:`~repro.streams.groupby.GroupedAggregate` — the moment
    algebra (sum/avg propagate mean and variance under independence,
    with the window's Lemma-3 minimum sample size) is identical across
    the three, only the eviction policy differs.
    """
    k = stats.count
    if agg == "count":
        return float(k)
    if agg == "min":
        return stats.min_mean
    if agg == "max":
        return stats.max_mean
    df_size = stats.df_size
    if agg == "sum":
        return DfSized(
            GaussianDistribution(stats.mean_sum, stats.var_sum), df_size
        )
    return DfSized(
        GaussianDistribution(stats.mean_sum / k, stats.var_sum / (k * k)),
        df_size,
    )


class WindowAggregate(Operator):
    """Generic count-based sliding aggregate over attribute means.

    Works on any distribution-valued or numeric attribute by aggregating
    the per-tuple expected values.  ``avg``/``sum`` additionally propagate
    variance (independence assumption), emitting a Gaussian approximation
    justified by the CLT for wide windows; ``min``/``max``/``count`` emit
    deterministic values.

    Every slide is O(1) amortized: sums are compensated running sums
    with a drift guard, ``min``/``max`` use monotonic deques, and the
    Lemma-3 minimum sample size is tracked by counter
    (:mod:`repro.streams.rolling`) — no per-tuple list rebuilds.
    """

    rolling_metrics = True
    memory_metrics = True

    def __init__(
        self,
        attribute: str,
        window_size: int,
        agg: str = "avg",
        output: str | None = None,
        resum_interval: int = DEFAULT_RESUM_INTERVAL,
    ) -> None:
        super().__init__()
        if agg not in _SCALAR_AGGS:
            raise StreamError(
                f"unknown aggregate {agg!r}; expected one of {_SCALAR_AGGS}"
            )
        if window_size < 1:
            raise StreamError(f"window size must be >= 1, got {window_size}")
        self.attribute = attribute
        self.window_size = window_size
        self.agg = agg
        self.output = output if output is not None else agg
        self.accuracy_attribute = self.output
        self._stats = RollingWindowStats(
            resum_interval, track_extrema=agg in ("min", "max")
        )

    def _sync_rolling_metrics(self) -> None:
        obs = self._obs
        if obs is None:
            self._stats.set_metrics(None, None)
        else:
            self._stats.set_metrics(obs.rolling_resums, obs.rolling_drift)

    def _advance(self, tup: UncertainTuple) -> UncertainTuple:
        """Slide the window by one tuple and build the aggregate tuple."""
        field = tup.dfsized(self.attribute)
        dist = field.distribution
        stats = self._stats
        stats.push(dist.mean(), dist.variance(), field.sample_size)
        if stats.count > self.window_size:
            stats.evict_oldest()
        attributes = dict(tup.attributes)
        attributes[self.output] = _aggregate_value(stats, self.agg)
        return tup.with_attributes(attributes)

    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        if isinstance(tuples, ColumnarBatch):
            column = tuples.gaussian_column(self.attribute)
            if column is not None:
                # Gaussian mean()/variance() are mu/sigma2, so the
                # columns feed the rolling sums directly, in order.
                stats = self._stats
                window = self.window_size
                agg = self.agg
                outputs = []
                for mu, sigma2, size in zip(
                    column.mu.tolist(),
                    column.sigma2.tolist(),
                    column.sizes.tolist(),
                ):
                    stats.push(
                        mu, sigma2, None if size == EXACT_SIZE else size
                    )
                    if stats.count > window:
                        stats.evict_oldest()
                    outputs.append(_aggregate_value(stats, agg))
                self.emit_many(
                    tuples.with_column(self.output, _infer_column(outputs))
                )
                return
        self.emit_many([self._advance(tup) for tup in tuples])

    def state_bytes(self) -> int:
        return self._stats.nbytes

    def trace_lineage(self, tup: UncertainTuple) -> dict[str, object]:
        return _window_lineage(tup, self.attribute, self.output)


class CollectSink(Operator):
    """Terminal operator collecting every tuple it receives.

    Batches arrive either as tuple lists or as
    :class:`~repro.streams.columnar.ColumnarBatch` blocks; both are
    stored as received, so a columnar pipeline never materializes
    per-tuple objects just to be collected.  :attr:`results` flattens to
    ``list[UncertainTuple]`` on demand (and stays a plain mutable list
    for callers that extend it);
    :meth:`columnar_result` hands back the column blocks for transport.
    """

    partition_key = ANY_PARTITION

    def __init__(self) -> None:
        super().__init__()
        self._chunks: list[object] = []
        self._flat: list[UncertainTuple] = []
        self._flat_count = 0

    @property
    def results(self) -> list[UncertainTuple]:
        """Everything collected so far, as materialized tuples."""
        flat = self._flat
        chunks = self._chunks
        for i in range(self._flat_count, len(chunks)):
            flat.extend(chunks[i])
        self._flat_count = len(chunks)
        return flat

    def columnar_result(self) -> "ColumnarBatch | None":
        """Collected tuples as one columnar batch, if representable."""
        chunks = self._chunks
        if chunks and all(
            isinstance(chunk, ColumnarBatch) for chunk in chunks
        ):
            try:
                return ColumnarBatch.concat(chunks)
            except StreamError:
                pass
        return as_columnar(self.results)

    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        if isinstance(tuples, ColumnarBatch):
            self._chunks.append(tuples)
        else:
            self._chunks.append(list(tuples))

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterable[UncertainTuple]:
        return iter(self.results)


class CountingSink(Operator):
    """Terminal operator that only counts tuples (throughput benchmarks)."""

    partition_key = ANY_PARTITION

    def __init__(self) -> None:
        super().__init__()
        self.count = 0

    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        self.count += len(tuples)


class TimeWindowAggregate(Operator):
    """Time-based sliding aggregate over attribute means.

    Keeps the tuples whose timestamps fall within ``duration`` of the
    newest arrival and emits the updated aggregate per arrival.  Tuples
    must carry non-decreasing timestamps.  Moment propagation matches
    :class:`WindowAggregate` (sum/avg emit Gaussian approximations with
    the window's minimum sample size; count/min/max are deterministic),
    as does the cost model: O(1) amortized per slide on the rolling
    kernels of :mod:`repro.streams.rolling`.
    """

    rolling_metrics = True
    memory_metrics = True

    def __init__(
        self,
        attribute: str,
        duration: float,
        agg: str = "avg",
        output: str | None = None,
        resum_interval: int = DEFAULT_RESUM_INTERVAL,
    ) -> None:
        super().__init__()
        if agg not in _SCALAR_AGGS:
            raise StreamError(
                f"unknown aggregate {agg!r}; expected one of {_SCALAR_AGGS}"
            )
        if duration <= 0:
            raise StreamError(f"duration must be > 0, got {duration}")
        self.attribute = attribute
        self.duration = duration
        self.agg = agg
        self.output = output if output is not None else agg
        self.accuracy_attribute = self.output
        self._stats = RollingWindowStats(
            resum_interval, track_extrema=agg in ("min", "max")
        )

    def _sync_rolling_metrics(self) -> None:
        obs = self._obs
        if obs is None:
            self._stats.set_metrics(None, None)
        else:
            self._stats.set_metrics(obs.rolling_resums, obs.rolling_drift)

    def _slide(
        self, mean: float, variance: float, size: int | None, ts: float
    ) -> object:
        """Admit one arrival, expire the old ones; the aggregate value."""
        stats = self._stats
        newest = stats.newest_timestamp
        if newest is not None and ts < newest:
            raise StreamError(
                f"timestamps must be non-decreasing: {ts} after {newest}"
            )
        stats.push(mean, variance, size, timestamp=ts)
        stats.evict_expired(ts - self.duration)
        return _aggregate_value(stats, self.agg)

    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        slide = self._slide
        if isinstance(tuples, ColumnarBatch) and isinstance(
            tuples.timestamps, np.ndarray
        ):
            column = tuples.gaussian_column(self.attribute)
            if column is not None:
                outputs = [
                    slide(
                        mu, sigma2, None if size == EXACT_SIZE else size, ts
                    )
                    for mu, sigma2, size, ts in zip(
                        column.mu.tolist(),
                        column.sigma2.tolist(),
                        column.sizes.tolist(),
                        tuples.timestamps.tolist(),
                    )
                ]
                self.emit_many(
                    tuples.with_column(self.output, _infer_column(outputs))
                )
                return
        out = []
        for tup in tuples:
            if tup.timestamp is None:
                raise StreamError(
                    "TimeWindowAggregate needs timestamped tuples"
                )
            field = tup.dfsized(self.attribute)
            dist = field.distribution
            attributes = dict(tup.attributes)
            attributes[self.output] = slide(
                dist.mean(), dist.variance(), field.sample_size, tup.timestamp
            )
            out.append(tup.with_attributes(attributes))
        self.emit_many(out)

    def state_bytes(self) -> int:
        return self._stats.nbytes

    def trace_lineage(self, tup: UncertainTuple) -> dict[str, object]:
        return _window_lineage(tup, self.attribute, self.output)


class RollingLearnOperator(Operator):
    """Sliding-window distribution learning in O(1) amortized per slide.

    Consumes raw numeric observations and maintains a learner fit over
    the most recent ``window_size`` of them through the incremental
    hooks (:meth:`~repro.learning.base.Learner.partial_add` /
    :meth:`~repro.learning.base.Learner.partial_evict`): each slide
    updates sufficient statistics instead of refitting from scratch.
    Per emitted tuple the ``output`` attribute carries the learned
    distribution (a :class:`~repro.core.dfsample.DfSized` whose sample
    size is the window fill ``k``) and ``accuracy_output`` carries the
    Lemma 1/2 accuracy (:class:`~repro.core.accuracy.AccuracyInfo`) of
    that fit at ``confidence``.

    ``learner`` is a registry name (resolved through
    :func:`~repro.learning.registry.make_rolling_learner`, which rejects
    learners without incremental support) or a learner instance with
    ``supports_partial``.

    A batch is validated whole before any observation slides the window,
    so a bad row leaves the state as it was.  Each emitting slide then
    takes a :meth:`~repro.learning.base.Learner.partial_snapshot`, and
    one :meth:`~repro.learning.base.Learner.partial_emissions` call
    builds the batch's distributions and accuracy in array passes —
    row for row what ``partial_distribution`` / ``partial_accuracy``
    return.  Snapshots live only for the batch.
    """

    rolling_metrics = True
    memory_metrics = True

    def __init__(
        self,
        attribute: str,
        window_size: int,
        learner: object = "gaussian",
        output: str = "learned",
        accuracy_output: str | None = "accuracy",
        confidence: float = 0.95,
        emit_partial: bool = True,
        resum_interval: int = DEFAULT_RESUM_INTERVAL,
        **learner_kwargs: object,
    ) -> None:
        super().__init__()
        if window_size < 2:
            raise StreamError(
                f"rolling learning needs window size >= 2, got {window_size}"
            )
        if not 0.0 < confidence < 1.0:
            raise StreamError(
                f"confidence must be in (0, 1), got {confidence}"
            )
        if isinstance(learner, str):
            from repro.learning.registry import make_rolling_learner

            learner = make_rolling_learner(learner, **learner_kwargs)
        else:
            if learner_kwargs:
                raise StreamError(
                    "learner keyword arguments need a learner name, "
                    "not an instance"
                )
            if not getattr(learner, "supports_partial", False):
                raise StreamError(
                    f"{type(learner).__name__} does not support "
                    f"incremental (partial_add/partial_evict) learning"
                )
        self.attribute = attribute
        self.window_size = window_size
        self.learner = learner
        self.output = output
        self.accuracy_output = accuracy_output
        self.accuracy_attribute = (
            accuracy_output if accuracy_output is not None else output
        )
        self.confidence = confidence
        self.emit_partial = emit_partial
        # Self-evicting learners (bounded-memory sketch synopses) expire
        # their own oldest content, so the operator keeps a fill counter
        # instead of an O(window) value buffer — the buffer would defeat
        # the whole memory bound.
        self._window: CountWindow[float] | None = (
            None
            if getattr(learner, "partial_self_evicting", False)
            else CountWindow(window_size)
        )
        self._fill = 0
        self._state = learner.partial_begin(resum_interval)

    def _sync_rolling_metrics(self) -> None:
        obs = self._obs
        if obs is None:
            self._state.set_metrics(None, None)
        else:
            self._state.set_metrics(obs.rolling_resums, obs.rolling_drift)

    def _observation(self, tup: UncertainTuple) -> float:
        value = tup.value(self.attribute)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise StreamError(
                f"RollingLearnOperator needs raw numeric observations, "
                f"attribute {self.attribute!r} is {type(value).__name__}"
            )
        return self.learner._validated_observation(value)

    def _slide(self, value: float) -> int | None:
        """Add the observation, evict the expired one; emit fill or None."""
        self.learner.partial_add(self._state, value)
        if self._window is not None:
            evicted = self._window.add(value)
            if evicted is not None:
                self.learner.partial_evict(self._state, evicted)
            k = len(self._window)
            full = self._window.is_full
        else:
            if self._fill >= self.window_size:
                self.learner.partial_evict(self._state, None)
            else:
                self._fill += 1
            k = self._fill
            full = k >= self.window_size
        if k < 2:
            return None
        if not self.emit_partial and not full:
            return None
        return k

    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        values = [self._observation(tup) for tup in tuples]
        learner, state = self.learner, self._state
        emitting: list[tuple[UncertainTuple, int]] = []
        snapshots = []
        for tup, value in zip(tuples, values):
            k = self._slide(value)
            if k is not None:
                emitting.append((tup, k))
                snapshots.append(learner.partial_snapshot(state))
        if not snapshots:
            return
        accuracy_output = self.accuracy_output
        distributions, infos = learner.partial_emissions(
            snapshots, None if accuracy_output is None else self.confidence
        )
        outs = []
        for i, (tup, k) in enumerate(emitting):
            attributes = dict(tup.attributes)
            attributes[self.output] = DfSized(distributions[i], k)
            if infos is not None:
                attributes[accuracy_output] = infos[i]
            outs.append(tup.with_attributes(attributes))
        self.emit_many(outs)

    def state_bytes(self) -> int:
        """Learner state plus (for buffering learners) the value window."""
        total = getattr(self._state, "nbytes", 0) or 0
        if self._window is not None:
            # deque of boxed floats: ~88 bytes per buffered observation.
            total += 64 + len(self._window) * 88
        return total

    def trace_lineage(self, tup: UncertainTuple) -> dict[str, object]:
        learned = tup.attributes.get(self.output)
        fill = (
            learned.sample_size if isinstance(learned, DfSized) else None
        )
        return {
            "kind": "learned-window",
            "inputs": {self.attribute: fill},
            "df_size": fill,
            "min_input": self.attribute,
            "window_fill": fill,
        }
