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
from repro.obs.instrument import Observer, OperatorObserver
from repro.streams.columnar import (
    EXACT_SIZE,
    Column,
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
    double as observability hooks: when an
    :class:`~repro.obs.instrument.Observer` is attached (via
    :meth:`attach`, usually through ``Pipeline(observer=...)``) they
    hand the call to the operator's
    :class:`~repro.obs.instrument.OperatorObserver`, which records
    tuples in/out, wall time, batch sizes and spans.  With none attached
    each hook is a single attribute check, so the unobserved hot path is
    unchanged.

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
        self._obs: OperatorObserver | None = None

    def connect(self, downstream: "Operator") -> "Operator":
        """Attach (and return) the downstream operator, enabling chaining."""
        self._downstream = downstream
        return downstream

    def attach(
        self, observer: Observer, name: str | None = None, index: int = 0
    ) -> OperatorObserver:
        """Start recording this operator into ``observer``."""
        if name is None:
            name = type(self).__name__.lstrip("_")
        self._obs = OperatorObserver(
            observer,
            name,
            index,
            self.accuracy_attribute,
            rolling=self.rolling_metrics,
            memory=self.memory_metrics,
        )
        self._sync_rolling_metrics()
        return self._obs

    def detach(self) -> None:
        """Stop recording (already-recorded values are kept)."""
        self._obs = None
        self._sync_rolling_metrics()

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
        sharded execution pickles the pipeline after detaching its observer
        (:func:`~repro.parallel.sharded.pipeline_payload`), and kernel
        state must never drag registry objects into worker processes.
        """

    def emit_many(self, tuples: Sequence[UncertainTuple]) -> None:
        """Push a whole batch downstream."""
        if not tuples:
            return
        obs = self._obs
        if obs is not None:
            obs.emit_many(self, tuples)
        if self._downstream is not None:
            self._downstream.receive_many(tuples)

    def receive_many(self, tuples: Sequence[UncertainTuple]) -> None:
        """Handle a batch of tuples (every ``Pipeline`` entry point)."""
        obs = self._obs
        if obs is None:
            self.process_many(tuples)
        else:
            obs.receive_many(self, tuples)

    @abc.abstractmethod
    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        """Handle one input batch; pass the outputs to :meth:`emit_many`.

        Outputs keep arrival order: a stream cut into batches of any
        size reaches the sink in the same order.
        """

    def flush(self) -> None:
        """Propagate end-of-stream; override ``on_flush`` to drain state."""
        obs = self._obs
        if obs is None:
            self.on_flush()
        else:
            obs.flush(self)
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
    per ``keep_unsure``.  ``decisions`` counts this instance's own
    TRUE/FALSE/UNSURE outcomes; with an observer attached they also count
    in the operator's ``decisions.{true,false,unsure}`` counters, which
    fold home from the shards of ``Pipeline.run_sharded`` (the workers'
    unpickled copies keep their own ``decisions``).
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
        values = [
            coupled_tests(
                self.predicate_factory(tup), self.alpha1, self.alpha2
            ).value
            for tup in tuples
        ]
        self.decisions.update(values)
        obs = self._obs
        if obs is not None:
            tally = Counter(values)
            for value in ThreeValued:
                obs.counter(f"decisions.{value.name.lower()}").inc(
                    tally[value]
                )
        keep = {ThreeValued.TRUE}
        if self.keep_unsure:
            keep.add(ThreeValued.UNSURE)
        self.emit_many(
            [tup for tup, value in zip(tuples, values) if value in keep]
        )


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

#: Aggregates that propagate moments: their outputs are Gaussians.
_MOMENT_AGGS = ("avg", "sum")


def _aggregate_value(stats: RollingWindowStats, agg: str) -> object:
    """Aggregate value of one window from its rolling statistics.

    Shared by :class:`WindowAggregate`, :class:`TimeWindowAggregate`,
    and :class:`~repro.streams.groupby.GroupedAggregate` — the moment
    algebra (sum/avg propagate mean and variance under independence,
    with the window's Lemma-3 minimum sample size) is identical across
    the three, only the eviction policy differs.  Columnar batches get
    the same values from :func:`_aggregate_column`.
    """
    if agg in _MOMENT_AGGS:
        mean_sum, var_sum, k, df_size = stats.moments()
        if agg == "avg":
            mean_sum, var_sum = mean_sum / k, var_sum / (k * k)
        return DfSized(GaussianDistribution(mean_sum, var_sum), df_size)
    if agg == "count":
        return float(stats.count)
    if agg == "min":
        return stats.min_mean
    return stats.max_mean


def _read_moments(
    tuples: Sequence[UncertainTuple],
    attribute: str,
    columnar: bool,
    timestamps: bool = False,
) -> list[tuple]:
    """Every row's ``(mean, variance, sample size)`` of one whole batch.

    Straight from a Gaussian column of a ``columnar`` batch (Gaussian
    ``mean()``/``variance()`` are ``mu``/``sigma2``), else from every
    row — so a bad row raises before the caller slides any window.
    With ``timestamps`` each row also ends with the tuple's timestamp,
    read in the same pass.
    """
    if columnar:
        column = tuples.gaussian_column(attribute)
        if column is not None:
            sizes = column.sizes.tolist()
            if EXACT_SIZE in sizes:
                sizes = [None if n == EXACT_SIZE else n for n in sizes]
            parts = [column.mu.tolist(), column.sigma2.tolist(), sizes]
            if timestamps:
                stamps = tuples.timestamps
                parts.append(
                    stamps.tolist() if isinstance(stamps, np.ndarray)
                    else [tuples.timestamp(i) for i in range(len(tuples))]
                )
            return list(zip(*parts))
    rows = []
    for tup in tuples:
        field = tup.dfsized(attribute)
        dist = field.distribution
        if timestamps:
            rows.append(
                (
                    dist.mean(),
                    dist.variance(),
                    field.sample_size,
                    tup.timestamp,
                )
            )
        else:
            rows.append((dist.mean(), dist.variance(), field.sample_size))
    return rows


def _aggregate_column(records: list, agg: str) -> Column:
    """One batch's output column from its per-slide records.

    A slide records the window's
    :meth:`~repro.streams.rolling.RollingWindowStats.moments` for
    avg/sum and the :func:`_aggregate_value` of count/min/max.  The
    slide loops check each moments record as they take it: a non-finite
    sum raises the canonical :class:`~repro.errors.DistributionError`
    of :func:`_aggregate_value` at its own row, as a tuple list does
    (``moments()`` clamps ``var_sum`` at zero, and dividing by the
    window's count keeps a finite sum finite).

    avg/sum build a :class:`~repro.streams.columnar.GaussianDfColumn`
    from the running moments in array passes — value for value what
    :func:`_aggregate_value` builds — instead of a ``DfSized`` per row.
    """
    if agg not in _MOMENT_AGGS:
        return _infer_column(records)
    mean_sums, var_sums, counts, sizes = zip(*records)
    mu = np.array(mean_sums, dtype=np.float64)
    sigma2 = np.array(var_sums, dtype=np.float64)
    if agg == "avg":
        k = np.array(counts, dtype=np.float64)
        mu /= k
        sigma2 /= k * k
    if None in sizes:
        sizes = [EXACT_SIZE if n is None else n for n in sizes]
    return GaussianDfColumn(mu, sigma2, np.array(sizes, dtype=np.int64))


class _SlidingAggregate(Operator):
    """One body for the sliding aggregates over attribute means.

    Each batch is read whole first — every row's ``(mean, variance,
    size)`` and, for time windows, its timestamp — so a row that cannot
    be read raises before anything slides and leaves the window as it
    was.  One slide loop then pushes each arrival, lets the subclass
    evict (:meth:`_evict`: count or duration) and records the aggregate
    (a non-finite avg/sum raises at its own slide, on either layout),
    and the batch leaves as one output column for a
    :class:`~repro.streams.columnar.ColumnarBatch` or as tuples for a
    list.

    Works on any distribution-valued or numeric attribute by aggregating
    the per-tuple expected values.  ``avg``/``sum`` additionally
    propagate variance (independence assumption) and emit a Gaussian
    tagged with the window's minimum input sample size (Lemma 3: the
    d.f. sample size of the aggregate) — the exact Gaussian of the
    average of independent Gaussians, and a CLT approximation for other
    inputs; ``min``/``max``/``count`` emit deterministic values.

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
        agg: str,
        output: str | None,
        resum_interval: int,
    ) -> None:
        super().__init__()
        if agg not in _SCALAR_AGGS:
            raise StreamError(
                f"unknown aggregate {agg!r}; expected one of {_SCALAR_AGGS}"
            )
        self.attribute = attribute
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

    def _read(
        self, tuples: Sequence[UncertainTuple], columnar: bool
    ) -> list[tuple]:
        """Every row's :meth:`RollingWindowStats.push` arguments."""
        return _read_moments(tuples, self.attribute, columnar)

    @abc.abstractmethod
    def _evict(self, row: tuple) -> None:
        """Drop the members the newest arrival ``row`` pushed out."""

    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        if not tuples:
            return
        columnar = isinstance(tuples, ColumnarBatch)
        rows = self._read(tuples, columnar)
        agg = self.agg
        moments = columnar and agg in _MOMENT_AGGS
        stats = self._stats
        push = stats.push
        stats_moments = stats.moments
        evict = self._evict
        records = []
        for row in rows:
            push(*row)
            evict(row)
            if moments:
                record = stats_moments()
                if record[0] - record[0] or record[1] - record[1]:
                    _aggregate_value(stats, agg)  # inf or NaN: raises
            else:
                record = _aggregate_value(stats, agg)
            records.append(record)
        output = self.output
        if columnar:
            self.emit_many(
                tuples.with_column(output, _aggregate_column(records, agg))
            )
            return
        out = []
        for tup, value in zip(tuples, records):
            attributes = dict(tup.attributes)
            attributes[output] = value
            out.append(tup.with_attributes(attributes))
        self.emit_many(out)

    def state_bytes(self) -> int:
        return self._stats.nbytes

    def trace_lineage(self, tup: UncertainTuple) -> dict[str, object]:
        return _window_lineage(tup, self.attribute, self.output)


class WindowAggregate(_SlidingAggregate):
    """Count-based sliding aggregate over the last ``window_size`` tuples.

    ``WindowAggregate(attribute, window_size)`` is the paper's §V-C
    sliding-window AVG.
    """

    def __init__(
        self,
        attribute: str,
        window_size: int,
        agg: str = "avg",
        output: str | None = None,
        resum_interval: int = DEFAULT_RESUM_INTERVAL,
    ) -> None:
        super().__init__(attribute, agg, output, resum_interval)
        if window_size < 1:
            raise StreamError(f"window size must be >= 1, got {window_size}")
        self.window_size = window_size

    def _evict(self, row: tuple) -> None:
        stats = self._stats
        if stats.count > self.window_size:
            stats.evict_oldest()


class TimeWindowAggregate(_SlidingAggregate):
    """Time-based sliding aggregate over the last ``duration`` of time.

    Keeps the tuples whose timestamps fall within ``duration`` of the
    newest arrival and emits the updated aggregate per arrival.  Tuples
    must carry non-decreasing timestamps; a batch that goes backwards
    is refused whole.
    """

    def __init__(
        self,
        attribute: str,
        duration: float,
        agg: str = "avg",
        output: str | None = None,
        resum_interval: int = DEFAULT_RESUM_INTERVAL,
    ) -> None:
        super().__init__(attribute, agg, output, resum_interval)
        if duration <= 0:
            raise StreamError(f"duration must be > 0, got {duration}")
        self.duration = duration

    def _read(
        self, tuples: Sequence[UncertainTuple], columnar: bool
    ) -> list[tuple]:
        rows = _read_moments(
            tuples, self.attribute, columnar, timestamps=True
        )
        newest = self._stats.newest_timestamp
        for row in rows:
            ts = row[3]
            if ts is None or math.isnan(ts):
                raise StreamError(
                    f"TimeWindowAggregate needs timestamped tuples, got {ts}"
                )
            if newest is not None and ts < newest:
                raise StreamError(
                    f"timestamps must be non-decreasing: {ts} after {newest}"
                )
            newest = ts
        return rows

    def _evict(self, row: tuple) -> None:
        self._stats.evict_expired(row[3] - self.duration)


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
