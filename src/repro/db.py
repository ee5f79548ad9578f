"""The accuracy-aware uncertain stream database facade.

:class:`StreamDatabase` ties the layers together the way the paper's
system diagram implies:

1. raw observation records stream in (Figure 1),
2. :meth:`ingest_observations` groups them and *learns* one distribution
   per group, keeping the sample size — the accuracy source,
3. one-shot :meth:`query` and push-based :meth:`register_continuous`
   queries run the SQL-ish dialect with accuracy attached to results,
   including significance predicates with coupled error-rate control.

The facade stores each stream's current tuples in a bounded buffer
(newest first out of age); it is a working single-process database, not
a distributed system.
"""

from __future__ import annotations

import dataclasses
import time
from collections import deque
from collections.abc import Callable, Iterable, Mapping

from repro.errors import CallbackError, QueryError, SchemaError, StreamError
from repro.core.dfsample import DfSized
from repro.learning.base import Learner
from repro.learning.histogram_learner import HistogramLearner
from repro.learning.registry import make_learner
from repro.learning.weighted import WeightedLearner
from repro.obs.instrument import Observer
from repro.obs.metrics import MetricsRegistry
from repro.query.executor import ExecutorConfig, QueryExecutor, ResultTuple
from repro.query.multiquery import MultiQueryEngine
from repro.query.planner import compile_query_cached
from repro.streams.tuples import Schema, UncertainTuple

__all__ = ["StreamDatabase", "ContinuousQuery"]


def _readings(records: list[Mapping[str, object]], column: str) -> list[float]:
    """One group's ``column`` readings as floats; SchemaError if ill-typed."""
    readings = []
    for record in records:
        try:
            readings.append(float(record[column]))  # type: ignore[arg-type]
        except (TypeError, ValueError):
            raise SchemaError(
                f"record {record!r} has a non-numeric {column!r} reading"
            ) from None
    return readings


@dataclasses.dataclass
class _StreamState:
    schema: Schema | None
    tuples: deque[UncertainTuple]
    inserted: int = 0


@dataclasses.dataclass
class ContinuousQuery:
    """A standing query: evaluated against every newly inserted tuple."""

    name: str
    source: str
    executor: QueryExecutor
    callback: Callable[[ResultTuple], None]
    matches: int = 0


class StreamDatabase:
    """A single-process accuracy-aware uncertain stream database.

    Every insert goes through :meth:`insert_many`, and
    ``shared_subplans`` selects how it dispatches to the standing
    queries.  With the default ``True``, the batch runs through the
    engine of :mod:`repro.query.multiquery`: registered plans are
    grouped by their accuracy-bearing prefix fingerprint, each group's
    prefix runs once per tuple, and residual predicates are decided
    vectorized over the batch's column views.  ``False`` keeps the naive
    one-full-pipeline-per-query loop — the determinism oracle the
    shared path is byte-identical to.

    Everything the database records goes into one ``observer``
    (default: a metrics-only :class:`~repro.obs.instrument.Observer`);
    an observer built with ``frames=`` cuts frames as tuples are
    dispatched to the standing queries.
    """

    def __init__(
        self,
        config: ExecutorConfig | None = None,
        max_tuples_per_stream: int = 100_000,
        shared_subplans: bool = True,
        observer: Observer | None = None,
    ) -> None:
        if max_tuples_per_stream < 1:
            raise StreamError(
                "max_tuples_per_stream must be >= 1, got "
                f"{max_tuples_per_stream}"
            )
        self.config = config if config is not None else ExecutorConfig()
        self.max_tuples_per_stream = max_tuples_per_stream
        self.shared_subplans = shared_subplans
        self.observer = observer if observer is not None else Observer()
        self._engine = MultiQueryEngine(self.observer)
        self._streams: dict[str, _StreamState] = {}
        self._continuous: dict[str, ContinuousQuery] = {}
        self._cache_hits = self.metrics.counter(
            "plan_cache.hits", "compiled plans served from the plan cache"
        )
        self._cache_misses = self.metrics.counter(
            "plan_cache.misses", "query texts compiled from scratch"
        )
        self._fanout_timer = self.metrics.timer(
            "multiquery.fanout_seconds",
            "batched shared-subplan execution time per insert_many call",
        )

    @property
    def metrics(self) -> MetricsRegistry:
        """The observer's metrics registry."""
        return self.observer.metrics

    # -- stream management ---------------------------------------------------

    def create_stream(
        self, name: str, schema: "Schema | None" = None
    ) -> None:
        """Register a stream, optionally with a validated schema."""
        if not name or not name.isidentifier():
            raise StreamError(f"stream name must be an identifier: {name!r}")
        if name in self._streams:
            raise StreamError(f"stream {name!r} already exists")
        self._streams[name] = _StreamState(
            schema=schema,
            tuples=deque(maxlen=self.max_tuples_per_stream),
        )

    def drop_stream(self, name: str) -> None:
        """Remove a stream and any continuous queries reading it."""
        self._state(name)  # raises if unknown
        del self._streams[name]
        stale = [
            cq_name for cq_name, cq in self._continuous.items()
            if cq.source == name
        ]
        for cq_name in stale:
            del self._continuous[cq_name]
        self._engine.remove_source(name)

    def streams(self) -> list[str]:
        return sorted(self._streams)

    def count(self, name: str) -> int:
        """Number of tuples currently buffered in the stream."""
        return len(self._state(name).tuples)

    def stats(self, name: str) -> dict[str, object]:
        """Operational metadata for one stream.

        ``buffered`` is the current window of tuples; ``inserted`` counts
        every insert since creation (evictions included); ``watchers``
        lists the continuous queries reading this stream.
        """
        state = self._state(name)
        return {
            "buffered": len(state.tuples),
            "inserted": state.inserted,
            "has_schema": state.schema is not None,
            "watchers": sorted(
                cq_name for cq_name, cq in self._continuous.items()
                if cq.source == name
            ),
        }

    def _state(self, name: str) -> _StreamState:
        try:
            return self._streams[name]
        except KeyError:
            raise StreamError(
                f"unknown stream {name!r}; have {self.streams()}"
            ) from None

    # -- ingestion ---------------------------------------------------------------

    def insert(
        self, name: str, tup: "UncertainTuple | Mapping[str, object]"
    ) -> None:
        """Insert one tuple (mappings become probability-1 tuples).

        A one-row :meth:`insert_many`: the same validation, dispatch
        and error rules apply.
        """
        self.insert_many(name, [tup])

    def _iter_naive(self, name: str, tup: UncertainTuple):
        """The per-query reference loop: every pipeline in full."""
        for cq in self._continuous.values():
            if cq.source == name:
                result = cq.executor.execute_one(tup)
                if result is not None:
                    yield cq, result

    def insert_many(
        self,
        name: str,
        tuples: Iterable["UncertainTuple | Mapping[str, object]"],
    ) -> int:
        """Insert a batch; returns how many tuples were inserted.

        Validation is atomic: the whole batch is checked against the
        stream schema before any tuple is buffered or dispatched.  With
        ``shared_subplans`` enabled the standing queries run on the
        whole batch first (each shared-plan group's prefix once per
        tuple, residuals vectorized where they allow),
        so an executor error surfaces before any tuple is buffered.
        The naive loop instead runs every query on a tuple as that
        tuple is emitted.  Either way rows are buffered and emitted one
        by one in the naive callback order.  Every standing query sees
        its row's results even when an earlier callback raises; the
        first callback failure is then re-raised as
        :class:`~repro.errors.CallbackError`, leaving the failing row
        buffered and the later rows neither buffered nor emitted.
        """
        state = self._state(name)
        batch = [
            tup
            if isinstance(tup, UncertainTuple)
            else UncertainTuple(dict(tup))
            for tup in tuples
        ]
        if state.schema is not None:
            state.schema.validate_batch(batch)
        buffer = state.tuples
        if not any(cq.source == name for cq in self._continuous.values()):
            buffer.extend(batch)
            state.inserted += len(batch)
            return len(batch)
        if self.shared_subplans:
            start = time.perf_counter()
            rows = self._engine.execute_batch(name, batch)
            self._fanout_timer.record(time.perf_counter() - start)
        else:
            rows = (self._iter_naive(name, tup) for tup in batch)
        for tup, row in zip(batch, rows):
            buffer.append(tup)
            state.inserted += 1
            first_error: Exception | None = None
            first_name = ""
            for cq, result in row:
                cq.matches += 1
                try:
                    cq.callback(result)
                except Exception as exc:  # noqa: BLE001 - isolate subscribers
                    if first_error is None:
                        first_error, first_name = exc, cq.name
            if first_error is not None:
                raise CallbackError(
                    f"callback of continuous query {first_name!r} raised "
                    f"{type(first_error).__name__}: {first_error}",
                    first_name,
                ) from first_error
        return len(batch)

    def ingest_observations(
        self,
        name: str,
        records: Iterable[Mapping[str, object]],
        group_by: str,
        value: str,
        learner: "Learner | str | None" = None,
        carry: tuple[str, ...] = (),
        min_observations: int = 2,
        age: str | None = None,
        half_life: float | None = None,
    ) -> int:
        """The Figure-1 transformation: raw records -> uncertain tuples.

        Records are grouped by ``group_by``; each group's ``value``
        readings form the sample a distribution is learned from, and the
        learned field enters the stream *with its sample size* so
        accuracy can flow to queries.  ``carry`` attributes are copied
        from the group's first record (assumed constant per group, like
        a road's speed limit).  Groups with fewer than
        ``min_observations`` readings are skipped (their accuracy would
        be undefined); returns the number of tuples produced.

        Every group's readings are read as floats first (a missing or
        non-numeric reading raises :class:`SchemaError` naming the
        record), then every group that reaches ``min_observations`` is
        learned in one :meth:`Learner.learn_many` call, in the groups'
        ``str`` order, and the learned tuples enter in one
        :meth:`insert_many` call: a record or learner error leaves the
        stream unchanged, and the standing queries see the tuples under
        that method's dispatch and error rules.

        Passing ``age`` (a record column holding each observation's age)
        together with ``half_life`` enables the paper's §VII weighted
        extension: fresh readings weigh more, the learned Gaussian
        tracks drift, and the field's sample size becomes the Kish
        effective size — so stale evidence honestly widens the accuracy
        intervals.
        """
        if (age is None) != (half_life is None):
            raise SchemaError(
                "age and half_life must be passed together"
            )
        weighted = (
            WeightedLearner(half_life) if half_life is not None else None
        )
        if weighted is None:
            if learner is None:
                learner = HistogramLearner(bucket_count=8)
            elif isinstance(learner, str):
                learner = make_learner(learner)
        elif learner is not None:
            raise SchemaError(
                "pass either a learner or age/half_life, not both"
            )
        groups: dict[object, list[Mapping[str, object]]] = {}
        for record in records:
            if group_by not in record or value not in record:
                raise SchemaError(
                    f"record {record!r} lacks {group_by!r}/{value!r}"
                )
            if age is not None and age not in record:
                raise SchemaError(f"record {record!r} lacks {age!r}")
            groups.setdefault(record[group_by], []).append(record)

        keys = [
            key for key in sorted(groups, key=str)
            if len(groups[key]) >= min_observations
        ]
        samples = [_readings(groups[key], value) for key in keys]
        if weighted is not None:
            fields = []
            for key, sample in zip(keys, samples):
                ages = _readings(groups[key], age)  # type: ignore[arg-type]
                fit = weighted.learn(sample, ages)
                fields.append(
                    DfSized(fit.distribution, max(int(fit.effective_size), 2))
                )
        else:
            assert isinstance(learner, Learner)
            fields = learner.learn_many(samples)
        learned: list[UncertainTuple] = []
        for key, field in zip(keys, fields):
            attributes: dict[str, object] = {group_by: key, value: field}
            first = groups[key][0]
            for attr in carry:
                attributes[attr] = first.get(attr)
            learned.append(UncertainTuple(attributes))
        return self.insert_many(name, learned)

    # -- querying ---------------------------------------------------------------

    def _compile(self, text: str):
        """Compile through the plan cache, counting hits and misses."""
        compiled, hit = compile_query_cached(text)
        if hit:
            self._cache_hits.inc()
        else:
            self._cache_misses.inc()
        return compiled

    def query(
        self, text: str, config: ExecutorConfig | None = None
    ) -> list[ResultTuple]:
        """One-shot query over a stream's current buffered tuples."""
        compiled = self._compile(text)
        state = self._state(compiled.source)
        executor = QueryExecutor(
            compiled,
            schema=None,
            config=config if config is not None else self.config,
        )
        return executor.execute(list(state.tuples))

    def register_continuous(
        self,
        name: str,
        text: str,
        callback: Callable[[ResultTuple], None],
        config: ExecutorConfig | None = None,
    ) -> ContinuousQuery:
        """Register a standing query evaluated on each future insert.

        Identical query texts (modulo whitespace) share one compiled
        plan object through the plan cache, and plans whose prefix
        fingerprints match land in the same shared-plan group.
        Aggregate queries need the whole stream, so they are refused
        here; run them with :meth:`query`.
        """
        if name in self._continuous:
            raise QueryError(f"continuous query {name!r} already exists")
        compiled = self._compile(text)
        if compiled.is_aggregate:
            raise QueryError(
                f"continuous query {name!r} is an aggregate query; "
                "aggregate queries need the whole stream, use query()"
            )
        self._state(compiled.source)  # source must exist
        cq = ContinuousQuery(
            name=name,
            source=compiled.source,
            executor=QueryExecutor(
                compiled,
                schema=None,
                config=config if config is not None else self.config,
            ),
            callback=callback,
        )
        self._continuous[name] = cq
        self._engine.add(name, cq.source, cq.executor, cq)
        return cq

    def unregister_continuous(self, name: str) -> None:
        try:
            del self._continuous[name]
        except KeyError:
            raise QueryError(f"no continuous query {name!r}") from None
        self._engine.remove(name)

    def continuous_queries(self) -> list[str]:
        return sorted(self._continuous)
