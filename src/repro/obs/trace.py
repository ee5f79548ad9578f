"""Opt-in span tracing for the stream engine.

A :class:`Tracer` attaches to a :class:`~repro.streams.engine.Pipeline`
exactly like a :class:`~repro.obs.metrics.MetricsRegistry`: with no
tracer attached every hook is a single attribute check and the execution
paths are unchanged; with one attached the engine records

* one **run span** per ``run()``/``run_batched()`` call,
* one **stage span** per operator per run (tuples in/out, call counts,
  accumulated inclusive wall time), and
* one **batch span** per ``receive_many`` call (subject to sampling),

plus — when :attr:`TraceConfig.provenance` is on — one accuracy
:class:`~repro.obs.provenance.ProvenanceRecord` per emitted tuple of
every accuracy-producing operator.

Determinism contract (see ``docs/TRACING.md``)
----------------------------------------------
Span identity is *seed-stable*: a span's ID is a pure function of
``(config.seed, shard label, creation sequence number)`` — never of
wall-clock time or object identity — and the sampling decision for a
batch span is a pure function of the same triple.  Sharded execution
gives the worker tracer of shard ``i`` the shard label ``shard{i}``, so
a fixed seed plus a pinned ``n_shards`` produces an identical merged
span set (IDs, parentage, attributes, provenance payloads) at any
worker count; only the wall-clock ``start``/``end`` fields differ, and
:meth:`Tracer.deterministic_view` excludes exactly those.

:meth:`Tracer.snapshot` / :meth:`Tracer.merge_spans` mirror the
``MetricsRegistry.snapshot`` / ``merge_snapshot`` contract: workers
serialize plain dicts home with the shard's sink state and the parent
folds them in shard order.
"""

from __future__ import annotations

import dataclasses
import hashlib
from time import perf_counter

from repro.errors import ObservabilityError
from repro.obs.provenance import ProvenanceRecorder

__all__ = ["TraceConfig", "Span", "Tracer", "OperatorTrace"]

#: Span kinds the engine emits; exporters may rely on this vocabulary.
SPAN_KINDS = ("run", "stage", "batch", "shard")


@dataclasses.dataclass(frozen=True, slots=True)
class TraceConfig:
    """Tracer behaviour knobs; picklable so workers can rebuild tracers.

    ``sample_rate`` applies to *batch spans and provenance records* —
    the per-batch/per-tuple volume that grows with stream length; run
    and stage spans are structural (a handful per run) and always kept.
    The decision for sequence number ``s`` is derived from a keyed hash
    of ``(seed, shard, s)``, i.e. a seeded counter-mode RNG: the same
    seed always samples the same spans, independent of worker count.
    ``max_spans`` (head sampling) additionally caps the number of batch
    spans retained per tracer; ``max_records`` caps provenance records.
    """

    sample_rate: float = 1.0
    seed: int = 0
    max_spans: int | None = None
    max_records: int | None = None
    provenance: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ObservabilityError(
                f"sample_rate must be in [0,1], got {self.sample_rate}"
            )
        if self.max_spans is not None and self.max_spans < 0:
            raise ObservabilityError(
                f"max_spans must be >= 0 or None, got {self.max_spans}"
            )
        if self.max_records is not None and self.max_records < 0:
            raise ObservabilityError(
                f"max_records must be >= 0 or None, got {self.max_records}"
            )


def _stable_id(seed: int, shard: str, seq: int) -> str:
    """Seed-stable 64-bit span ID as 16 hex chars."""
    digest = hashlib.blake2b(
        f"{seed}|{shard}|{seq}".encode(), digest_size=8
    )
    return digest.hexdigest()


def _sample_decision(seed: int, shard: str, seq: int, rate: float) -> bool:
    """Deterministic Bernoulli(rate) draw for one sequence number.

    A keyed hash in counter mode: uniform in [0, 1) as a function of
    ``(seed, shard, seq)`` only, so the sampled set is identical across
    runs, worker counts, and call orderings.
    """
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    digest = hashlib.blake2b(
        f"sample|{seed}|{shard}|{seq}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2.0**64 < rate


@dataclasses.dataclass(slots=True)
class Span:
    """One traced region.  ``start``/``end`` are wall-clock (perf_counter
    seconds, worker-local origin) and are excluded from the determinism
    contract; every other field is a pure function of the traced work.
    """

    span_id: str
    parent_id: str | None
    name: str
    kind: str
    shard: str
    seq: int
    start: float
    end: float | None = None
    attrs: dict[str, object] = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def to_dict(self) -> dict[str, object]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "shard": self.shard,
            "seq": self.seq,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, state: dict[str, object]) -> "Span":
        return cls(
            span_id=str(state["span_id"]),
            parent_id=state["parent_id"],  # type: ignore[arg-type]
            name=str(state["name"]),
            kind=str(state["kind"]),
            shard=str(state["shard"]),
            seq=int(state["seq"]),  # type: ignore[arg-type]
            start=float(state["start"]),  # type: ignore[arg-type]
            end=state["end"],  # type: ignore[arg-type]
            attrs=dict(state.get("attrs") or {}),  # type: ignore[arg-type]
        )


class Tracer:
    """Records spans (and provenance) for one process's pipeline runs.

    One tracer per process: the parent attaches its tracer to the
    pipeline; sharded execution builds a private per-worker tracer with
    shard label ``shard{i}`` and merges the snapshots home.
    """

    def __init__(
        self, config: TraceConfig | None = None, shard: str = "main"
    ) -> None:
        self.config = config if config is not None else TraceConfig()
        self.shard = shard
        self._spans: list[Span] = []
        self._seq = 0
        self._batch_spans = 0
        self.provenance: ProvenanceRecorder | None = (
            ProvenanceRecorder(
                shard,
                seed=self.config.seed,
                sample_rate=self.config.sample_rate,
                max_records=self.config.max_records,
            )
            if self.config.provenance
            else None
        )

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------

    def begin(
        self,
        name: str,
        kind: str = "run",
        parent: Span | None = None,
        attrs: dict[str, object] | None = None,
    ) -> Span:
        """Open a structural span (always retained, never sampled out)."""
        seq = self._seq
        self._seq += 1
        span = Span(
            span_id=_stable_id(self.config.seed, self.shard, seq),
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            kind=kind,
            shard=self.shard,
            seq=seq,
            start=perf_counter(),
            attrs=dict(attrs) if attrs else {},
        )
        self._spans.append(span)
        return span

    def begin_batch(
        self,
        name: str,
        parent: Span | None = None,
        attrs: dict[str, object] | None = None,
    ) -> Span | None:
        """Open a batch span, subject to probabilistic + head sampling.

        The sequence number advances whether or not the span is kept,
        so span IDs never shift when the sampling rate changes.
        """
        seq = self._seq
        self._seq += 1
        config = self.config
        if not _sample_decision(
            config.seed, self.shard, seq, config.sample_rate
        ):
            return None
        if (
            config.max_spans is not None
            and self._batch_spans >= config.max_spans
        ):
            return None
        self._batch_spans += 1
        span = Span(
            span_id=_stable_id(config.seed, self.shard, seq),
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            kind="batch",
            shard=self.shard,
            seq=seq,
            start=perf_counter(),
            attrs=dict(attrs) if attrs else {},
        )
        self._spans.append(span)
        return span

    def end(
        self,
        span: Span,
        end: float | None = None,
        **attrs: object,
    ) -> None:
        """Close a span; ``end`` overrides the wall clock for summary
        spans whose duration is accumulated rather than measured."""
        span.end = end if end is not None else perf_counter()
        if attrs:
            span.attrs.update(attrs)

    # ------------------------------------------------------------------
    # Views and merging
    # ------------------------------------------------------------------

    @property
    def spans(self) -> list[Span]:
        return self._spans

    def __len__(self) -> int:
        return len(self._spans)

    def reset(self) -> None:
        self._spans = []
        self._seq = 0
        self._batch_spans = 0
        if self.provenance is not None:
            self.provenance.reset()

    def snapshot(self) -> dict[str, object]:
        """Plain-dict state for shipping across process boundaries."""
        return {
            "shard": self.shard,
            "spans": [span.to_dict() for span in self._spans],
            "provenance": (
                self.provenance.snapshot()
                if self.provenance is not None
                else []
            ),
        }

    def merge_spans(self, snapshot: dict[str, object]) -> None:
        """Fold another tracer's :meth:`snapshot` into this one.

        Same contract as ``MetricsRegistry.merge_snapshot``: workers
        record into private tracers, ship snapshots home with the
        shard's sink state, and the parent merges them in shard order.
        Merged spans keep their worker-assigned IDs and shard labels
        (IDs cannot collide: the shard label is part of the ID).
        """
        spans = snapshot.get("spans")
        if not isinstance(spans, list):
            raise ObservabilityError(
                "trace snapshot has no 'spans' list to merge"
            )
        for state in spans:
            self._spans.append(Span.from_dict(state))
        records = snapshot.get("provenance") or []
        if records and self.provenance is not None:
            self.provenance.merge(records)  # type: ignore[arg-type]

    def deterministic_view(self) -> list[dict[str, object]]:
        """The merged span set minus wall-clock fields, canonically sorted.

        This is the object the determinism contract quantifies over:
        fixed seed + pinned ``n_shards`` produce an equal view at any
        worker count.  Sorted by ``(shard, seq)`` so merge order is
        irrelevant.
        """
        view = []
        for span in sorted(self._spans, key=lambda s: (s.shard, s.seq)):
            state = span.to_dict()
            del state["start"], state["end"]
            view.append(state)
        return view

    def explain(self, tup: object) -> str:
        """Render one result tuple's accuracy-provenance chain."""
        if self.provenance is None:
            raise ObservabilityError(
                "tracer has no provenance recorder "
                "(TraceConfig(provenance=True) enables it)"
            )
        return self.provenance.explain(tup)


class OperatorTrace:
    """Per-operator trace handle, the tracing analogue of
    :class:`~repro.obs.instrument.OperatorMetrics`.

    Holds the operator's stage span for the current run plus the
    counters written into it at close; the hot-path hooks touch only
    plain attributes.
    """

    __slots__ = (
        "tracer",
        "name",
        "index",
        "accuracy_attribute",
        "stage_span",
        "tuples_in",
        "tuples_out",
        "calls",
        "batches",
        "seconds",
    )

    def __init__(
        self,
        tracer: Tracer,
        name: str,
        index: int = 0,
        accuracy_attribute: str | None = None,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.index = index
        self.accuracy_attribute = accuracy_attribute
        self.stage_span: Span | None = None
        self.tuples_in = 0
        self.tuples_out = 0
        self.calls = 0
        self.batches = 0
        self.seconds = 0.0

    # -- run lifecycle (driven by Pipeline) -----------------------------

    def start_stage(self, run_span: Span | None) -> None:
        """Open this operator's stage span for one pipeline run."""
        self.tuples_in = 0
        self.tuples_out = 0
        self.calls = 0
        self.batches = 0
        self.seconds = 0.0
        self.stage_span = self.tracer.begin(
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
        self.tracer.end(
            span,
            end=span.start + self.seconds,
            tuples_in=self.tuples_in,
            tuples_out=self.tuples_out,
            calls=self.calls,
            batches=self.batches,
        )
        self.stage_span = None

    # -- hot-path hooks (driven by Operator) ----------------------------

    def begin_batch(self, size: int) -> Span | None:
        self.tuples_in += size
        self.calls += 1
        self.batches += 1
        return self.tracer.begin_batch(
            f"{self.name}.batch",
            parent=self.stage_span,
            attrs={"stage_index": self.index, "batch_size": size},
        )

    def end_batch(self, span: Span | None, emitted: int) -> None:
        if span is not None:
            self.tracer.end(span, emitted=emitted)

    def on_emit_many(self, operator: object, tuples: object) -> None:
        self.tuples_out += len(tuples)  # type: ignore[arg-type]
        recorder = self.tracer.provenance
        if recorder is not None and self.accuracy_attribute is not None:
            for tup in tuples:  # type: ignore[attr-defined]
                recorder.record(self, operator, tup)
