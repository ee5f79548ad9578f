"""Span tracing for the stream engine.

A :class:`Tracer` is the optional span part of an
:class:`~repro.obs.instrument.Observer` (``Observer(trace=TraceConfig())``).
With it, an observed pipeline records

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
a fixed seed and pool size produce an identical merged span set (IDs,
parentage, attributes, provenance payloads) whether the shards run in
worker processes or in-process; only the wall-clock ``start``/``end``
fields differ, and :meth:`Tracer.deterministic_view` excludes exactly
those.

:meth:`Tracer.snapshot` / :meth:`Tracer.merge_spans` are the span part
of ``Observer.snapshot`` / ``Observer.merge``.
"""

from __future__ import annotations

import dataclasses
import hashlib
from time import perf_counter

from repro.errors import ObservabilityError
from repro.obs.provenance import ProvenanceRecorder

__all__ = ["TraceConfig", "Span", "Tracer"]

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

    One tracer per observer: sharded execution builds a worker observer
    whose tracer has shard label ``shard{i}`` and merges it home.
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

    def _open(
        self,
        seq: int,
        name: str,
        kind: str,
        parent: Span | None,
        attrs: dict[str, object] | None,
    ) -> Span:
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
        return self._open(seq, name, kind, parent, attrs)

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
        return self._open(seq, name, "batch", parent, attrs)

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

        Called by ``Observer.merge`` once per shard, in shard order.
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
        a fixed seed and pool size produce an equal view whether the
        shards ran in worker processes or in-process.  Sorted by
        ``(shard, seq)`` so merge order is irrelevant.
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
