"""Accuracy provenance: per-result lineage of accuracy attributes.

The paper's central artifact — a result tuple's accuracy (CI widths,
de facto sample sizes; Lemmas 1–3, Theorem 1) — is produced by a chain
of operators, and aggregate metrics cannot explain any *single* result:
which input's sample size became the Lemma-3 minimum, where the CI
widened, how many bootstrap values were dropped.  A
:class:`ProvenanceRecorder` (owned by a
:class:`~repro.obs.trace.Tracer` with ``TraceConfig(provenance=True)``)
captures exactly that: one :class:`ProvenanceRecord` per emitted tuple
of every accuracy-producing operator, holding

* the stage that emitted it and the per-stage output sequence number,
* the accuracy payload's sample size, method, and mean-CI bounds,
* bootstrap observability (``r``/``n``, ``values_used``/``values_dropped``,
  adaptive ``draws_used``/``rounds``),
* the operator-declared **lineage**: named input sample sizes, the
  Lemma-3 de facto size, and which input set it
  (:meth:`~repro.streams.operators.Operator.trace_lineage`,
  :func:`lineage_from_operands`).

Records never touch the tuples themselves — pipeline output stays
byte-identical with tracing on or off.  :meth:`ProvenanceRecorder.explain`
renders one result's full chain; record payloads are deterministic
(sorted by ``(shard, stage_index, out_seq)``) and take part in the
sharded-trace determinism contract of ``docs/TRACING.md``.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections.abc import Mapping

from repro.core.accuracy import AccuracyInfo
from repro.core.analytic import mean_interval
from repro.core.dfsample import DfSized, df_sample_size
from repro.errors import ObservabilityError

__all__ = [
    "ProvenanceRecord",
    "ProvenanceRecorder",
    "lineage_from_operands",
    "explain",
]

#: Confidence level used to derive a CI width from a bare ``DfSized``
#: payload (mirrors ``OperatorObserver.observe_accuracy``).
DFSIZED_CONFIDENCE = 0.95


def lineage_from_operands(
    operands: "Mapping[str, DfSized | object]",
) -> dict[str, object]:
    """Lemma-3 lineage of a result computed from named operands.

    Returns ``{"inputs": {name: n}, "df_size": min, "min_input": name}``
    where ``min_input`` names the (first, in mapping order) operand
    whose sample size equals the de facto minimum — the input Theorem 1
    says controls the result's accuracy.  Non-``DfSized`` operands and
    ``None`` sample sizes mark exact inputs that never bind the min.
    """
    sizes: dict[str, int | None] = {}
    for name, operand in operands.items():
        if isinstance(operand, DfSized):
            sizes[name] = operand.sample_size
        else:
            sizes[name] = None
    df_size = df_sample_size(sizes.values())
    min_input = None
    if df_size is not None:
        for name, size in sizes.items():
            if size == df_size:
                min_input = name
                break
    return {
        "kind": "operands",
        "inputs": sizes,
        "df_size": df_size,
        "min_input": min_input,
    }


def _describe_payload(value: object) -> dict[str, object] | None:
    """Accuracy fields of one attribute value, or None if it has none.

    The same function fingerprints tuples during :meth:`explain` lookup,
    so it must be a pure function of the payload.
    """
    if isinstance(value, AccuracyInfo):
        n = value.sample_size
        resamples = (
            value.values_used // n
            if value.method == "bootstrap" and n
            else None
        )
        return {
            "payload": "accuracy-info",
            "method": value.method,
            "sample_size": n,
            "confidence": value.mean.confidence,
            "ci_low": value.mean.low,
            "ci_high": value.mean.high,
            "values_used": value.values_used,
            "values_dropped": value.values_dropped,
            "resamples": resamples,
            "draws_used": value.draws_used,
            "rounds": value.rounds,
            "synopsis_error": value.synopsis_error,
        }
    if (
        isinstance(value, DfSized)
        and value.sample_size is not None
        and value.sample_size >= 2
    ):
        dist = value.distribution
        interval = mean_interval(
            dist.mean(), dist.std(), value.sample_size, DFSIZED_CONFIDENCE
        )
        return {
            "payload": "dfsized",
            "method": None,
            "sample_size": value.sample_size,
            "confidence": DFSIZED_CONFIDENCE,
            "ci_low": interval.low,
            "ci_high": interval.high,
            "values_used": 0,
            "values_dropped": 0,
            "resamples": None,
            "draws_used": 0,
            "rounds": 0,
        }
    return None


@dataclasses.dataclass(slots=True)
class ProvenanceRecord:
    """Accuracy lineage of one emitted tuple at one operator."""

    shard: str
    stage: str
    stage_index: int
    out_seq: int
    attribute: str
    payload: str
    method: str | None
    sample_size: int | None
    confidence: float | None
    ci_low: float | None
    ci_high: float | None
    values_used: int = 0
    values_dropped: int = 0
    resamples: int | None = None
    draws_used: int = 0
    rounds: int = 0
    synopsis_error: float = 0.0
    lineage: dict[str, object] | None = None
    span_id: str | None = None

    @property
    def ci_width(self) -> float | None:
        if self.ci_low is None or self.ci_high is None:
            return None
        return self.ci_high - self.ci_low

    def fingerprint(self) -> tuple:
        return (
            self.attribute,
            self.payload,
            self.sample_size,
            self.ci_low,
            self.ci_high,
        )

    def to_dict(self) -> dict[str, object]:
        state = {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
        }
        if state["lineage"] is not None:
            state["lineage"] = dict(state["lineage"])
        return state

    @classmethod
    def from_dict(cls, state: dict[str, object]) -> "ProvenanceRecord":
        return cls(**state)  # type: ignore[arg-type]

    def describe(self) -> str:
        """One record as an indented multi-line block."""
        lines = [f"{self.stage} -> {self.attribute!r}"]
        bits = []
        if self.method is not None:
            bits.append(f"method={self.method}")
        if self.sample_size is not None:
            bits.append(f"n={self.sample_size}")
        if bits:
            lines.append("  " + ", ".join(bits))
        width = self.ci_width
        if width is not None and self.confidence is not None:
            lines.append(
                f"  mean CI [{self.ci_low:.6g}, {self.ci_high:.6g}] "
                f"@{self.confidence * 100:.0f}% (width {width:.6g})"
            )
        if self.method == "bootstrap":
            lines.append(
                f"  bootstrap r={self.resamples}, n={self.sample_size}, "
                f"values_used={self.values_used}, "
                f"values_dropped={self.values_dropped}, "
                f"draws_used={self.draws_used}, rounds={self.rounds}"
            )
        if self.synopsis_error:
            lines.append(
                f"  synopsis error +/-{self.synopsis_error:.6g} "
                f"(bounded-memory sketch; folded into the CI)"
            )
        lineage = self.lineage
        if lineage:
            inputs = lineage.get("inputs")
            if isinstance(inputs, Mapping) and inputs:
                rendered = ", ".join(
                    f"{name}(n={'exact' if size is None else size})"
                    for name, size in inputs.items()
                )
                lines.append(f"  inputs: {rendered}")
            df_size = lineage.get("df_size")
            if df_size is not None:
                min_input = lineage.get("min_input")
                suffix = (
                    f"; set by input {min_input!r}"
                    if min_input is not None
                    else ""
                )
                lines.append(
                    f"  de facto sample size (Lemma 3) = {df_size}{suffix}"
                )
            extra = lineage.get("window_fill")
            if extra is not None:
                lines.append(f"  window fill = {extra}")
        return "\n".join(lines)


class ProvenanceRecorder:
    """Collects :class:`ProvenanceRecord` objects for one tracer.

    Records are looked up from a result tuple two ways: by payload
    object identity (the accuracy attribute object an operator emitted
    is, in-process, the very object in the sink tuple) and — after a
    cross-worker merge re-pickled everything — by payload fingerprint
    (attribute name, sample size, CI bounds).
    """

    def __init__(
        self,
        shard: str = "main",
        seed: int = 0,
        sample_rate: float = 1.0,
        max_records: int | None = None,
    ) -> None:
        self.shard = shard
        self.seed = seed
        self.sample_rate = sample_rate
        self.max_records = max_records
        self.records: list[ProvenanceRecord] = []
        self._out_seq: dict[str, int] = {}
        self._by_payload_id: dict[int, list[int]] = {}

    def __len__(self) -> int:
        return len(self.records)

    def reset(self) -> None:
        self.records = []
        self._out_seq = {}
        self._by_payload_id = {}

    def _sampled(self, stage: str, out_seq: int) -> bool:
        rate = self.sample_rate
        if rate >= 1.0:
            return True
        if rate <= 0.0:
            return False
        digest = hashlib.blake2b(
            f"prov|{self.seed}|{self.shard}|{stage}|{out_seq}".encode(),
            digest_size=8,
        ).digest()
        return int.from_bytes(digest, "big") / 2.0**64 < rate

    def record(self, handle, operator, tup) -> ProvenanceRecord | None:
        """Record the accuracy lineage of one emitted tuple.

        ``handle`` is the operator's ``OperatorObserver``;
        ``operator`` supplies :meth:`trace_lineage`.  The per-stage output
        sequence number advances for every emitted tuple whether or not
        the record is sampled, so sampled sets are seed-stable.
        """
        stage = handle.name
        out_seq = self._out_seq.get(stage, 0)
        self._out_seq[stage] = out_seq + 1
        if not self._sampled(stage, out_seq):
            return None
        if (
            self.max_records is not None
            and len(self.records) >= self.max_records
        ):
            return None
        attribute = handle.accuracy_attribute
        value = tup.attributes.get(attribute)
        described = _describe_payload(value)
        if described is None:
            return None
        lineage = operator.trace_lineage(tup)
        span = handle.stage_span
        record = ProvenanceRecord(
            shard=self.shard,
            stage=stage,
            stage_index=handle.index,
            out_seq=out_seq,
            attribute=attribute,
            lineage=lineage,
            span_id=span.span_id if span is not None else None,
            **described,  # type: ignore[arg-type]
        )
        index = len(self.records)
        self.records.append(record)
        self._by_payload_id.setdefault(id(value), []).append(index)
        return record

    # ------------------------------------------------------------------
    # Serialization / merge (same contract as Tracer.snapshot)
    # ------------------------------------------------------------------

    def snapshot(self) -> list[dict[str, object]]:
        return [record.to_dict() for record in self.records]

    def merge(self, records: list[dict[str, object]]) -> None:
        """Fold a worker recorder's :meth:`snapshot` into this one.

        Merged records are reachable by fingerprint only — payload
        object identity does not survive pickling.
        """
        for state in records:
            self.records.append(ProvenanceRecord.from_dict(state))

    def deterministic_view(self) -> list[dict[str, object]]:
        """Record payloads canonically sorted; fully deterministic."""
        ordered = sorted(
            self.records,
            key=lambda r: (r.shard, r.stage_index, r.stage, r.out_seq),
        )
        return [record.to_dict() for record in ordered]

    # ------------------------------------------------------------------
    # Lookup + rendering
    # ------------------------------------------------------------------

    def find(self, tup) -> list[ProvenanceRecord]:
        """Every record attached to one result tuple, in stage order."""
        attributes = getattr(tup, "attributes", None)
        if attributes is None:
            raise ObservabilityError(
                f"explain() needs an UncertainTuple, got {type(tup).__name__}"
            )
        indices: set[int] = set()
        for value in attributes.values():
            indices.update(self._by_payload_id.get(id(value), ()))
        fingerprints = set()
        for name, value in attributes.items():
            described = _describe_payload(value)
            if described is not None:
                fingerprints.add(
                    (
                        name,
                        described["payload"],
                        described["sample_size"],
                        described["ci_low"],
                        described["ci_high"],
                    )
                )
        for index, record in enumerate(self.records):
            if index not in indices and record.fingerprint() in fingerprints:
                indices.add(index)
        return sorted(
            (self.records[i] for i in indices),
            key=lambda r: (r.stage_index, r.stage, r.shard, r.out_seq),
        )

    def explain(self, tup) -> str:
        """Render one result tuple's accuracy-provenance chain."""
        chain = self.find(tup)
        if not chain:
            return (
                "no provenance recorded for this tuple (was the tracer "
                "attached with provenance enabled, and sample_rate=1.0?)"
            )
        lines = [
            f"accuracy provenance ({len(chain)} "
            f"record{'s' if len(chain) != 1 else ''}):"
        ]
        previous_width: float | None = None
        for position, record in enumerate(chain):
            block = record.describe()
            width = record.ci_width
            if previous_width is not None and width is not None:
                block += (
                    f"\n  CI width {previous_width:.6g} -> {width:.6g} "
                    "through this stage"
                )
            if width is not None:
                previous_width = width
            indented = "\n".join(
                ("  " + line) if line else line
                for line in block.splitlines()
            )
            lines.append(f"[{position}] {indented.lstrip()}")
        return "\n".join(lines)


def explain(tup, tracer) -> str:
    """Module-level convenience: ``explain(result_tuple, tracer)``."""
    return tracer.explain(tup)
