"""Deterministic alert log over SLO evaluations.

Alerts here are a pure function of the (merged) frame series and the
rule set — no wall clock, no randomness — so equal frame series give
byte-identical alert logs, whether the shards behind a merged series
ran in worker processes or in-process.

Per rule, the state machine over frame indices is::

    ok ──bad frame──▶ pending ──both windows over budget──▶ firing
     ▲                   │                                     │
     └──short window clean┴──────────short window clean────────┘
                                                        (resolved)

Every transition appends an :class:`AlertEvent` carrying the offending
frame (for *pending*/*firing*) so an operator can see exactly which
deltas tripped the rule.  Exports: JSON lines (:meth:`AlertLog.to_jsonl`),
labeled Prometheus series (:meth:`AlertLog.render_prometheus`, via
:func:`~repro.obs.metrics.prometheus_sample`), and a plain-text health
table (:func:`render_health_table`).

When a :class:`~repro.obs.provenance.ProvenanceRecorder` is supplied,
``de_facto_n`` transitions are annotated with the recorded input that
set the de facto sample size (the Lemma-3 minimum), reusing the
recorder's lineage/``explain`` machinery.
"""

from __future__ import annotations

import dataclasses
import json

from repro.obs.metrics import jsonable, prometheus_sample
from repro.obs.slo import (
    RuleEvaluation,
    SloRule,
    evaluate_rules,
    frame_signal,
)
from repro.obs.timeseries import FrameSeries

__all__ = [
    "AlertEvent",
    "AlertLog",
    "render_health_table",
]

_STATE_VALUES = {"ok": 0, "pending": 1, "firing": 2, "resolved": 0}


@dataclasses.dataclass
class AlertEvent:
    """One state transition of one rule."""

    rule: str
    signal: str
    state: str
    frame_index: int
    value: float | None
    threshold: float
    short_fraction: float
    long_fraction: float
    frame: dict[str, object] | None = None
    annotation: str | None = None

    def to_dict(self) -> dict[str, object]:
        state = dataclasses.asdict(self)
        return jsonable(state)  # type: ignore[return-value]


def _annotate(rule: SloRule, provenance) -> str | None:
    """Name the input that set the de facto size, via provenance lineage."""
    if provenance is None or rule.signal != "de_facto_n":
        return None
    records = getattr(provenance, "records", None)
    if not records:
        return None
    worst = min(
        (r for r in records if r.sample_size is not None),
        key=lambda r: r.sample_size,
        default=None,
    )
    if worst is None:
        return None
    text = (
        f"smallest de facto sample size n={worst.sample_size} emitted by "
        f"{worst.stage} for attribute {worst.attribute!r}"
    )
    lineage = worst.lineage or {}
    min_input = lineage.get("min_input")
    if min_input is not None:
        text += f"; set by input {min_input!r} (Lemma 3 minimum)"
    return text


class AlertLog:
    """Evaluates rules over a series and logs state transitions."""

    def __init__(self) -> None:
        self.events: list[AlertEvent] = []
        self.states: dict[str, str] = {}

    def __len__(self) -> int:
        return len(self.events)

    def evaluate(
        self,
        series: FrameSeries,
        rules: "list[SloRule]",
        provenance=None,
    ) -> list[AlertEvent]:
        """Run every rule's state machine over the series from scratch.

        The log is rebuilt deterministically on each call (clear +
        replay), so evaluating the same merged series always yields the
        same event sequence regardless of how many times — or on how
        many workers' partial views — it was previously evaluated.
        """
        self.events = []
        self.states = {}
        frames = {frame.index: frame for frame in series}
        for evaluation in evaluate_rules(series, rules):
            self._replay(evaluation, frames, provenance)
        return self.events

    def _replay(
        self,
        evaluation: RuleEvaluation,
        frames: dict[int, object],
        provenance,
    ) -> None:
        rule = evaluation.rule
        state = "ok"
        for verdict in evaluation.verdicts:
            next_state = state
            if state in ("ok", "resolved"):
                if verdict.burning:
                    next_state = "firing"
                elif verdict.bad:
                    next_state = "pending"
            elif state == "pending":
                if verdict.burning:
                    next_state = "firing"
                elif verdict.short_fraction == 0.0:
                    next_state = "ok"
            elif state == "firing":
                if verdict.short_fraction == 0.0:
                    next_state = "resolved"
            if next_state != state:
                frame = frames.get(verdict.frame_index)
                attach = next_state in ("pending", "firing")
                self.events.append(
                    AlertEvent(
                        rule=rule.text,
                        signal=rule.signal,
                        state=next_state,
                        frame_index=verdict.frame_index,
                        value=verdict.value,
                        threshold=rule.threshold,
                        short_fraction=verdict.short_fraction,
                        long_fraction=verdict.long_fraction,
                        # The deterministic view: attached frames must
                        # keep the log byte-identical across worker
                        # counts, so wall-clock timer seconds stay out.
                        frame=(
                            frame.deterministic_dict()
                            if attach and frame is not None
                            else None
                        ),
                        annotation=(
                            _annotate(rule, provenance)
                            if next_state == "firing"
                            else None
                        ),
                    )
                )
                state = next_state
        self.states[rule.text] = state

    def to_jsonl(self) -> str:
        """One strict-JSON object per event (non-finite floats -> null)."""
        return "\n".join(
            json.dumps(event.to_dict(), allow_nan=False)
            for event in self.events
        ) + ("\n" if self.events else "")

    def render_prometheus(self) -> str:
        """Labeled gauge series: current state + transition counts."""
        lines = [
            "# TYPE slo_alert_state gauge",
            "# HELP slo_alert_state current alert state per SLO rule "
            "(0 ok/resolved, 1 pending, 2 firing)",
        ]
        for rule_text, state in self.states.items():
            lines.append(
                prometheus_sample(
                    "slo_alert_state",
                    _STATE_VALUES[state],
                    {"rule": rule_text, "state": state},
                )
            )
        lines.append("# TYPE slo_alert_transitions_total counter")
        counts: dict[tuple[str, str], int] = {}
        for event in self.events:
            key = (event.rule, event.state)
            counts[key] = counts.get(key, 0) + 1
        for (rule_text, state), count in counts.items():
            lines.append(
                prometheus_sample(
                    "slo_alert_transitions_total",
                    count,
                    {"rule": rule_text, "state": state},
                )
            )
        return "\n".join(lines) + "\n"


def render_health_table(
    series: FrameSeries,
    rules: "list[SloRule]",
    log: AlertLog | None = None,
) -> str:
    """Per-rule health: latest value, windows, state — plain text.

    Evaluates the rules against the series (reusing ``log`` if given so
    its states match what was exported) and renders one row per rule.
    """
    from repro.experiments.harness import render_table

    if log is None:
        log = AlertLog()
        log.evaluate(series, rules)
    evaluations = evaluate_rules(series, rules)
    rows = []
    for evaluation in evaluations:
        rule = evaluation.rule
        last = evaluation.verdicts[-1] if evaluation.verdicts else None
        latest = series.frames[-1] if series.frames else None
        value = (
            frame_signal(latest, rule.signal, rule.agg, rule.operator)
            if latest is not None
            else None
        )
        rows.append(
            [
                rule.text,
                "-" if value is None else value,
                "-" if last is None else f"{last.short_fraction:.2f}",
                "-" if last is None else f"{last.long_fraction:.2f}",
                log.states.get(rule.text, "ok"),
            ]
        )
    return render_table(
        ["rule", "latest", "burn_s", "burn_l", "state"],
        rows,
        title=f"SLO health ({len(series)} frames)",
        align=["l", "r", "r", "r", "l"],
    )
