"""Trace exporters: Chrome trace-event JSON, strict span dumps, text tree.

Three consumers, three formats:

* :func:`to_chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event format (``{"traceEvents": [...]}``) that loads directly in
  Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``.  Shards
  map to processes, stages to threads, batch spans nest under their
  stage track.
* :func:`spans_to_json` — a strict-JSON dump of the raw span set and
  provenance records for programmatic consumers; with
  ``deterministic=True`` it serializes :meth:`Tracer.deterministic_view`
  (wall-clock free), the object the sharded determinism contract
  quantifies over.
* :func:`render_trace_tree` — a terminal tree view of the span forest.

All JSON produced here is strict RFC 8259: ``allow_nan=False`` and
non-finite floats sanitized to ``null`` before encoding, mirroring the
persistence layer.  :func:`validate_chrome_trace` parses with a
``parse_constant`` hook that *rejects* ``NaN``/``Infinity`` literals, so
round-tripping through it proves strictness rather than assuming it.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING

from repro.errors import ObservabilityError
from repro.obs.metrics import jsonable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.obs.trace import Span, Tracer

__all__ = [
    "chrome_trace_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "spans_to_json",
    "render_trace_tree",
    "validate_chrome_trace",
]

#: Trace-event phase codes we emit: complete events and metadata.
_PHASES = ("X", "M")


def _shard_pids(spans: "list[Span]") -> dict[str, int]:
    """Stable shard-label -> pid mapping (sorted, so merge-order free)."""
    return {
        shard: pid
        for pid, shard in enumerate(sorted({s.shard for s in spans}))
    }


def _span_tid(span: "Span") -> int:
    """Track within a shard's process: run on 0, stages on index+1."""
    if span.kind in ("run", "shard"):
        return 0
    index = span.attrs.get("stage_index")
    if isinstance(index, int):
        return index + 1
    return 0


def chrome_trace_events(tracer: "Tracer") -> list[dict[str, object]]:
    """The tracer's spans as a list of Chrome trace-event dicts.

    Timestamps are rebased to the earliest span start (Perfetto expects
    microseconds from a common origin; ``perf_counter`` origins are
    process-local and merged worker spans would otherwise interleave
    nonsensically — rebasing per shard keeps each process track
    self-consistent).
    """
    spans = tracer.spans
    pids = _shard_pids(spans)
    origins: dict[str, float] = {}
    for span in spans:
        if math.isfinite(span.start):
            origin = origins.get(span.shard)
            if origin is None or span.start < origin:
                origins[span.shard] = span.start

    events: list[dict[str, object]] = []
    named_tracks: set[tuple[int, int]] = set()
    for shard, pid in pids.items():
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"repro shard {shard}"},
            }
        )
    for span in spans:
        pid = pids[span.shard]
        tid = _span_tid(span)
        if (pid, tid) not in named_tracks and span.kind in (
            "run",
            "shard",
            "stage",
        ):
            named_tracks.add((pid, tid))
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": span.name},
                }
            )
        origin = origins.get(span.shard, 0.0)
        start = span.start if math.isfinite(span.start) else origin
        duration = span.duration
        if not math.isfinite(duration) or duration < 0.0:
            duration = 0.0
        args: dict[str, object] = {
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "shard": span.shard,
            "seq": span.seq,
        }
        args.update(span.attrs)
        events.append(
            {
                "name": span.name,
                "cat": span.kind,
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": (start - origin) * 1e6,
                "dur": duration * 1e6,
                "args": jsonable(args),
            }
        )
    return events


def to_chrome_trace(tracer: "Tracer") -> dict[str, object]:
    """Full trace-event JSON object (``{"traceEvents": [...]}``)."""
    return {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {"format": "repro-trace", "shard": tracer.shard},
    }


def write_chrome_trace(tracer: "Tracer", path: str) -> str:
    """Serialize :func:`to_chrome_trace` to ``path``; returns the text."""
    text = json.dumps(
        to_chrome_trace(tracer), allow_nan=False, indent=2, sort_keys=True
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.write("\n")
    return text


def spans_to_json(tracer: "Tracer", deterministic: bool = False) -> str:
    """Strict-JSON dump of the span set plus provenance records.

    ``deterministic=True`` drops wall-clock fields and canonically sorts
    spans and records, producing the exact payload the cross-worker
    determinism contract promises is worker-count independent.
    """
    if deterministic:
        payload: dict[str, object] = {
            "shard": tracer.shard,
            "spans": tracer.deterministic_view(),
            "provenance": (
                tracer.provenance.deterministic_view()
                if tracer.provenance is not None
                else []
            ),
        }
    else:
        payload = tracer.snapshot()
    return json.dumps(
        jsonable(payload), allow_nan=False, indent=2, sort_keys=True
    )


def _reject_constant(literal: str) -> object:
    raise ObservabilityError(
        f"non-strict JSON constant {literal!r} in exported trace "
        "(RFC 8259 forbids NaN/Infinity)"
    )


def validate_chrome_trace(text: str) -> dict[str, object]:
    """Parse + schema-check an exported Chrome trace; returns the object.

    Raises :class:`~repro.errors.ObservabilityError` when the text is
    not strict JSON (``NaN``/``Infinity`` literals rejected), is not a
    trace-event container, or any event is missing required fields.
    """
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ObservabilityError(
            f"exported trace is not valid JSON: {exc}"
        ) from exc
    if not isinstance(obj, dict) or "traceEvents" not in obj:
        raise ObservabilityError(
            "trace-event JSON must be an object with a 'traceEvents' key"
        )
    events = obj["traceEvents"]
    if not isinstance(events, list):
        raise ObservabilityError("'traceEvents' must be a list")
    for position, event in enumerate(events):
        if not isinstance(event, dict):
            raise ObservabilityError(
                f"traceEvents[{position}] is not an object"
            )
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                raise ObservabilityError(
                    f"traceEvents[{position}] missing required key {key!r}"
                )
        phase = event["ph"]
        if phase not in _PHASES:
            raise ObservabilityError(
                f"traceEvents[{position}] has unsupported phase {phase!r}"
            )
        if phase == "X":
            for key in ("ts", "dur"):
                value = event.get(key)
                if not isinstance(value, (int, float)) or not math.isfinite(
                    value
                ):
                    raise ObservabilityError(
                        f"traceEvents[{position}].{key} must be a finite "
                        f"number, got {value!r}"
                    )
            if event["dur"] < 0:
                raise ObservabilityError(
                    f"traceEvents[{position}].dur is negative"
                )
    return obj


def _format_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}us"


def _format_attrs(attrs: dict[str, object]) -> str:
    if not attrs:
        return ""
    rendered = " ".join(f"{key}={value}" for key, value in attrs.items())
    return f"  [{rendered}]"


def render_trace_tree(tracer: "Tracer") -> str:
    """Terminal tree view of the span forest, children in (shard, seq)
    order under each parent; orphans (merged spans whose parent lives in
    another snapshot) surface as roots rather than disappearing."""
    spans = sorted(tracer.spans, key=lambda s: (s.shard, s.seq))
    if not spans:
        return "(no spans recorded)"
    by_id = {span.span_id: span for span in spans}
    children: dict[str | None, list] = {}
    for span in spans:
        parent = span.parent_id if span.parent_id in by_id else None
        children.setdefault(parent, []).append(span)

    lines: list[str] = []

    def walk(span, prefix: str, is_last: bool, is_root: bool) -> None:
        connector = "" if is_root else ("`- " if is_last else "|- ")
        lines.append(
            f"{prefix}{connector}{span.kind} {span.name} "
            f"({span.shard}) {_format_duration(span.duration)}"
            f"{_format_attrs(span.attrs)}"
        )
        kids = children.get(span.span_id, [])
        child_prefix = prefix if is_root else (
            prefix + ("   " if is_last else "|  ")
        )
        for position, child in enumerate(kids):
            walk(child, child_prefix, position == len(kids) - 1, False)

    roots = children.get(None, [])
    for position, root in enumerate(roots):
        walk(root, "", position == len(roots) - 1, True)
    return "\n".join(lines)
