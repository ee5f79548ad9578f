"""Bounded ring-buffer time series over a metrics registry.

Cumulative registry snapshots answer "what happened over the whole
run?"; SLOs need "what is happening *now*?".  A
:class:`TelemetryRecorder` downsamples every metric of a
:class:`~repro.obs.metrics.MetricsRegistry` into fixed-interval
:class:`Frame` deltas and keeps the most recent ``capacity`` frames in a
:class:`FrameSeries` ring buffer — bounded memory no matter how long the
stream runs.

Frames are keyed by **stream position** (tuple count), never wall
clock.  The pipeline calls :meth:`TelemetryRecorder.advance` with the
number of tuples it just pushed; a frame closes once at least
``frame_interval`` tuples have passed since the previous boundary.
Under sharded execution each shard's tuple sub-stream — and therefore
its frame boundaries and every per-frame delta except wall-clock timer
totals — is a pure function of ``(stream, partition key, pool size,
batch_size, frame_interval)``, so per-worker frame series merged in
shard order are byte-identical whether the shards ran in worker
processes or in-process (:meth:`FrameSeries.deterministic_view`
excludes the timer seconds, exactly like ``Tracer.deterministic_view``
excludes span timestamps).

Frame merge semantics mirror
:meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot`: counter /
timer / histogram deltas accumulate, state gauges
(:func:`~repro.obs.metrics.gauge_folds_by_sum`) sum, other gauges take
the last-merged shard's value.
"""

from __future__ import annotations

import dataclasses
import json
import math

from repro.errors import ObservabilityError
from repro.obs.metrics import MetricsRegistry, gauge_folds_by_sum

__all__ = [
    "TelemetryConfig",
    "Frame",
    "FrameSeries",
    "TelemetryRecorder",
]


@dataclasses.dataclass(frozen=True)
class TelemetryConfig:
    """Frame geometry: how often to cut frames, how many to retain.

    ``frame_interval`` is in *tuples of stream position*, not seconds —
    the determinism contract depends on it.  ``capacity`` bounds the
    ring buffer; older frames are dropped (and counted) once exceeded.
    """

    frame_interval: int = 256
    capacity: int = 256

    def __post_init__(self) -> None:
        if self.frame_interval < 1:
            raise ObservabilityError(
                f"frame_interval must be >= 1, got {self.frame_interval}"
            )
        if self.capacity < 1:
            raise ObservabilityError(
                f"capacity must be >= 1, got {self.capacity}"
            )


@dataclasses.dataclass
class Frame:
    """Per-metric deltas covering stream positions ``[start, end)``.

    ``metrics`` maps metric name to a delta state in the same shape as
    the registry snapshot of that metric type: counters carry the value
    delta, timers the call-count and wall-seconds deltas, histograms the
    count/sum deltas plus cumulative per-bucket count deltas (a delta of
    cumulative counts is itself cumulative over the frame), and gauges
    the point-in-time value at the frame's end.
    """

    index: int
    start: int
    end: int
    metrics: dict[str, dict[str, object]]

    def to_dict(self) -> dict[str, object]:
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "metrics": self.metrics,
        }

    def deterministic_dict(self) -> dict[str, object]:
        """Like :meth:`to_dict` minus the wall-clock timer seconds.

        Timer call counts are deterministic; the accumulated seconds
        are not, so they are excluded wherever byte-identity matters
        (frame-series views, alert attachments).
        """
        metrics: dict[str, dict[str, object]] = {}
        for name, state in self.metrics.items():
            if state.get("type") == "timer":
                metrics[name] = {"type": "timer", "count": state["count"]}
            else:
                metrics[name] = _copy_state(state)
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "metrics": metrics,
        }

    @classmethod
    def from_dict(cls, state: dict[str, object]) -> "Frame":
        return cls(
            index=int(state["index"]),  # type: ignore[arg-type]
            start=int(state["start"]),  # type: ignore[arg-type]
            end=int(state["end"]),  # type: ignore[arg-type]
            metrics={
                name: dict(metric)
                for name, metric in state["metrics"].items()  # type: ignore[union-attr]
            },
        )

    def fold(self, incoming: dict[str, dict[str, object]]) -> None:
        """Accumulate another shard's deltas for the same frame index."""
        for name, state in incoming.items():
            mine = self.metrics.get(name)
            if mine is None:
                self.metrics[name] = _copy_state(state)
                continue
            kind = state.get("type")
            if kind != mine.get("type"):
                raise ObservabilityError(
                    f"frame metric {name!r} type mismatch: "
                    f"{mine.get('type')!r} vs incoming {kind!r}"
                )
            if kind == "counter":
                mine["value"] = int(mine["value"]) + int(state["value"])  # type: ignore[arg-type]
            elif kind == "gauge":
                if gauge_folds_by_sum(name):
                    mine["value"] = (
                        float(mine["value"]) + float(state["value"])  # type: ignore[arg-type]
                    )
                else:
                    mine["value"] = float(state["value"])  # type: ignore[arg-type]
            elif kind == "timer":
                mine["count"] = int(mine["count"]) + int(state["count"])  # type: ignore[arg-type]
                mine["total_seconds"] = float(
                    mine["total_seconds"]  # type: ignore[arg-type]
                ) + float(state["total_seconds"])  # type: ignore[arg-type]
            elif kind == "histogram":
                _fold_histogram(name, mine, state)
            else:
                raise ObservabilityError(
                    f"cannot fold frame metric {name!r} of unknown "
                    f"type {kind!r}"
                )


def _copy_state(state: dict[str, object]) -> dict[str, object]:
    copied = dict(state)
    buckets = copied.get("buckets")
    if isinstance(buckets, list):
        copied["buckets"] = [dict(b) for b in buckets]
    return copied


def _fold_histogram(
    name: str, mine: dict[str, object], state: dict[str, object]
) -> None:
    my_buckets: list[dict[str, object]] = mine["buckets"]  # type: ignore[assignment]
    in_buckets: list[dict[str, object]] = state["buckets"]  # type: ignore[assignment]
    my_bounds = [float(b["le"]) for b in my_buckets]  # type: ignore[arg-type]
    in_bounds = [float(b["le"]) for b in in_buckets]  # type: ignore[arg-type]
    if my_bounds != in_bounds:
        raise ObservabilityError(
            f"frame histogram {name!r} bucket bounds differ: "
            f"{my_bounds} vs incoming {in_bounds}"
        )
    for slot, bucket in zip(my_buckets, in_buckets):
        slot["count"] = int(slot["count"]) + int(bucket["count"])  # type: ignore[arg-type]
    mine["count"] = int(mine["count"]) + int(state["count"])  # type: ignore[arg-type]
    mine["sum"] = float(mine["sum"]) + float(state["sum"])  # type: ignore[arg-type]


def _snapshot_delta(
    baseline: dict[str, dict[str, object]],
    current: dict[str, dict[str, object]],
) -> dict[str, dict[str, object]]:
    """Per-metric delta between two registry snapshots.

    Metrics with no activity in the window (zero counter/timer/histogram
    delta and, for gauges, no registration change) are omitted, keeping
    idle frames small.  Gauges always report their current value when
    present — a gauge is point-in-time, not a rate.
    """
    deltas: dict[str, dict[str, object]] = {}
    for name, state in current.items():
        kind = state.get("type")
        previous = baseline.get(name)
        if kind == "counter":
            before = int(previous["value"]) if previous else 0  # type: ignore[arg-type]
            delta = int(state["value"]) - before  # type: ignore[arg-type]
            if delta:
                deltas[name] = {"type": "counter", "value": delta}
        elif kind == "gauge":
            deltas[name] = {
                "type": "gauge",
                "value": float(state["value"]),  # type: ignore[arg-type]
            }
        elif kind == "timer":
            before_count = int(previous["count"]) if previous else 0  # type: ignore[arg-type]
            before_total = (
                float(previous["total_seconds"]) if previous else 0.0  # type: ignore[arg-type]
            )
            dcount = int(state["count"]) - before_count  # type: ignore[arg-type]
            if dcount:
                deltas[name] = {
                    "type": "timer",
                    "count": dcount,
                    "total_seconds": float(state["total_seconds"])  # type: ignore[arg-type]
                    - before_total,
                }
        elif kind == "histogram":
            before_count = int(previous["count"]) if previous else 0  # type: ignore[arg-type]
            dcount = int(state["count"]) - before_count  # type: ignore[arg-type]
            if not dcount:
                continue
            buckets: list[dict[str, object]] = state["buckets"]  # type: ignore[assignment]
            if previous:
                prev_buckets: list[dict[str, object]] = previous["buckets"]  # type: ignore[assignment]
                delta_buckets = [
                    {
                        "le": bucket["le"],
                        "count": int(bucket["count"])  # type: ignore[arg-type]
                        - int(prev["count"]),  # type: ignore[arg-type]
                    }
                    for bucket, prev in zip(buckets, prev_buckets)
                ]
            else:
                delta_buckets = [dict(bucket) for bucket in buckets]
            before_sum = float(previous["sum"]) if previous else 0.0  # type: ignore[arg-type]
            deltas[name] = {
                "type": "histogram",
                "count": dcount,
                "sum": float(state["sum"]) - before_sum,  # type: ignore[arg-type]
                "buckets": delta_buckets,
            }
    return deltas


class FrameSeries:
    """A bounded ring of frames, oldest dropped first."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ObservabilityError(
                f"capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self.frames: list[Frame] = []
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self):
        return iter(self.frames)

    def append(self, frame: Frame) -> None:
        self.frames.append(frame)
        if len(self.frames) > self.capacity:
            del self.frames[0]
            self.dropped += 1

    def fold_frame(self, state: dict[str, object]) -> None:
        """Merge one shipped frame dict by index (shard-order folding)."""
        incoming = Frame.from_dict(state)
        for frame in self.frames:
            if frame.index == incoming.index:
                frame.start += incoming.start
                frame.end += incoming.end
                frame.fold(incoming.metrics)
                return
        self.append(incoming)
        self.frames.sort(key=lambda f: f.index)

    def to_dicts(self) -> list[dict[str, object]]:
        return [frame.to_dict() for frame in self.frames]

    def deterministic_view(self) -> list[dict[str, object]]:
        """Frames with the wall-clock timer seconds removed.

        Timer *call counts* are deterministic (one record per hook
        invocation); the accumulated seconds are not, so they are
        dropped — the view of a merged series is byte-identical whether
        its shards ran in worker processes or in-process.
        """
        return [frame.deterministic_dict() for frame in self.frames]


def _jsonable(value: object) -> object:
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    return value


class TelemetryRecorder:
    """Cuts fixed-interval frames from a registry as the stream advances.

    The recorder owns (or wraps) the registry it diffs.  Attach it to a
    pipeline via ``Pipeline(..., telemetry=recorder)`` or
    :meth:`Pipeline.attach_telemetry`; the pipeline calls
    :meth:`advance` per pushed tuple/batch and :meth:`finalize` at
    end-of-run to close the trailing partial frame.  In sharded
    execution every worker records into a private recorder and the
    parent folds the shipped series frame-by-frame in shard order
    (:meth:`merge_snapshot`).
    """

    def __init__(
        self,
        config: TelemetryConfig | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.config = config if config is not None else TelemetryConfig()
        self.registry = (
            registry if registry is not None else MetricsRegistry()
        )
        self.series = FrameSeries(self.config.capacity)
        self.position = 0
        self._frame_start = 0
        self._frame_index = 0
        self._baseline: dict[str, dict[str, object]] = {}

    def advance(self, tuples: int) -> None:
        """Move the stream position; cut a frame at each boundary."""
        self.position += tuples
        if self.position - self._frame_start >= self.config.frame_interval:
            self._capture()

    def finalize(self) -> None:
        """Close the trailing partial frame at end-of-run, if any."""
        if self.position > self._frame_start:
            self._capture()

    def _capture(self) -> None:
        current = self.registry.snapshot()
        self.series.append(
            Frame(
                index=self._frame_index,
                start=self._frame_start,
                end=self.position,
                metrics=_snapshot_delta(self._baseline, current),
            )
        )
        self._frame_index += 1
        self._frame_start = self.position
        self._baseline = current

    def snapshot(self) -> dict[str, object]:
        """Shippable state: config + every retained frame (plain dicts)."""
        return {
            "frame_interval": self.config.frame_interval,
            "dropped": self.series.dropped,
            "frames": self.series.to_dicts(),
        }

    def merge_snapshot(self, state: dict[str, object]) -> None:
        """Fold one worker's shipped series into this recorder's.

        Frames fold by index: counter/timer/histogram deltas sum, state
        gauges sum, other gauges take the last-merged shard's value —
        call in shard order, exactly like
        :meth:`MetricsRegistry.merge_snapshot`.
        """
        if int(state["frame_interval"]) != self.config.frame_interval:  # type: ignore[arg-type]
            raise ObservabilityError(
                f"cannot merge telemetry with frame_interval "
                f"{state['frame_interval']} into a recorder at "
                f"{self.config.frame_interval}"
            )
        self.series.dropped += int(state.get("dropped", 0))  # type: ignore[arg-type]
        for frame_state in state["frames"]:  # type: ignore[union-attr]
            self.series.fold_frame(frame_state)

    def resync(self) -> None:
        """Re-baseline against the registry's current cumulative state.

        Call after folding external snapshots into :attr:`registry`
        (e.g. the post-shard metrics merge) so the next locally-cut
        frame measures only new activity, not the merged history.
        """
        self._baseline = self.registry.snapshot()

    def to_json(
        self, deterministic: bool = False, indent: int | None = None
    ) -> str:
        """The series as strict JSON (non-finite floats become null)."""
        frames = (
            self.series.deterministic_view()
            if deterministic
            else self.series.to_dicts()
        )
        payload = {
            "frame_interval": self.config.frame_interval,
            "dropped": self.series.dropped,
            "frames": frames,
        }
        return json.dumps(
            _jsonable(payload), indent=indent, allow_nan=False
        )
