"""Lightweight metric primitives and the registry that collects them.

Four primitives cover what a stream engine needs to explain itself:

* :class:`Counter` — monotone event count (tuples in/out, runs, drops).
* :class:`Gauge` — a point-in-time value (window fill, queue depth).
* :class:`Timer` — accumulated wall-time with count/min/max, so both
  totals and per-call latency fall out of one metric.
* :class:`Histogram` — fixed-bucket distribution sketch (batch sizes,
  confidence-interval widths, de facto sample sizes).

All primitives are plain Python objects with O(1) updates and no locks —
the engine is single-process, and the hot path must stay cheap even in
enabled mode.  A :class:`MetricsRegistry` owns metrics by name with
get-or-create semantics and exports three views: a structured
:meth:`~MetricsRegistry.snapshot` dict, a Prometheus-style text dump
(:meth:`~MetricsRegistry.render_prometheus`), and JSON
(:meth:`~MetricsRegistry.to_json`).
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left
from collections.abc import Sequence

from repro.errors import ObservabilityError

__all__ = [
    "Counter",
    "Gauge",
    "Timer",
    "Histogram",
    "MetricsRegistry",
    "exponential_buckets",
    "linear_buckets",
    "gauge_folds_by_sum",
    "prometheus_sample",
]

#: Gauge-name suffixes whose cross-worker fold is a SUM, not last-write.
#: ``<op>.state.bytes`` reports the retained state of ONE shard's copy of
#: an operator; the fleet-level answer to "how much memory does this
#: stage hold?" is the sum over shards, whereas point-in-time gauges like
#: queue depth or ``multiquery.groups`` describe a single process and
#: keep last-write-wins semantics (see docs/MONITORING.md).
SUMMED_GAUGE_SUFFIXES = (".state.bytes",)


def gauge_folds_by_sum(name: str) -> bool:
    """Whether a gauge of this name sums across worker snapshots."""
    return name.endswith(SUMMED_GAUGE_SUFFIXES)


def jsonable(value: object) -> object:
    """``value`` with non-finite floats turned into ``None``, recursively.

    Every strict-JSON export in :mod:`repro.obs` encodes through this
    with ``allow_nan=False`` (RFC 8259 has no NaN or Infinity).
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def exponential_buckets(
    start: float, factor: float, count: int
) -> tuple[float, ...]:
    """``count`` bucket upper bounds growing geometrically from ``start``."""
    if start <= 0:
        raise ObservabilityError(f"bucket start must be > 0, got {start}")
    if factor <= 1.0:
        raise ObservabilityError(f"bucket factor must be > 1, got {factor}")
    if count < 1:
        raise ObservabilityError(f"bucket count must be >= 1, got {count}")
    return tuple(start * factor**i for i in range(count))


def linear_buckets(
    start: float, width: float, count: int
) -> tuple[float, ...]:
    """``count`` bucket upper bounds spaced ``width`` apart from ``start``."""
    if width <= 0:
        raise ObservabilityError(f"bucket width must be > 0, got {width}")
    if count < 1:
        raise ObservabilityError(f"bucket count must be >= 1, got {count}")
    return tuple(start + width * i for i in range(count))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def reset(self) -> None:
        self._value = 0

    def snapshot(self) -> dict[str, object]:
        return {"type": "counter", "value": self._value}


class Gauge:
    """A value that can go up and down; records the latest observation."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self._value = 0.0

    def snapshot(self) -> dict[str, object]:
        return {"type": "gauge", "value": self._value}


class Timer:
    """Accumulated wall-clock seconds with per-call count/min/max.

    ``record`` takes an elapsed duration in seconds; use it with
    ``time.perf_counter()`` deltas.  The mean call latency is derived in
    the snapshot, so the hot path stores only four floats.
    """

    __slots__ = ("name", "help", "count", "total", "_min", "_max")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = 0.0

    def record(self, seconds: float) -> None:
        if seconds < 0:
            # Clock adjustments can produce tiny negative deltas; clamp
            # rather than poisoning min/max with nonsense.
            seconds = 0.0
        self.count += 1
        self.total += seconds
        if seconds < self._min:
            self._min = seconds
        if seconds > self._max:
            self._max = seconds

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = 0.0

    def snapshot(self) -> dict[str, object]:
        return {
            "type": "timer",
            "count": self.count,
            "total_seconds": self.total,
            "mean_seconds": self.mean,
            "min_seconds": self._min if self.count else None,
            "max_seconds": self._max if self.count else None,
        }


class Histogram:
    """Fixed-bucket histogram: counts of observations per upper bound.

    ``buckets`` are ascending upper bounds; every observation lands in
    the first bucket whose bound is >= the value, or the implicit +Inf
    overflow bucket.  Updates are one bisect over a small tuple — O(log
    #buckets) with no allocation.
    """

    __slots__ = ("name", "help", "buckets", "_counts", "count", "sum",
                 "_min", "_max")

    def __init__(
        self, name: str, buckets: Sequence[float], help: str = ""
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ObservabilityError(
                f"histogram {name!r} needs at least one bucket bound"
            )
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ObservabilityError(
                f"histogram {name!r} bucket bounds must be strictly "
                f"ascending, got {bounds}"
            )
        self.name = name
        self.help = help
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self.count = 0
        self.sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            raise ObservabilityError(
                f"histogram {self.name!r} cannot observe NaN"
            )
        self._counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative (upper_bound, count) pairs, Prometheus-style."""
        pairs: list[tuple[float, int]] = []
        cumulative = 0
        for bound, n in zip(self.buckets, self._counts):
            cumulative += n
            pairs.append((bound, cumulative))
        pairs.append((math.inf, self.count))
        return pairs

    def reset(self) -> None:
        self._counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def snapshot(self) -> dict[str, object]:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self._min if self.count else None,
            "max": self._max if self.count else None,
            "buckets": [
                {"le": bound, "count": n}
                for bound, n in self.bucket_counts()
            ],
        }


Metric = Counter | Gauge | Timer | Histogram

_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    sanitized = _PROM_INVALID.sub("_", name)
    if not sanitized:
        return "_"
    if sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _prom_float(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


def _prom_help(text: str) -> str:
    """HELP-text escaping per the exposition format: ``\\`` and newline.

    Unescaped newlines would smuggle arbitrary lines (even fake metric
    samples) into the dump; unescaped backslashes corrupt the escape
    sequences of a conforming parser.
    """
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _prom_label_value(text: str) -> str:
    """Label-value escaping: ``\\``, ``\"`` and newline."""
    return (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def prometheus_sample(
    name: str,
    value: float,
    labels: "dict[str, object] | None" = None,
) -> str:
    """One exposition-format sample line, with optional labels.

    Metric and label names are sanitized through :func:`_prom_name`,
    label values through :func:`_prom_label_value`, and the value through
    :func:`_prom_float` — so any Python strings produce a line a strict
    exposition parser accepts.  This is the helper behind histogram
    ``_bucket{le=...}`` lines and the labeled SLO/alert series exported
    by :mod:`repro.obs.alerts`.
    """
    prom = _prom_name(name)
    if labels:
        body = ",".join(
            f'{_prom_name(str(key))}="{_prom_label_value(str(val))}"'
            for key, val in labels.items()
        )
        return f"{prom}{{{body}}} {_prom_float(float(value))}"
    return f"{prom} {_prom_float(float(value))}"


class MetricsRegistry:
    """Named metrics with get-or-create semantics and structured exports.

    Accessors (`counter`, `gauge`, `timer`, `histogram`) return the
    existing metric when the name is already registered — so operators
    re-attached to the same registry accumulate rather than clobber —
    and raise :class:`ObservabilityError` on a type conflict.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def _get_or_create(self, cls: type, name: str, *args, **kwargs) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise ObservabilityError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {cls.__name__}"
                )
            return existing
        metric = cls(name, *args, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)  # type: ignore[return-value]

    def timer(self, name: str, help: str = "") -> Timer:
        return self._get_or_create(Timer, name, help)  # type: ignore[return-value]

    def histogram(
        self, name: str, buckets: Sequence[float], help: str = ""
    ) -> Histogram:
        return self._get_or_create(Histogram, name, buckets, help)  # type: ignore[return-value]

    def get(self, name: str) -> Metric:
        try:
            return self._metrics[name]
        except KeyError:
            raise ObservabilityError(f"no metric named {name!r}") from None

    def names(self) -> list[str]:
        return list(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def reset(self) -> None:
        """Zero every metric (registrations are kept)."""
        for metric in self._metrics.values():
            metric.reset()

    def snapshot(self) -> dict[str, dict[str, object]]:
        """``{metric name: structured state}`` for every metric."""
        return {
            name: metric.snapshot()
            for name, metric in self._metrics.items()
        }

    def merge_snapshot(self, snapshot: dict[str, dict[str, object]]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        This is how per-worker metrics come home from sharded pipeline
        execution: each worker records into a private registry, ships
        the snapshot back (plain dicts pickle cheaply), and the parent
        merges them in shard order.  Counters, timers, and histograms
        accumulate; gauges take the incoming value (last write wins),
        EXCEPT state gauges (:data:`SUMMED_GAUGE_SUFFIXES`, i.e.
        ``<op>.state.bytes``) which sum — each worker reports its own
        shard's retained state, and the fleet total is their sum.
        Missing metrics are created; a name already registered as a
        different type raises :class:`ObservabilityError`.
        """
        for name, state in snapshot.items():
            kind = state.get("type")
            if kind == "counter":
                self.counter(name).inc(int(state["value"]))  # type: ignore[arg-type]
            elif kind == "gauge":
                gauge = self.gauge(name)
                if gauge_folds_by_sum(name):
                    gauge.inc(float(state["value"]))  # type: ignore[arg-type]
                else:
                    gauge.set(float(state["value"]))  # type: ignore[arg-type]
            elif kind == "timer":
                timer = self.timer(name)
                count = int(state["count"])  # type: ignore[arg-type]
                if count:
                    timer.count += count
                    timer.total += float(state["total_seconds"])  # type: ignore[arg-type]
                    low = state.get("min_seconds")
                    high = state.get("max_seconds")
                    if low is not None and float(low) < timer._min:  # type: ignore[arg-type]
                        timer._min = float(low)  # type: ignore[arg-type]
                    if high is not None and float(high) > timer._max:  # type: ignore[arg-type]
                        timer._max = float(high)  # type: ignore[arg-type]
            elif kind == "histogram":
                self._merge_histogram(name, state)
            else:
                raise ObservabilityError(
                    f"cannot merge metric {name!r} of unknown type {kind!r}"
                )

    def _merge_histogram(self, name: str, state: dict[str, object]) -> None:
        buckets: list[dict[str, object]] = state["buckets"]  # type: ignore[assignment]
        bounds = tuple(
            float(b["le"]) for b in buckets  # type: ignore[arg-type]
            if math.isfinite(float(b["le"]))  # type: ignore[arg-type]
        )
        histogram = self.histogram(name, bounds)
        if histogram.buckets != bounds:
            raise ObservabilityError(
                f"histogram {name!r} bucket bounds differ: "
                f"{histogram.buckets} vs incoming {bounds}"
            )
        # Snapshot buckets are cumulative (Prometheus-style); de-cumulate
        # into per-slot increments, the +Inf overflow slot included.
        previous = 0
        for slot, bucket in enumerate(buckets):
            cumulative = int(bucket["count"])  # type: ignore[arg-type]
            histogram._counts[slot] += cumulative - previous
            previous = cumulative
        count = int(state["count"])  # type: ignore[arg-type]
        histogram.count += count
        histogram.sum += float(state["sum"])  # type: ignore[arg-type]
        if count:
            low = state.get("min")
            high = state.get("max")
            if low is not None and float(low) < histogram._min:  # type: ignore[arg-type]
                histogram._min = float(low)  # type: ignore[arg-type]
            if high is not None and float(high) > histogram._max:  # type: ignore[arg-type]
                histogram._max = float(high)  # type: ignore[arg-type]

    def to_json(self, indent: int | None = None) -> str:
        """The snapshot as strict JSON (non-finite values become null)."""
        return json.dumps(
            jsonable(self.snapshot()), indent=indent, allow_nan=False
        )

    def render_prometheus(self) -> str:
        """Prometheus text-exposition dump of every metric."""
        lines: list[str] = []
        for name, metric in self._metrics.items():
            prom = _prom_name(name)
            if metric.help:
                lines.append(f"# HELP {prom} {_prom_help(metric.help)}")
            if isinstance(metric, Counter):
                lines.append(f"# TYPE {prom} counter")
                lines.append(f"{prom}_total {metric.value}")
            elif isinstance(metric, Gauge):
                lines.append(f"# TYPE {prom} gauge")
                lines.append(f"{prom} {_prom_float(metric.value)}")
            elif isinstance(metric, Timer):
                base = prom if prom.endswith("_seconds") else f"{prom}_seconds"
                lines.append(f"# TYPE {base} summary")
                lines.append(f"{base}_sum {_prom_float(metric.total)}")
                lines.append(f"{base}_count {metric.count}")
            else:  # Histogram
                lines.append(f"# TYPE {prom} histogram")
                for bound, count in metric.bucket_counts():
                    le = _prom_label_value(_prom_float(bound))
                    lines.append(f'{prom}_bucket{{le="{le}"}} {count}')
                lines.append(f"{prom}_sum {_prom_float(metric.sum)}")
                lines.append(f"{prom}_count {metric.count}")
        return "\n".join(lines) + ("\n" if lines else "")
