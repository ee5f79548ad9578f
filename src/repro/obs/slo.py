"""Declarative SLO rules over accuracy telemetry frames.

Macke et al. (PAPERS.md) treat target interval widths as explicit
contracts; this module evaluates such contracts continuously over the
frame series cut by :class:`~repro.obs.timeseries.TelemetryRecorder`.

Rule grammar (one rule per string)::

    [<operator-substring>:] <signal> <agg> <op> <threshold>

    ci_width p95 <= 0.5          # CI width p95 at most 0.5
    de_facto_n p5 >= 16          # de facto sample size p5 at least 16
    synopsis_error max <= 0.05   # sketch error never above 0.05
    draws_used mean <= 800       # bootstrap draw budget per record
    Sliding: ci_width p95 <= 1.0 # only operators matching 'Sliding'

Signals map to the accuracy histograms recorded by
:class:`~repro.obs.instrument.OperatorObserver` (``ci_width`` ->
``*.interval_width``, ``de_facto_n`` -> ``*.sample_size``,
``synopsis_error`` -> ``*.synopsis_error``, ``draws_used`` ->
``*.draws_used``).  Aggregations are computed per frame from the
histogram *deltas*: ``mean`` exactly (delta sum / delta count),
``p95``/``p5`` by linear interpolation inside the bucket containing the
rank, ``max``/``min`` as the offending bucket's edge — bucket-resolution
estimates, but pure integer/float functions of the merged frame, so
identical at any worker count.

Evaluation is multi-window burn-rate (SRE-style): a rule transitions to
*firing* only when the fraction of frames violating the threshold
exceeds ``burn_threshold`` in BOTH a short and a long trailing window,
and resolves once the short window is clean — short-window spikes alone
leave it *pending*.  Everything is a pure function of the (merged)
frame series; workers never evaluate rules, so sharding cannot
double-fire an alert.
"""

from __future__ import annotations

import dataclasses
import math

from repro.errors import ObservabilityError
from repro.obs.timeseries import Frame, FrameSeries

__all__ = [
    "SloRule",
    "parse_rule",
    "frame_signal",
    "evaluate_rule",
    "evaluate_rules",
    "RuleEvaluation",
    "FrameVerdict",
    "detect_drift",
    "DriftEvent",
    "SIGNAL_SUFFIXES",
]

#: signal name -> the metric-name suffix of its per-operator histogram.
SIGNAL_SUFFIXES = {
    "ci_width": ".interval_width",
    "de_facto_n": ".sample_size",
    "synopsis_error": ".synopsis_error",
    "draws_used": ".draws_used",
}

_AGGS = ("p95", "p5", "max", "mean", "min")
_OPS = ("<=", ">=")


@dataclasses.dataclass(frozen=True)
class SloRule:
    """One declarative accuracy objective plus its burn-rate windows."""

    signal: str
    agg: str
    op: str
    threshold: float
    operator: str | None = None
    short_window: int = 3
    long_window: int = 12
    burn_threshold: float = 0.5

    def __post_init__(self) -> None:
        if self.signal not in SIGNAL_SUFFIXES:
            raise ObservabilityError(
                f"unknown SLO signal {self.signal!r}; expected one of "
                f"{sorted(SIGNAL_SUFFIXES)}"
            )
        if self.agg not in _AGGS:
            raise ObservabilityError(
                f"unknown SLO aggregation {self.agg!r}; expected one of "
                f"{_AGGS}"
            )
        if self.op not in _OPS:
            raise ObservabilityError(
                f"SLO comparator must be '<=' or '>=', got {self.op!r}"
            )
        if not math.isfinite(self.threshold):
            raise ObservabilityError(
                f"SLO threshold must be finite, got {self.threshold}"
            )
        if self.short_window < 1 or self.long_window < self.short_window:
            raise ObservabilityError(
                f"windows must satisfy 1 <= short <= long, got "
                f"{self.short_window}/{self.long_window}"
            )
        if not 0.0 < self.burn_threshold <= 1.0:
            raise ObservabilityError(
                f"burn_threshold must be in (0, 1], got "
                f"{self.burn_threshold}"
            )

    @property
    def text(self) -> str:
        """Canonical rule string (round-trips through parse_rule)."""
        prefix = f"{self.operator}: " if self.operator else ""
        return (
            f"{prefix}{self.signal} {self.agg} {self.op} "
            f"{self.threshold:g}"
        )

    def violates(self, value: float) -> bool:
        if self.op == "<=":
            return not value <= self.threshold
        return not value >= self.threshold


def parse_rule(
    text: str,
    short_window: int = 3,
    long_window: int = 12,
    burn_threshold: float = 0.5,
) -> SloRule:
    """Parse ``[op:] signal agg <=|>= threshold`` into an :class:`SloRule`."""
    operator = None
    body = text.strip()
    if ":" in body:
        qualifier, _, rest = body.partition(":")
        operator = qualifier.strip() or None
        body = rest.strip()
    parts = body.split()
    if len(parts) != 4:
        raise ObservabilityError(
            f"cannot parse SLO rule {text!r}: expected "
            f"'[operator:] signal agg <=|>= threshold'"
        )
    signal, agg, op, raw = parts
    try:
        threshold = float(raw)
    except ValueError:
        raise ObservabilityError(
            f"cannot parse SLO threshold {raw!r} in rule {text!r}"
        ) from None
    return SloRule(
        signal=signal,
        agg=agg,
        op=op,
        threshold=threshold,
        operator=operator,
        short_window=short_window,
        long_window=long_window,
        burn_threshold=burn_threshold,
    )


def _matching_states(
    frame: Frame, rule_signal: str, operator: str | None
) -> list[dict[str, object]]:
    suffix = SIGNAL_SUFFIXES[rule_signal]
    states = []
    for name, state in sorted(frame.metrics.items()):
        if not name.endswith(suffix):
            continue
        if state.get("type") != "histogram":
            continue
        if operator is not None and operator not in name[: -len(suffix)]:
            continue
        states.append(state)
    return states


def _combined(states: list[dict[str, object]]) -> dict[str, object] | None:
    """Sum matching histogram deltas bucket-wise (bounds must agree)."""
    if not states:
        return None
    combined = {
        "count": 0,
        "sum": 0.0,
        "buckets": [dict(b) for b in states[0]["buckets"]],  # type: ignore[union-attr]
    }
    for slot in combined["buckets"]:
        slot["count"] = 0
    bounds = [float(b["le"]) for b in combined["buckets"]]
    for state in states:
        incoming = [float(b["le"]) for b in state["buckets"]]  # type: ignore[union-attr]
        if incoming != bounds:
            raise ObservabilityError(
                "cannot combine SLO signal across histograms with "
                f"different bucket bounds: {bounds} vs {incoming}"
            )
        combined["count"] += int(state["count"])  # type: ignore[arg-type]
        combined["sum"] += float(state["sum"])  # type: ignore[arg-type]
        for slot, bucket in zip(combined["buckets"], state["buckets"]):  # type: ignore[arg-type]
            slot["count"] += int(bucket["count"])
    return combined if combined["count"] else None


def _quantile(state: dict[str, object], q: float) -> float:
    """Bucket-interpolated quantile of one frame's histogram delta.

    Walks the cumulative delta buckets to the one containing rank
    ``q * count`` and interpolates linearly between its edges; a rank in
    the +Inf overflow bucket returns +Inf (which any ``<=`` objective
    correctly counts as a violation).
    """
    count = int(state["count"])  # type: ignore[arg-type]
    target = q * count
    lower = 0.0
    previous = 0
    for bucket in state["buckets"]:  # type: ignore[union-attr]
        bound = float(bucket["le"])  # type: ignore[arg-type]
        cumulative = int(bucket["count"])  # type: ignore[arg-type]
        if cumulative >= target and cumulative > previous:
            if math.isinf(bound):
                return math.inf
            fraction = (target - previous) / (cumulative - previous)
            return lower + fraction * (bound - lower)
        lower = bound if not math.isinf(bound) else lower
        previous = cumulative
    return lower


def _bucket_edge(state: dict[str, object], highest: bool) -> float:
    """The max (or min) estimate: the extreme non-empty bucket's edge."""
    previous = 0
    lower = 0.0
    edge = None
    for bucket in state["buckets"]:  # type: ignore[union-attr]
        bound = float(bucket["le"])  # type: ignore[arg-type]
        cumulative = int(bucket["count"])  # type: ignore[arg-type]
        if cumulative > previous:
            if not highest:
                return lower
            edge = bound
        previous = cumulative
        lower = bound
    return edge if edge is not None else 0.0


def frame_signal(
    frame: Frame, signal: str, agg: str, operator: str | None = None
) -> float | None:
    """One frame's aggregated signal value, or None with no observations."""
    state = _combined(_matching_states(frame, signal, operator))
    if state is None:
        return None
    if agg == "mean":
        return float(state["sum"]) / int(state["count"])  # type: ignore[arg-type]
    if agg == "p95":
        return _quantile(state, 0.95)
    if agg == "p5":
        return _quantile(state, 0.05)
    if agg == "max":
        return _bucket_edge(state, highest=True)
    return _bucket_edge(state, highest=False)


@dataclasses.dataclass
class FrameVerdict:
    """One rule evaluated against one frame."""

    frame_index: int
    value: float | None
    bad: bool
    short_fraction: float
    long_fraction: float
    burning: bool


@dataclasses.dataclass
class RuleEvaluation:
    """A rule's verdicts over a whole series."""

    rule: SloRule
    verdicts: list[FrameVerdict]

    @property
    def ever_burned(self) -> bool:
        return any(v.burning for v in self.verdicts)

    def to_dicts(self) -> list[dict[str, object]]:
        return [
            {
                "frame_index": v.frame_index,
                "value": v.value,
                "bad": v.bad,
                "short_fraction": v.short_fraction,
                "long_fraction": v.long_fraction,
                "burning": v.burning,
            }
            for v in self.verdicts
        ]


def evaluate_rule(series: FrameSeries, rule: SloRule) -> RuleEvaluation:
    """Multi-window burn-rate evaluation of one rule over a series.

    A frame with no observations of the rule's signal is *good* (no
    data is not a violation — it lets alerts resolve when a query goes
    quiet).  ``short_fraction`` / ``long_fraction`` are the bad-frame
    fractions over the trailing windows ending at each frame; the rule
    burns where both meet ``burn_threshold``.
    """
    bads: list[bool] = []
    verdicts: list[FrameVerdict] = []
    for frame in series:
        value = frame_signal(frame, rule.signal, rule.agg, rule.operator)
        bad = value is not None and rule.violates(value)
        bads.append(bad)
        short = bads[-rule.short_window:]
        long = bads[-rule.long_window:]
        short_fraction = sum(short) / len(short)
        long_fraction = sum(long) / len(long)
        verdicts.append(
            FrameVerdict(
                frame_index=frame.index,
                value=value,
                bad=bad,
                short_fraction=short_fraction,
                long_fraction=long_fraction,
                burning=(
                    short_fraction >= rule.burn_threshold
                    and long_fraction >= rule.burn_threshold
                ),
            )
        )
    return RuleEvaluation(rule=rule, verdicts=verdicts)


def evaluate_rules(
    series: FrameSeries, rules: "list[SloRule]"
) -> list[RuleEvaluation]:
    return [evaluate_rule(series, rule) for rule in rules]


@dataclasses.dataclass(frozen=True)
class DriftEvent:
    """A sustained frame-over-frame trend in an accuracy signal."""

    signal: str
    agg: str
    first_frame: int
    last_frame: int
    slope: float
    relative_change: float


def detect_drift(
    series: FrameSeries,
    signal: str,
    agg: str = "mean",
    window: int = 8,
    relative_threshold: float = 0.25,
    operator: str | None = None,
) -> DriftEvent | None:
    """Trend detection: least-squares slope over the last ``window`` frames.

    Returns a :class:`DriftEvent` when the fitted change across the
    window exceeds ``relative_threshold`` of the window's mean signal
    level (e.g. CI widths drifting 25% wider), or ``None``.  Frames
    without observations are skipped; fewer than three observed frames
    is never drift.
    """
    points: list[tuple[int, float]] = []
    for frame in series:
        value = frame_signal(frame, signal, agg, operator)
        if value is not None and math.isfinite(value):
            points.append((frame.index, value))
    points = points[-window:]
    if len(points) < 3:
        return None
    n = len(points)
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    sxx = sum((x - mean_x) ** 2 for x, _ in points)
    if sxx == 0 or mean_y == 0:
        return None
    slope = (
        sum((x - mean_x) * (y - mean_y) for x, y in points) / sxx
    )
    span = points[-1][0] - points[0][0]
    relative = slope * span / abs(mean_y)
    if abs(relative) < relative_threshold:
        return None
    return DriftEvent(
        signal=signal,
        agg=agg,
        first_frame=points[0][0],
        last_frame=points[-1][0],
        slope=slope,
        relative_change=relative,
    )
