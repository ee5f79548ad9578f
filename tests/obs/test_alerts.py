"""Alert log: state machine, exports, provenance annotation, e2e burn."""

import json
import math

from repro.core.accuracy import AccuracyInfo, ConfidenceInterval
from repro.obs import Observer
from repro.obs.alerts import AlertLog, render_health_table
from repro.obs.provenance import ProvenanceRecord, ProvenanceRecorder
from repro.obs.slo import parse_rule
from repro.obs.timeseries import (
    Frame,
    FrameSeries,
    TelemetryConfig,
)
from repro.streams.engine import Pipeline
from repro.streams.operators import CollectSink, Operator
from repro.streams.tuples import UncertainTuple

NAME = "pipeline.00.Avg.interval_width"


def _hist(values, bounds=(0.1, 1.0, 10.0)):
    edges = list(bounds) + [math.inf]
    buckets = [{"le": le, "count": 0} for le in edges]
    for value in values:
        for bucket in buckets:
            if value <= bucket["le"]:
                bucket["count"] += 1
    return {
        "type": "histogram",
        "count": len(values),
        "sum": float(sum(values)),
        "buckets": buckets,
    }


def _series(per_frame_widths, name=NAME):
    series = FrameSeries(capacity=len(per_frame_widths) + 1)
    for i, widths in enumerate(per_frame_widths):
        metrics = {name: _hist(widths)} if widths else {}
        series.append(
            Frame(index=i, start=i * 10, end=(i + 1) * 10, metrics=metrics)
        )
    return series


def _rule(**overrides):
    options = dict(short_window=2, long_window=4, burn_threshold=0.5)
    options.update(overrides)
    return parse_rule("ci_width mean <= 0.5", **options)


class TestStateMachine:
    def test_quiet_series_stays_ok(self):
        log = AlertLog()
        events = log.evaluate(_series([[0.2]] * 6), [_rule()])
        assert events == []
        assert log.states == {_rule().text: "ok"}

    def test_single_bad_frame_goes_pending_then_ok(self):
        widths = [[0.2], [0.2], [5.0], [0.2], [0.2]]
        log = AlertLog()
        events = log.evaluate(_series(widths), [_rule()])
        assert [e.state for e in events] == ["pending", "ok"]
        assert events[0].frame_index == 2
        assert events[0].frame is not None  # offending frame attached
        assert log.states[_rule().text] == "ok"

    def test_sustained_burn_fires_and_resolves(self):
        widths = [[0.2], [0.2], [5.0], [5.0], [5.0], [0.2], [0.2], [0.2]]
        log = AlertLog()
        events = log.evaluate(_series(widths), [_rule()])
        states = [e.state for e in events]
        assert "firing" in states
        assert states[-1] == "resolved"
        firing = next(e for e in events if e.state == "firing")
        assert firing.frame is not None
        assert NAME in firing.frame["metrics"]
        resolved = events[-1]
        assert resolved.frame is None  # only pending/firing attach frames
        assert log.states[_rule().text] == "resolved"

    def test_reevaluation_is_idempotent(self):
        widths = [[0.2], [5.0], [5.0], [5.0], [0.2], [0.2]]
        series = _series(widths)
        log = AlertLog()
        first = [e.to_dict() for e in log.evaluate(series, [_rule()])]
        second = [e.to_dict() for e in log.evaluate(series, [_rule()])]
        assert first == second

    def test_multiple_rules_replay_independently(self):
        widths = [[5.0]] * 4
        rules = [
            _rule(),
            parse_rule(
                "de_facto_n p5 >= 16", short_window=2, long_window=4,
            ),
        ]
        log = AlertLog()
        log.evaluate(_series(widths), rules)
        assert log.states[rules[0].text] == "firing"
        # No sample_size histogram anywhere: no data is not a violation.
        assert log.states[rules[1].text] == "ok"


class TestExports:
    def test_jsonl_is_strict_one_object_per_line(self):
        widths = [[0.2], [5.0], [5.0], [5.0], [0.2], [0.2]]
        log = AlertLog()
        log.evaluate(_series(widths), [_rule()])
        lines = log.to_jsonl().splitlines()
        assert len(lines) == len(log.events)
        for line in lines:
            event = json.loads(line)
            assert event["rule"] == _rule().text
            assert event["state"] in ("pending", "firing", "resolved", "ok")

    def test_jsonl_empty_log_is_empty_string(self):
        log = AlertLog()
        log.evaluate(_series([[0.2]] * 3), [_rule()])
        assert log.to_jsonl() == ""

    def test_prometheus_export_carries_rule_labels(self):
        widths = [[5.0]] * 4
        log = AlertLog()
        log.evaluate(_series(widths), [_rule()])
        text = log.render_prometheus()
        assert (
            'slo_alert_state{rule="ci_width mean <= 0.5",state="firing"} 2'
            in text
        )
        assert "slo_alert_transitions_total{" in text

    def test_health_table_shows_state_per_rule(self):
        widths = [[5.0]] * 4
        rules = [_rule(), parse_rule("draws_used mean <= 800")]
        table = render_health_table(_series(widths), rules)
        lines = table.splitlines()
        assert "SLO health (4 frames)" in lines[0]
        body = "\n".join(lines[2:])
        assert "firing" in body
        assert "ci_width mean <= 0.5" in body
        # The draws_used rule never saw data: value renders as '-'.
        draws_line = next(
            line for line in lines if "draws_used" in line
        )
        assert draws_line.split()[-1] == "ok"
        assert "-" in draws_line


class TestProvenanceAnnotation:
    def _provenance(self):
        recorder = ProvenanceRecorder()
        recorder.records.append(
            ProvenanceRecord(
                shard="main",
                stage="00.Avg",
                stage_index=0,
                out_seq=0,
                attribute="avg",
                payload="p0",
                method="analytic",
                sample_size=6,
                confidence=0.95,
                ci_low=0.0,
                ci_high=1.0,
                lineage={"min_input": "points", "df_size": 6},
            )
        )
        recorder.records.append(
            ProvenanceRecord(
                shard="main",
                stage="00.Avg",
                stage_index=0,
                out_seq=1,
                attribute="avg",
                payload="p1",
                method="analytic",
                sample_size=48,
                confidence=0.95,
                ci_low=0.0,
                ci_high=1.0,
            )
        )
        return recorder

    def test_de_facto_n_firing_names_minimum_input(self):
        name = "pipeline.00.Avg.sample_size"
        widths = [[4.0]] * 4  # tiny de facto sizes, sustained
        rule = parse_rule(
            "de_facto_n p5 >= 16", short_window=2, long_window=4,
        )
        log = AlertLog()
        events = log.evaluate(
            _series(widths, name=name), [rule],
            provenance=self._provenance(),
        )
        firing = next(e for e in events if e.state == "firing")
        assert firing.annotation is not None
        assert "n=6" in firing.annotation
        assert "00.Avg" in firing.annotation
        assert "'points'" in firing.annotation
        assert "Lemma 3" in firing.annotation

    def test_ci_width_rules_are_not_annotated(self):
        widths = [[5.0]] * 4
        log = AlertLog()
        events = log.evaluate(
            _series(widths), [_rule()], provenance=self._provenance()
        )
        firing = next(e for e in events if e.state == "firing")
        assert firing.annotation is None


class _BurstyAccuracy(Operator):
    """CI widths that blow up for a mid-stream burst, then recover."""

    accuracy_attribute = "accuracy"

    def __init__(self, burst_start, burst_end):
        super().__init__()
        self.burst = range(burst_start, burst_end)
        self._i = 0

    def process_many(self, tuples):
        out = []
        for tup in tuples:
            width = 8.0 if self._i in self.burst else 0.05
            self._i += 1
            info = AccuracyInfo(
                mean=ConfidenceInterval(0.0, width, 0.95),
                variance=ConfidenceInterval(0.0, 1.0, 0.95),
                sample_size=32,
                method="analytic",
            )
            attributes = dict(tup.attributes)
            attributes["accuracy"] = info
            out.append(tup.with_attributes(attributes))
        self.emit_many(out)


class TestEndToEndBurst:
    def test_burn_alert_fires_and_resolves_on_bursty_stream(self):
        # Acceptance example: a bursty stream degrades CI widths long
        # enough to burn both windows, then recovers; the ci_width rule
        # must fire AND resolve within one run.
        observer = Observer(frames=TelemetryConfig(frame_interval=16))
        recorder = observer.frames
        pipeline = Pipeline(
            [_BurstyAccuracy(64, 160), CollectSink()],
            observer=observer,
        )
        tuples = [UncertainTuple({"x": float(i)}) for i in range(320)]
        pipeline.run(tuples)
        assert len(recorder.series) == 20
        rule = parse_rule(
            "ci_width p95 <= 0.5", short_window=2, long_window=4,
        )
        log = AlertLog()
        events = log.evaluate(recorder.series, [rule])
        states = [e.state for e in events]
        assert "firing" in states
        assert states[-1] == "resolved"
        assert log.states[rule.text] == "resolved"
        # The same burst is visible as drift while it builds up.
        jsonl = log.to_jsonl()
        assert jsonl.count("\n") == len(events)
