"""Accuracy provenance: lineage capture, lookup, and explain()."""

import json

import pytest

from repro.core.analytic import distribution_accuracy
from repro.core.dfsample import DfSized, df_sample_size
from repro.distributions.gaussian import GaussianDistribution
from repro.errors import ObservabilityError
from repro.obs.provenance import (
    ProvenanceRecord,
    ProvenanceRecorder,
    lineage_from_operands,
)
from repro.obs.trace import TraceConfig
from repro.obs import Observer
from repro.obs import explain as obs_explain
from repro.streams.engine import Pipeline
from repro.streams.operators import (
    CollectSink,
    Operator,
    WindowAggregate,
)
from repro.streams.tuples import UncertainTuple


def _dfsized(mean, n):
    return DfSized(GaussianDistribution(float(mean), 1.0), n)


class _Theorem1Join(Operator):
    """Combines two DfSized operands into one Theorem-1 accuracy result.

    The de facto sample size of the output is the Lemma-3 minimum of
    the operand sizes; the lineage names which operand set it.
    """

    accuracy_attribute = "accuracy"

    def __init__(self, left: str, right: str, confidence: float = 0.95):
        super().__init__()
        self.left = left
        self.right = right
        self.confidence = confidence

    def _operands(self, tup):
        return {
            self.left: tup.attributes.get(self.left),
            self.right: tup.attributes.get(self.right),
        }

    def process_many(self, tuples):
        out = []
        for tup in tuples:
            operands = self._operands(tup)
            df = df_sample_size(
                op.sample_size if isinstance(op, DfSized) else None
                for op in operands.values()
            )
            if df is not None and df >= 2:
                dist = operands[self.left].distribution
                attributes = dict(tup.attributes)
                attributes["accuracy"] = distribution_accuracy(
                    dist, df, self.confidence
                )
                tup = tup.with_attributes(attributes)
            out.append(tup)
        self.emit_many(out)

    def trace_lineage(self, tup):
        return lineage_from_operands(self._operands(tup))


def _join_tuples(n=5, left_n=30, right_n=12):
    return [
        UncertainTuple(
            attributes={
                "left": _dfsized(i, left_n),
                "right": _dfsized(-i, right_n),
            },
            timestamp=float(i),
        )
        for i in range(n)
    ]


def _run_join(observer, tuples=None):
    pipeline = Pipeline(
        [_Theorem1Join("left", "right"), CollectSink()], observer=observer
    )
    return pipeline.run(tuples if tuples is not None else _join_tuples())


class TestLineageFromOperands:
    def test_names_the_min_input(self):
        lineage = lineage_from_operands(
            {"a": _dfsized(0, 30), "b": _dfsized(0, 12), "c": _dfsized(0, 20)}
        )
        assert lineage["df_size"] == 12
        assert lineage["min_input"] == "b"
        assert lineage["inputs"] == {"a": 30, "b": 12, "c": 20}

    def test_exact_inputs_never_bind_the_min(self):
        lineage = lineage_from_operands(
            {"exact": 3.5, "sampled": _dfsized(0, 7)}
        )
        assert lineage["inputs"] == {"exact": None, "sampled": 7}
        assert lineage["df_size"] == 7
        assert lineage["min_input"] == "sampled"

    def test_all_exact_has_no_df_size(self):
        lineage = lineage_from_operands({"x": 1.0, "y": "label"})
        assert lineage["df_size"] is None
        assert lineage["min_input"] is None

    def test_tie_names_first_operand_in_mapping_order(self):
        lineage = lineage_from_operands(
            {"a": _dfsized(0, 9), "b": _dfsized(0, 9)}
        )
        assert lineage["min_input"] == "a"


class TestExplainTheorem1:
    """ISSUE acceptance: explain() on a Theorem-1 result names the input
    whose sample size set the Lemma-3 de facto size."""

    def test_names_min_input_and_df_size(self):
        observer = Observer(trace=TraceConfig())
        tracer = observer.tracer
        sink = _run_join(observer)
        result = sink.results[0]
        accuracy = result.attributes["accuracy"]
        assert accuracy.sample_size == 12  # min(30, 12)
        text = tracer.explain(result)
        assert "de facto sample size (Lemma 3) = 12" in text
        assert "set by input 'right'" in text
        assert "left(n=30)" in text
        assert "right(n=12)" in text
        assert "method=analytic" in text

    def test_module_level_explain_helper(self):
        observer = Observer(trace=TraceConfig())
        tracer = observer.tracer
        sink = _run_join(observer)
        assert "Lemma 3" in obs_explain(sink.results[1], tracer)

    def test_explain_survives_cross_worker_merge(self):
        # After pickling, payload object identity is gone; lookup must
        # fall back to the content fingerprint.
        worker = Observer(trace=TraceConfig(seed=7))
        sink = _run_join(worker)
        snapshot = json.loads(json.dumps(worker.snapshot()))
        parent = Observer(trace=TraceConfig(seed=7))
        parent.merge(snapshot)
        text = parent.tracer.explain(sink.results[0])
        assert "set by input 'right'" in text

    def test_ci_width_chain_between_stages(self):
        observer = Observer(trace=TraceConfig())
        tracer = observer.tracer
        pipeline = Pipeline(
            [
                WindowAggregate("left", 4, output="avg"),
                _Theorem1Join("avg", "right"),
                CollectSink(),
            ],
            observer=observer,
        )
        sink = pipeline.run(_join_tuples(8))
        text = tracer.explain(sink.results[-1])
        assert "through this stage" in text
        assert text.index("WindowAggregate") < text.index(
            "Theorem1Join"
        )


class TestRecorder:
    def test_pipeline_records_one_record_per_emitted_tuple(self):
        observer = Observer(trace=TraceConfig())
        tracer = observer.tracer
        _run_join(observer, _join_tuples(6))
        assert len(tracer.provenance) == 6
        record = tracer.provenance.records[0]
        assert record.stage == "pipeline.00.Theorem1Join"
        assert record.out_seq == 0
        assert record.sample_size == 12
        assert record.span_id is not None
        assert record.ci_width is not None and record.ci_width > 0.0

    def test_batched_and_per_tuple_records_identical(self):
        per_tuple_obs = Observer(trace=TraceConfig(seed=3))
        per_tuple = per_tuple_obs.tracer
        batched_obs = Observer(trace=TraceConfig(seed=3))
        batched = batched_obs.tracer
        Pipeline(
            [_Theorem1Join("left", "right"), CollectSink()],
            observer=per_tuple_obs,
        ).run(_join_tuples(9))
        Pipeline(
            [_Theorem1Join("left", "right"), CollectSink()],
            observer=batched_obs,
        ).run_batched(_join_tuples(9), batch_size=4)
        assert (
            per_tuple.provenance.deterministic_view()
            == batched.provenance.deterministic_view()
        )

    def test_sampling_is_deterministic_and_keeps_out_seq(self):
        def run(rate):
            recorder = ProvenanceRecorder(seed=11, sample_rate=rate)
            observer = Observer(trace=TraceConfig(seed=11))
            tracer = observer.tracer
            tracer.provenance = recorder
            _run_join(observer, _join_tuples(50))
            return recorder

        full = run(1.0)
        half = run(0.4)
        again = run(0.4)
        assert 0 < len(half) < 50
        assert [r.to_dict() for r in half.records] == [
            r.to_dict() for r in again.records
        ]
        # Sampled-out tuples still advance out_seq: the kept records are
        # a subset of the full set, with their original sequence numbers.
        full_by_seq = {r.out_seq: r.to_dict() for r in full.records}
        for record in half.records:
            assert record.to_dict() == full_by_seq[record.out_seq]

    def test_max_records_cap(self):
        observer = Observer(trace=TraceConfig(max_records=3))
        tracer = observer.tracer
        _run_join(observer, _join_tuples(10))
        assert len(tracer.provenance) == 3

    def test_tuples_without_accuracy_payload_skip_recording(self):
        observer = Observer(trace=TraceConfig())
        tracer = observer.tracer
        plain = [
            UncertainTuple(attributes={"left": 1.0, "right": 2.0},
                           timestamp=float(i))
            for i in range(4)
        ]
        _run_join(observer, plain)
        assert len(tracer.provenance) == 0

    def test_find_rejects_non_tuples(self):
        with pytest.raises(ObservabilityError):
            ProvenanceRecorder().find(42)

    def test_explain_fallback_message(self):
        observer = Observer(trace=TraceConfig())
        tracer = observer.tracer
        tup = UncertainTuple(attributes={"x": 1.0}, timestamp=0.0)
        assert "no provenance recorded" in tracer.explain(tup)

    def test_record_roundtrip_dict(self):
        observer = Observer(trace=TraceConfig())
        tracer = observer.tracer
        _run_join(observer)
        record = tracer.provenance.records[0]
        clone = ProvenanceRecord.from_dict(
            json.loads(json.dumps(record.to_dict()))
        )
        assert clone.to_dict() == record.to_dict()

    def test_bootstrap_records_r_n_and_drops(self):
        from repro.experiments.fig5_throughput import _BootstrapAccuracy

        observer = Observer(trace=TraceConfig())
        tracer = observer.tracer
        pipeline = Pipeline(
            [
                _BootstrapAccuracy("left", resamples=20, seed=5),
                CollectSink(),
            ],
            observer=observer,
        )
        sink = pipeline.run(_join_tuples(4))
        record = tracer.provenance.records[0]
        assert record.method == "bootstrap"
        assert record.lineage["resamples"] == 20
        assert record.values_used > 0
        assert record.values_dropped >= 0
        text = tracer.explain(sink.results[0])
        assert "bootstrap r=" in text
        assert "values_dropped=" in text

    def test_reset_clears_identity_index(self):
        observer = Observer(trace=TraceConfig())
        tracer = observer.tracer
        sink = _run_join(observer)
        tracer.provenance.reset()
        assert len(tracer.provenance) == 0
        assert tracer.provenance.find(sink.results[0]) == []


class TestAdaptiveProvenance:
    def test_explain_shows_draws_used_and_rounds(self):
        from repro.experiments.fig5_throughput import _BootstrapAccuracy

        observer = Observer(trace=TraceConfig())
        tracer = observer.tracer
        pipeline = Pipeline(
            [
                _BootstrapAccuracy(
                    "left", resamples=32, seed=5,
                    target_ci_width=1e9, initial_resamples=8,
                ),
                CollectSink(),
            ],
            observer=observer,
        )
        sink = pipeline.run(_join_tuples(4))
        record = tracer.provenance.records[0]
        assert record.method == "bootstrap"
        assert record.draws_used == 8 * record.sample_size  # stopped early
        assert record.rounds == 1
        text = tracer.explain(sink.results[0])
        assert "draws_used=" in text
        assert "rounds=" in text

    def test_record_dict_roundtrips_draw_fields(self):
        from repro.experiments.fig5_throughput import _BootstrapAccuracy

        observer = Observer(trace=TraceConfig())
        tracer = observer.tracer
        Pipeline(
            [
                _BootstrapAccuracy(
                    "left", resamples=32, seed=5, target_ci_width=1e9
                ),
                CollectSink(),
            ],
            observer=observer,
        ).run(_join_tuples(2))
        record = tracer.provenance.records[0]
        clone = ProvenanceRecord.from_dict(record.to_dict())
        assert clone.draws_used == record.draws_used
        assert clone.rounds == record.rounds
