"""The per-operator ``state.bytes`` gauge.

Stateful operators that opt in (``memory_metrics = True``) report their
approximate retained bytes, sampled once per flush — the observability
half of the bounded-memory work (docs/SKETCHES.md).  The gauge must show
up in snapshots under ``<op>.state.bytes``, fold into the operator's own
row in :func:`operator_rows` (never a phantom ``<op>.state`` row), and
render in the ``state_B`` column; operators that do not opt in must not
grow a gauge at all.
"""

import numpy as np

from repro.core.dfsample import DfSized
from repro.distributions.gaussian import GaussianDistribution
from repro.experiments.harness import render_metrics_table
from repro.obs import Observer, OperatorObserver, operator_rows
from repro.streams.engine import Pipeline
from repro.streams.groupby import GroupedAggregate
from repro.streams.operators import (
    CollectSink,
    RollingLearnOperator,
    Select,
    WindowAggregate,
)
from repro.streams.tuples import UncertainTuple


def _tuples(n=60, seed=3):
    rng = np.random.default_rng(seed)
    return [
        UncertainTuple(
            {
                "sensor": int(rng.integers(3)),
                "obs": float(rng.normal(0.0, 1.0)),
                "value": DfSized(
                    GaussianDistribution(float(rng.normal(10.0, 2.0)), 1.0),
                    20,
                ),
            }
        )
        for _ in range(n)
    ]


class TestStateBytesGauge:
    def test_sampled_on_flush_for_memory_operators(self):
        observer = Observer()
        registry = observer.metrics
        pipeline = Pipeline(
            [WindowAggregate("value", 8), CollectSink()],
            observer=observer,
        )
        pipeline.run(_tuples())
        snap = registry.snapshot()
        gauge = snap["pipeline.00.WindowAggregate.state.bytes"]
        # 8 buffered window members at ~120 bytes apiece, plus overhead.
        assert gauge["value"] > 8 * 100

    def test_opt_out_operators_have_no_gauge(self):
        observer = Observer()
        registry = observer.metrics
        pipeline = Pipeline(
            [Select(lambda t: True), CollectSink()], observer=observer
        )
        pipeline.run(_tuples())
        assert not any(
            name.endswith("state.bytes") for name in registry.snapshot()
        )

    def test_folds_into_operator_row_not_a_phantom_stage(self):
        observer = Observer()
        registry = observer.metrics
        pipeline = Pipeline(
            [
                RollingLearnOperator(
                    "obs", window_size=8, learner="sketch-quantile", k=32
                ),
                CollectSink(),
            ],
            observer=observer,
        )
        pipeline.run(_tuples())
        rows = operator_rows(registry)
        names = [row["operator"] for row in rows]
        assert not any(name.endswith(".state") for name in names)
        learn_row = next(
            row
            for row in rows
            if row["operator"].endswith("RollingLearnOperator")
        )
        assert learn_row["state_bytes"] > 0

    def test_rendered_in_state_bytes_column(self):
        observer = Observer()
        registry = observer.metrics
        pipeline = Pipeline(
            [
                GroupedAggregate(
                    "sensor", "value", window_size=8, synopsis="chunked"
                ),
                CollectSink(),
            ],
            observer=observer,
        )
        pipeline.run(_tuples())
        table = render_metrics_table(registry)
        assert "state_B" in table
        grouped_line = next(
            line
            for line in table.splitlines()
            if "GroupedAggregate" in line
        )
        assert grouped_line.split()[-1].isdigit()
        # The stateless sink renders a placeholder in the same column.
        sink_line = next(
            line for line in table.splitlines() if "CollectSink" in line
        )
        assert sink_line.split()[-1] == "-"

    def test_mixed_reporting_and_non_reporting_operators(self):
        # Regression: in one table, a reporting operator shows its
        # bytes, a never-reporting one shows '-' (not a misleading 0),
        # and a reported zero is rendered as the digit 0.
        observer = Observer()
        registry = observer.metrics
        reporting = OperatorObserver(observer, "p.00.Window", memory=True)
        reporting.tuples_in.inc(4)
        reporting.tuples_out.inc(4)
        reporting.record_state_bytes(4096.0)
        zeroed = OperatorObserver(observer, "p.01.Drained", memory=True)
        zeroed.tuples_in.inc(4)
        zeroed.tuples_out.inc(4)
        zeroed.record_state_bytes(0.0)
        silent = OperatorObserver(observer, "p.02.Sink", memory=True)
        silent.tuples_in.inc(4)
        silent.tuples_out.inc(0)
        rows = {r["operator"]: r for r in operator_rows(registry)}
        assert rows["p.00.Window"]["state_bytes"] == 4096.0
        assert rows["p.01.Drained"]["state_bytes"] == 0.0
        assert "state_bytes" not in rows["p.02.Sink"]
        table = render_metrics_table(registry)
        lines = {
            name: next(
                line for line in table.splitlines() if name in line
            )
            for name in ("Window", "Drained", "Sink")
        }
        assert lines["Window"].split()[-1] == "4096"
        assert lines["Drained"].split()[-1] == "0"
        assert lines["Sink"].split()[-1] == "-"

    def test_state_bytes_column_is_right_aligned(self):
        observer = Observer()
        registry = observer.metrics
        wide = OperatorObserver(observer, "p.00.Big", memory=True)
        wide.tuples_in.inc(1)
        wide.tuples_out.inc(1)
        wide.record_state_bytes(123456789.0)
        narrow = OperatorObserver(observer, "p.01.Small", memory=True)
        narrow.tuples_in.inc(1)
        narrow.tuples_out.inc(1)
        narrow.record_state_bytes(7.0)
        table = render_metrics_table(registry)
        lines = table.splitlines()
        header = next(line for line in lines if "state_B" in line)
        edge = len(header.rstrip())
        # Right-aligned: every row's state_B value ends flush with the
        # header's right edge (state_B is the last column).
        for name in ("Big", "Small"):
            row = next(line for line in lines if name in line)
            assert len(row.rstrip()) == edge

    def test_sketch_state_smaller_than_exact_state(self):
        """The gauge can see the tentpole: sketches retain less."""

        def run(learner, **kwargs):
            observer = Observer()
            registry = observer.metrics
            pipeline = Pipeline(
                [
                    RollingLearnOperator(
                        "obs",
                        window_size=2048,
                        learner=learner,
                        **kwargs,
                    ),
                    CollectSink(),
                ],
                observer=observer,
            )
            rng = np.random.default_rng(11)
            pipeline.run(
                [
                    UncertainTuple({"obs": float(x)})
                    for x in rng.normal(0.0, 1.0, 4096)
                ]
            )
            return registry.snapshot()[
                "pipeline.00.RollingLearnOperator.state.bytes"
            ]["value"]

        exact = run("gaussian")
        sketch = run("sketch-quantile", k=64)
        assert sketch * 5 <= exact
