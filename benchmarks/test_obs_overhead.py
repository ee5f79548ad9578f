"""Disabled-mode observability overhead on the Figure 5(c) workload.

The instrumentation hooks in :class:`Operator` live on the hot path:
every ``receive``/``receive_many``/``emit`` now begins with an ``if
self._obs is None`` check.  The promise in ``docs/OBSERVABILITY.md`` is
that with no registry attached this costs less than 5% of throughput.

This benchmark verifies the promise directly: it measures the analytic
Fig 5(c) configuration twice — once as shipped (hooks present, registry
absent) and once with the hook methods rebound to bare bodies that skip
the check entirely (the pre-observability execution paths) — and
asserts the shipped pipeline keeps >= 95% of the bare throughput.

Runs are interleaved (bare, instrumented, bare, instrumented, ...) and
best-of-N so a load spike hits both variants equally instead of biasing
one side.  ``OBS_SMOKE=1`` shrinks the workload for CI smoke runs.
"""

import os
import types

from benchmarks.conftest import save_result
from repro.experiments.fig5_throughput import (
    WINDOW_SIZE,
    _AnalyticAccuracy,
    _LearnGaussian,
    make_stream,
)
from repro.streams.engine import Pipeline
from repro.streams.operators import CountingSink, SlidingGaussianAverage
from repro.streams.throughput import measure_throughput

SMOKE = os.environ.get("OBS_SMOKE", "") not in ("", "0")
N_ITEMS = 2000 if SMOKE else 6000
ROUNDS = 4 if SMOKE else 5
# Measurement attempts: a ratio below the floor re-measures with more
# rounds before failing, so only a *reproducible* regression trips the
# gate rather than a one-off load spike on a shared runner.
ATTEMPTS = 3
MAX_OVERHEAD = 0.05


def _bare_receive_many(self, tuples):
    self.process_many(tuples)


def _bare_emit_many(self, tuples):
    if self._downstream is not None and tuples:
        self._downstream.receive_many(tuples)


def _bare_flush(self):
    self.on_flush()
    if self._downstream is not None:
        self._downstream.flush()


def _strip(pipeline: Pipeline) -> Pipeline:
    """Rebind every hook to its uninstrumented body (pre-PR semantics)."""
    for op in pipeline.operators:
        op.receive_many = types.MethodType(_bare_receive_many, op)
        op.emit_many = types.MethodType(_bare_emit_many, op)
        op.flush = types.MethodType(_bare_flush, op)
    return pipeline


def _analytic_pipeline() -> Pipeline:
    return Pipeline(
        [
            _LearnGaussian("points", "value"),
            SlidingGaussianAverage("value", WINDOW_SIZE),
            _AnalyticAccuracy("avg"),
            CountingSink(),
        ]
    )


def _bare_pipeline() -> Pipeline:
    return _strip(_analytic_pipeline())


def test_disabled_mode_overhead_under_5_percent(benchmark, results_dir):
    tuples = make_stream(N_ITEMS, seed=11)

    def measure(rounds: int) -> tuple[float, float]:
        bare = 0.0
        instrumented = 0.0
        for _ in range(rounds):
            bare = max(
                bare, measure_throughput(_bare_pipeline, tuples, repeats=1)
            )
            instrumented = max(
                instrumented,
                measure_throughput(_analytic_pipeline, tuples, repeats=1),
            )
        return bare, instrumented

    def measure_until_stable() -> tuple[float, float]:
        measure(1)  # warm caches so neither variant pays the cold start
        bare, instrumented = measure(ROUNDS)
        for attempt in range(1, ATTEMPTS):
            if instrumented / bare >= 1.0 - MAX_OVERHEAD:
                break
            more_bare, more_inst = measure(ROUNDS * (attempt + 1))
            bare = max(bare, more_bare)
            instrumented = max(instrumented, more_inst)
        return bare, instrumented

    bare, instrumented = benchmark.pedantic(
        measure_until_stable, rounds=1, iterations=1
    )
    ratio = instrumented / bare
    save_result(
        results_dir,
        "obs_overhead",
        "Observability disabled-mode overhead (Fig 5(c) analytic)\n"
        f"  bare hooks:         {int(bare):>8} tuples/s\n"
        f"  instrumented (off): {int(instrumented):>8} tuples/s\n"
        f"  ratio:              {ratio:>8.3f} (floor {1 - MAX_OVERHEAD})",
    )
    assert ratio >= 1.0 - MAX_OVERHEAD, (
        f"disabled-mode observability costs {(1 - ratio):.1%} of "
        f"throughput (budget {MAX_OVERHEAD:.0%}): {int(bare)} -> "
        f"{int(instrumented)} tuples/s"
    )


def test_disabled_mode_sink_identical(results_dir):
    """Sanity alongside the timing claim: same tuples reach the sink."""
    tuples = make_stream(500, seed=12)
    bare = _bare_pipeline()
    instrumented = _analytic_pipeline()
    bare.run(tuples)
    instrumented.run(tuples)
    assert bare.sink.count == instrumented.sink.count
