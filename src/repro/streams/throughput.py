"""Throughput measurement for the stream engine (paper §V-C, Figures 5(c,f)).

The paper measures the maximum rate at which the system handles incoming
tuples under different amounts of per-tuple work (query processing only,
plus analytical accuracy, plus bootstraps, plus significance predicates).
:func:`measure_throughput` runs a pipeline over a pre-materialised tuple
list and reports tuples/second, taking the best of several repeats to
approximate the *maximum* throughput as the paper does.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence

from repro.errors import StreamError
from repro.obs.instrument import Observer
from repro.streams.columnar import as_columnar
from repro.streams.engine import Pipeline
from repro.streams.tuples import UncertainTuple

__all__ = ["ThroughputMeter", "measure_throughput"]


class ThroughputMeter:
    """Accumulates (tuples, seconds) across runs and reports tuples/sec."""

    def __init__(self) -> None:
        self.tuples = 0
        self.seconds = 0.0

    def record(self, tuples: int, seconds: float) -> None:
        if tuples < 0 or seconds < 0:
            raise StreamError("tuples and seconds must be >= 0")
        self.tuples += tuples
        self.seconds += seconds

    @property
    def tuples_per_second(self) -> float:
        if self.seconds == 0.0:
            # Traffic measured in less time than the clock can resolve is
            # not the same thing as no traffic: report it as unboundedly
            # fast rather than a silent zero.
            return float("inf") if self.tuples > 0 else 0.0
        return self.tuples / self.seconds


def measure_throughput(
    pipeline_factory: Callable[[], Pipeline],
    tuples: Sequence[UncertainTuple],
    repeats: int = 3,
    batch_size: int | None = None,
    observer: Observer | None = None,
    prefix: str = "pipeline",
) -> float:
    """Best-of-``repeats`` throughput of a pipeline over the given tuples.

    A fresh pipeline is built per repeat so windowed state never carries
    over between timing runs.  ``batch_size`` selects the batched
    execution path (:meth:`Pipeline.run_batched`) over a source
    columnarized (:class:`~repro.streams.columnar.ColumnarBatch`) once,
    *outside* the timed region, when its layout allows — so the number
    reflects columnar execution rather than conversion cost.  ``None``
    measures the per-tuple path (:meth:`Pipeline.run`, which pushes
    one-row batches) over the tuple list as-is.

    ``observer`` requests a per-operator breakdown (plus spans and
    frames when the observer holds them): after the timed repeats, one
    extra *observed* pass runs a fresh pipeline with the observer
    attached (names under ``prefix``), so the observability overhead
    never contaminates the reported throughput.

    Raises :class:`StreamError` when no repeat produced a measurable
    elapsed time (tiny tuple lists on coarse clocks) — a successful call
    never returns ``0.0``.
    """
    if repeats < 1:
        raise StreamError(f"repeats must be >= 1, got {repeats}")
    if not tuples:
        raise StreamError("cannot measure throughput over zero tuples")
    if batch_size is not None:
        tuples = as_columnar(tuples) or tuples

    def _run_once(pipeline: Pipeline) -> None:
        if batch_size is None:
            pipeline.run(tuples)
        else:
            pipeline.run_batched(tuples, batch_size)

    best = 0.0
    for _ in range(repeats):
        pipeline = pipeline_factory()
        start = time.perf_counter()
        _run_once(pipeline)
        elapsed = time.perf_counter() - start
        if elapsed <= 0.0:
            continue
        best = max(best, len(tuples) / elapsed)
    if best == 0.0:
        raise StreamError(
            f"all {repeats} repeats over {len(tuples)} tuples finished "
            "faster than the clock resolution; use more tuples (or more "
            "repeats) to get a measurable elapsed time"
        )
    if observer is not None:
        pipeline = pipeline_factory()
        pipeline.attach(observer, prefix)
        _run_once(pipeline)
    return best
