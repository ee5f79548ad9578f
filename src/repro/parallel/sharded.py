"""Keyed sharded pipeline execution: the batched answer, or a refusal.

``run_sharded`` hash-partitions the input stream by one attribute,
runs each shard through the pipeline in a worker process
(``Pipeline.run_batched`` inside the worker, so the vectorised kernels
still apply), and merges the per-shard sinks — plus per-worker metrics,
trace and telemetry snapshots — back into the parent.

Contract (see ``docs/PARALLELISM.md``)
--------------------------------------
The sink contents equal ``run_batched``'s, element for element, or the
call raises:

* Every operator declares :attr:`~repro.streams.operators.Operator.
  partition_key`.  Before anything is pickled, :func:`_check_partition`
  refuses (:class:`StreamError`) any pipeline holding an operator that
  needs the whole stream in order, or a different key than
  ``partition_by``.
* The partition is a CRC32 key hash (never Python's salted ``hash()``),
  so all tuples of one key land in one shard, in input order.
* A ``CollectSink`` merge puts each output back at its input's stream
  position, which needs one output per input: a pipeline with a stage
  that may drop tuples is refused up front (:class:`ParallelError`; it
  would otherwise come back in shard order), and a shard that still
  emitted a different count raises the same at merge time.
  ``CountingSink`` counts sum.

The pipeline is pickled once with its observers detached; workers and
the in-process serial path unpickle that same payload.
"""

from __future__ import annotations

import numbers
import pickle
import zlib
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ParallelError, StreamError
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TelemetryConfig, TelemetryRecorder
from repro.obs.trace import TraceConfig, Tracer
from repro.parallel.pool import WorkerPool
from repro.streams.columnar import (
    ColumnarBatch,
    ColumnarPayload,
    as_columnar,
)
from repro.streams.operators import (
    ANY_PARTITION,
    CollectSink,
    CountingSink,
    Derive,
)
from repro.streams.tuples import UncertainTuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.streams.engine import Pipeline

__all__ = [
    "stable_key_hash",
    "partition_indices",
    "pipeline_payload",
    "run_sharded",
    "ShardedResult",
]


def stable_key_hash(value: object) -> int:
    """A run-stable partition hash that agrees with ``==``.

    Keys that compare equal must land in one shard, because the keyed
    operators group them together.  Python's numeric hash is unsalted
    and equal for equal numbers of any type (``1``, ``1.0``, ``True``,
    NumPy scalars), and a tuple combines its elements' hashes.  Other
    keys hash the CRC32 of their ``repr``, after NumPy scalars become
    their Python values and ``str`` subclasses plain ``str``: the builtin ``hash`` is
    salted per process for str/bytes, which would move keys between
    shards from one run to the next.
    """
    if isinstance(value, np.generic):
        # np.str_('a') == 'a' and np.True_ == 1, but their reprs differ.
        value = value.item()
    if isinstance(value, numbers.Number):
        return hash(value) & 0x7FFFFFFF
    if isinstance(value, str):
        value = str.__str__(value)  # a str subclass's repr may differ
    if isinstance(value, tuple):
        value = tuple(stable_key_hash(item) for item in value)
    return zlib.crc32(repr(value).encode("utf-8"))


def partition_indices(
    tuples: Sequence[UncertainTuple], n_shards: int, partition_by: str
) -> list[list[int]]:
    """Global input indices per shard, in input order within each shard.

    A tuple goes to shard ``stable_key_hash(value) % n_shards`` of its
    ``partition_by`` attribute value.
    """
    if n_shards < 1:
        raise ParallelError(f"n_shards must be >= 1, got {n_shards}")
    shards: list[list[int]] = [[] for _ in range(n_shards)]
    column = (
        tuples.column(partition_by)
        if isinstance(tuples, ColumnarBatch)
        else None
    )
    # Key values straight off the column are the same materialized
    # Python values as the tuple loop's, so they hash the same.
    keys = (
        column.values()
        if column is not None
        else (tup.value(partition_by) for tup in tuples)
    )
    for i, key in enumerate(keys):
        shards[stable_key_hash(key) % n_shards].append(i)
    return shards


def _check_partition(pipeline: "Pipeline", partition_by: object) -> None:
    """Raise :class:`StreamError` unless keyed sharding keeps the answer.

    ``partition_by`` must name an attribute that no ``Derive`` stage
    rewrites, and every operator's declared
    :attr:`~repro.streams.operators.Operator.partition_key` must be
    :data:`~repro.streams.operators.ANY_PARTITION` or that attribute.
    The sink must be a ``CollectSink`` or ``CountingSink``, the two
    sinks whose shard states merge.  A ``CollectSink`` merge puts each
    output at its input's position, so every stage before it must
    declare :attr:`~repro.streams.operators.Operator.
    one_output_per_input`; otherwise :class:`ParallelError`.
    """
    if not isinstance(partition_by, str):
        raise StreamError(
            f"run_sharded needs partition_by to name an attribute, got "
            f"{partition_by!r}"
        )
    for index, op in enumerate(pipeline.operators):
        if isinstance(op, Derive) and op.name == partition_by:
            # The shards are cut on the source values; a stage that
            # rewrites the key would regroup tuples across shards.
            raise StreamError(
                f"run_sharded(partition_by={partition_by!r}) would change "
                f"the answer: operator {index} (Derive) rewrites the "
                f"partition attribute; use run_batched"
            )
        key = op.partition_key
        if key == ANY_PARTITION or key == partition_by:
            continue
        needs = (
            "the whole stream in arrival order"
            if key is None
            else f"partition_by={key!r}"
        )
        raise StreamError(
            f"run_sharded(partition_by={partition_by!r}) would change the "
            f"answer: operator {index} ({type(op).__name__}) needs {needs}; "
            f"use run_batched"
        )
    sink = pipeline.sink
    if not isinstance(sink, (CollectSink, CountingSink)):
        raise StreamError(
            f"run_sharded needs a CollectSink or CountingSink terminal "
            f"operator; got {type(sink).__name__}"
        )
    if isinstance(sink, CollectSink):
        for index, op in enumerate(pipeline.operators[:-1]):
            if not op.one_output_per_input:
                raise ParallelError(
                    f"a sharded CollectSink needs one output per input to "
                    f"restore input order; operator {index} "
                    f"({type(op).__name__}) may drop tuples (collect it "
                    f"with run_batched, or count it with a CountingSink)"
                )


def pipeline_payload(pipeline: "Pipeline") -> bytes:
    """The pipeline pickled with its metrics, tracer and telemetry detached.

    Observers are re-attached to ``pipeline`` afterwards, so it keeps
    recording; the payload never carries registry, tracer or recorder
    objects (rolling kernels unbind their metric handles on detach).
    Raises :class:`ParallelError` when the pipeline cannot pickle.
    """
    registry, prefix = pipeline.registry, pipeline.metrics_prefix
    tracer, trace_prefix = pipeline.tracer, pipeline.trace_prefix
    telemetry = pipeline.telemetry
    if telemetry is not None:
        pipeline.detach_telemetry()
    if registry is not None:
        pipeline.detach_metrics()
    if tracer is not None:
        pipeline.detach_trace()
    try:
        return pickle.dumps(pipeline)
    except Exception as exc:  # noqa: BLE001 - any pickling failure
        raise ParallelError(
            f"pipeline is not picklable for sharded execution: {exc}"
        ) from exc
    finally:
        if registry is not None:
            pipeline.attach_metrics(registry, prefix)
        if tracer is not None:
            pipeline.attach_trace(tracer, trace_prefix)
        if telemetry is not None:
            pipeline.attach_telemetry(telemetry, prefix)


def _run_shard(
    payload: bytes,
    shard_source: "list[UncertainTuple] | ColumnarPayload",
    batch_size: int,
    metrics_prefix: str | None,
    trace_config: TraceConfig | None,
    trace_prefix: str,
    trace_shard: str,
    telemetry_config: TelemetryConfig | None,
) -> tuple[tuple[str, object], dict | None, dict | None, dict | None]:
    """Pool task: unpickle the pipeline and run one shard through it.

    ``shard_source`` is a :class:`ColumnarPayload` on the columnar
    transport (column blocks, possibly shared-memory handles), or a
    tuple list for non-uniform layouts.  Returns ``(sink_state,
    metrics_snapshot, trace_snapshot, telemetry_snapshot)``, all plain
    picklable values; a ``CollectSink`` that stayed columnar comes back
    as ``("collect-columnar", ColumnarPayload)`` so the return trip
    ships column blocks too.  When tracing, the worker builds a private
    :class:`Tracer` with shard label ``trace_shard`` (``shard{i}``) and
    the parent's :class:`TraceConfig` — span IDs depend only on
    ``(config.seed, shard label, seq)``, so the snapshot is identical
    whether this runs in a pool worker or in-process.
    """
    pipeline = pickle.loads(payload)
    if isinstance(shard_source, ColumnarPayload):
        shard_source = ColumnarBatch.from_payload(shard_source)
    registry = None
    if metrics_prefix is not None:
        registry = MetricsRegistry()
        pipeline.attach_metrics(registry, prefix=metrics_prefix)
    tracer = None
    if trace_config is not None:
        tracer = Tracer(trace_config, shard=trace_shard)
        pipeline.attach_trace(tracer, prefix=trace_prefix)
    telemetry = None
    if telemetry_config is not None:
        # Telemetry implies a registry on the parent, so metrics_prefix
        # is set here too; the recorder wraps this worker's registry and
        # its frames are keyed by this shard's local stream position.
        telemetry = TelemetryRecorder(telemetry_config, registry)
        pipeline.attach_telemetry(
            telemetry, prefix=metrics_prefix or "pipeline"
        )
    sink = pipeline.run_batched(shard_source, batch_size)
    snapshots = (
        registry.snapshot() if registry is not None else None,
        tracer.snapshot() if tracer is not None else None,
        telemetry.snapshot() if telemetry is not None else None,
    )
    if isinstance(sink, CountingSink):
        return (("count", sink.count), *snapshots)
    collected = sink.columnar_result()
    if collected is not None:
        # Workers never create shm segments (the parent owns segment
        # lifetimes) — plain ndarrays still cross the boundary as one
        # buffer per column, not one pickle per tuple.
        out_payload, _ = collected.to_payload(use_shm=False)
        return (("collect-columnar", out_payload), *snapshots)
    return (("collect", list(sink.results)), *snapshots)


class ShardedResult:
    """Per-shard sink states + observer snapshots, with merge helpers."""

    def __init__(
        self,
        sink_states: list[tuple[str, object]],
        snapshots: list[dict | None],
        shards: list[list[int]],
        total: int,
        trace_snapshots: list[dict | None],
        telemetry_snapshots: list[dict | None],
    ) -> None:
        self.sink_states = sink_states
        self.snapshots = snapshots
        self.shards = shards
        self.total = total
        self.trace_snapshots = trace_snapshots
        self.telemetry_snapshots = telemetry_snapshots

    def merged_count(self) -> int:
        """Summed CountingSink counts across shards."""
        return sum(
            int(state[1]) for state in self.sink_states  # type: ignore[arg-type]
            if state[0] == "count"
        )

    def merged_results(self) -> "list[UncertainTuple] | ColumnarBatch":
        """CollectSink contents in input order, as ``run_batched`` has them.

        Each shard's outputs go back to their inputs' global stream
        positions, which needs one output per input; any other count
        raises :class:`ParallelError`.  When every shard came back
        columnar the merge stays columnar and a :class:`ColumnarBatch`
        is returned.  Any shard that fell back to a tuple list (or a
        cross-shard schema mismatch) degrades the whole merge to the
        materialized tuple-list form.
        """
        per_shard: list[object] = []
        all_columnar = True
        for kind, value in self.sink_states:  # type: ignore[misc]
            if kind == "collect-columnar":
                per_shard.append(ColumnarBatch.from_payload(value))
            else:
                per_shard.append(value)
                all_columnar = False
        uneven = [
            f"shard {s}: {len(results)} out / {len(indices)} in"
            for s, (results, indices) in enumerate(
                zip(per_shard, self.shards)
            )
            if len(results) != len(indices)
        ]
        if uneven:
            raise ParallelError(
                "a sharded CollectSink needs one output per input to "
                "restore input order; got " + ", ".join(uneven)
                + " (collect a filtering pipeline with run_batched, or "
                "count it with a CountingSink)"
            )
        if all_columnar:
            try:
                return ColumnarBatch.interleave(
                    per_shard, self.shards, self.total
                )
            except StreamError:
                # Shards disagree on schema (e.g. a column degraded to
                # objects in one shard only) — materialize and merge
                # per tuple instead.
                pass
        slots: list[UncertainTuple | None] = [None] * self.total
        for results, indices in zip(per_shard, self.shards):
            if isinstance(results, ColumnarBatch):
                results = results.to_tuples()
            for position, tup in zip(indices, results):
                slots[position] = tup
        return slots  # type: ignore[return-value]

    def merge_metrics(self, registry: MetricsRegistry) -> None:
        """Fold every worker snapshot into ``registry``, in shard order."""
        for snapshot in self.snapshots:
            if snapshot is not None:
                registry.merge_snapshot(snapshot)

    def merge_trace(self, tracer: Tracer) -> None:
        """Fold every worker trace snapshot into ``tracer``, shard order."""
        for snapshot in self.trace_snapshots:
            if snapshot is not None:
                tracer.merge_spans(snapshot)

    def merge_telemetry(self, recorder: TelemetryRecorder) -> None:
        """Fold worker frame series into ``recorder``, in shard order.

        Frames fold by index — shard-local stream positions line up
        because every shard cuts frames at the same ``frame_interval``
        boundaries — so the merged series is a function of the stream
        and the pool's worker count.  Call *after*
        :meth:`merge_metrics`: the recorder is re-baselined against the
        post-merge registry so a later serial run does not re-count the
        merged-in deltas.
        """
        for snapshot in self.telemetry_snapshots:
            if snapshot is not None:
                recorder.merge_snapshot(snapshot)
        recorder.resync()


def run_sharded(
    pipeline: "Pipeline",
    source: Iterable[UncertainTuple],
    partition_by: str,
    pool: WorkerPool,
    batch_size: int = 256,
) -> ShardedResult:
    """Check, partition, execute per shard; return the mergeable result.

    This is the engine behind :meth:`Pipeline.run_sharded`; call that
    unless you are building a custom merge.  There is one shard per
    pool worker.  Refusals (:func:`_check_partition`, a bad
    ``batch_size``, an unpicklable pipeline) raise before any shard
    runs.
    """
    _check_partition(pipeline, partition_by)
    if batch_size < 1:
        raise StreamError(f"batch size must be >= 1, got {batch_size}")
    payload = pipeline_payload(pipeline)

    tuples: Sequence[UncertainTuple] = (
        source if isinstance(source, ColumnarBatch) else list(source)
    )
    shards = partition_indices(tuples, pool.n_workers, partition_by)
    metrics_prefix = (
        pipeline.metrics_prefix if pipeline.registry is not None else None
    )
    trace_config = (
        pipeline.tracer.config if pipeline.tracer is not None else None
    )
    telemetry_config = (
        pipeline.telemetry.config if pipeline.telemetry is not None else None
    )

    # The columnar transport: partition by fancy-indexing columns, ship
    # column blocks (shared memory for large ones, unless the shards
    # will run in-process anyway) instead of pickling tuples one by
    # one.  Non-uniform layouts keep the tuple-list path.
    batch = as_columnar(tuples)
    use_shm = batch is not None and not pool.serial
    owners: list = []
    tasks = []
    try:
        for shard_index, indices in enumerate(shards):
            if batch is not None:
                shard_source, shard_owners = batch.take(indices).to_payload(
                    use_shm=use_shm
                )
                owners.extend(shard_owners)
            else:
                shard_source = [tuples[i] for i in indices]
            tasks.append(
                (
                    payload,
                    shard_source,
                    batch_size,
                    metrics_prefix,
                    trace_config,
                    pipeline.trace_prefix,
                    f"shard{shard_index}",
                    telemetry_config,
                )
            )
        outcomes = pool.map_indexed(_run_shard, tasks)
    finally:
        # Workers copy out of the segments before returning, so the
        # parent can unlink as soon as every task has completed.
        for owner in owners:
            owner.release()

    return ShardedResult(
        sink_states=[state for state, _, _, _ in outcomes],
        snapshots=[snapshot for _, snapshot, _, _ in outcomes],
        shards=shards,
        total=len(tuples),
        trace_snapshots=[trace for _, _, trace, _ in outcomes],
        telemetry_snapshots=[t for _, _, _, t in outcomes],
    )
