"""Keyed sharded pipeline execution: the batched answer, or a refusal.

``run_sharded`` hash-partitions the input stream by one attribute,
runs each shard through the pipeline in a worker process
(``Pipeline.run_batched`` inside the worker, so the vectorised kernels
still apply), and merges the per-shard sinks — plus one observer
snapshot per shard — back into the parent.

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

The pipeline is pickled once with its observer detached; workers and
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
from repro.obs.instrument import Observer
from repro.obs.timeseries import TelemetryConfig
from repro.obs.trace import TraceConfig, Tracer
from repro.parallel.pool import WorkerPool
from repro.streams.columnar import ColumnarBatch, as_columnar
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
    """The pipeline pickled with its observer detached.

    The observer is re-attached to ``pipeline`` afterwards, so it keeps
    recording; the payload never carries registry, tracer or recorder
    objects (rolling kernels unbind their metric handles on detach).
    Raises :class:`ParallelError` when the pipeline cannot pickle.
    """
    observer, prefix = pipeline.observer, pipeline.prefix
    if observer is not None:
        pipeline.detach()
    try:
        return pickle.dumps(pipeline)
    except Exception as exc:  # noqa: BLE001 - any pickling failure
        raise ParallelError(
            f"pipeline is not picklable for sharded execution: {exc}"
        ) from exc
    finally:
        if observer is not None:
            pipeline.attach(observer, prefix)


def _run_shard(
    payload: bytes,
    shard_source: "list[UncertainTuple] | ColumnarBatch",
    batch_size: int,
    observe: "tuple[str, TraceConfig | None, TelemetryConfig | None] | None",
    shard: str,
) -> tuple[tuple[str, object], dict | None]:
    """Pool task: unpickle the pipeline and run one shard through it.

    ``shard_source`` is the shard's :class:`ColumnarBatch`, or a tuple
    list for non-uniform layouts; the pool pickles either one, and a
    batch crosses as one buffer per column.  Returns ``(sink_state,
    observer_snapshot)``, both plain picklable values: ``("count",
    n)`` or ``("collect", results)``, where ``results`` is the
    ``CollectSink``'s :class:`ColumnarBatch` when it stayed columnar and
    its tuple list otherwise.

    ``observe`` is the parent observer's ``(prefix, trace config, frames
    config)``, or ``None`` when the parent is not observed.  The worker
    builds a fresh :class:`Observer` from it whose tracer has shard label
    ``shard`` (``shard{i}``): span IDs depend only on ``(config.seed,
    shard label, seq)``, so the snapshot is identical whether this runs
    in a pool worker or in-process.
    """
    pipeline = pickle.loads(payload)
    observer = None
    if observe is not None:
        prefix, trace_config, frames_config = observe
        observer = Observer(frames=frames_config)
        if trace_config is not None:
            observer.tracer = Tracer(trace_config, shard=shard)
        pipeline.attach(observer, prefix)
    sink = pipeline.run_batched(shard_source, batch_size)
    snapshot = observer.snapshot() if observer is not None else None
    if isinstance(sink, CountingSink):
        return ("count", sink.count), snapshot
    collected = sink.columnar_result()
    if collected is None:
        collected = list(sink.results)
    return ("collect", collected), snapshot


class ShardedResult:
    """Per-shard sink states + observer snapshots, with merge helpers.

    ``snapshots`` holds one ``Observer.snapshot()`` per shard in shard
    order (empty when the pipeline is not observed);
    ``Pipeline.run_sharded`` folds each with one ``Observer.merge``.
    """

    def __init__(
        self,
        sink_states: list[tuple[str, object]],
        snapshots: list[dict],
        shards: list[list[int]],
        total: int,
    ) -> None:
        self.sink_states = sink_states
        self.snapshots = snapshots
        self.shards = shards
        self.total = total

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
        per_shard = [value for _, value in self.sink_states]
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
        if all(isinstance(results, ColumnarBatch) for results in per_shard):
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
    observer = pipeline.observer
    observe = None
    if observer is not None:
        tracer, frames = observer.tracer, observer.frames
        observe = (
            pipeline.prefix,
            None if tracer is None else tracer.config,
            None if frames is None else frames.config,
        )

    # Partition a columnar source by fancy-indexing its columns, so each
    # task pickles one buffer per column instead of one object per
    # tuple.  Non-uniform layouts ship tuple lists.
    batch = as_columnar(tuples)
    tasks = [
        (
            payload,
            [tuples[i] for i in indices]
            if batch is None
            else batch.take(indices),
            batch_size,
            observe,
            f"shard{shard_index}",
        )
        for shard_index, indices in enumerate(shards)
    ]
    outcomes = pool.map_indexed(_run_shard, tasks)

    return ShardedResult(
        sink_states=[state for state, _ in outcomes],
        snapshots=[snap for _, snap in outcomes if snap is not None],
        shards=shards,
        total=len(tuples),
    )
