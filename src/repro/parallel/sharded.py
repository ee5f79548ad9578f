"""Sharded pipeline execution: hash-partition, run per shard, merge.

``run_sharded`` is the data-parallel deployment mode of the push
pipeline: the input stream is partitioned into ``n_shards`` sub-streams,
each shard runs through its own pristine copy of the pipeline in a
worker process (``Pipeline.run_batched`` inside the worker, so the
vectorised kernels still apply), and the per-shard sinks — plus
per-worker metrics snapshots — are merged back deterministically.

Determinism contract (see ``docs/PARALLELISM.md``)
--------------------------------------------------
* The partition is a pure function of the tuple (or its index) and
  ``n_shards`` — a CRC32 key hash, never Python's salted ``hash()``.
* Shard ``i`` of a seeded run is reseeded from spawn child ``i`` of the
  root :class:`numpy.random.SeedSequence`.
* Results are merged in shard order (or exact input order, below), and
  the serial fallback executes the *same* shard decomposition
  in-process.

Together these make the sink contents a function of ``(stream, seed,
n_shards)`` only: any worker count — including 1, including a pool that
failed to start — produces identical output.

Sink merge semantics
--------------------
* ``CountingSink`` — counts sum.
* ``CollectSink`` with ``merge="interleave"`` (or ``"auto"`` when every
  shard emitted exactly one tuple per input) — outputs are placed back
  at their input's global stream position, which reproduces the serial
  ``run_batched`` order exactly for emit-per-input pipelines (all the
  window/group aggregates in this library).
* ``CollectSink`` with ``merge="concat"`` — shard 0's results, then
  shard 1's, ... — deterministic, but ordered by shard; the mode for
  pipelines that drop or multiply tuples.

Pipelines whose stateful operators partition cleanly by the same key as
``partition_by`` (e.g. :class:`~repro.streams.groupby.GroupedAggregate`
keyed by the partition attribute) produce *byte-identical* results to
the serial run; a global (unkeyed) window instead computes one window
per shard — a documented semantic choice, not an accident.
"""

from __future__ import annotations

import copy
import pickle
import warnings
import zlib
from collections.abc import Callable, Iterable, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ParallelError, StreamError
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TelemetryConfig, TelemetryRecorder
from repro.obs.trace import TraceConfig, Tracer
from repro.parallel.config import ParallelConfig
from repro.parallel.pool import WorkerPool
from repro.streams.columnar import (
    ColumnarBatch,
    ColumnarPayload,
    as_columnar,
)
from repro.streams.operators import CollectSink, CountingSink
from repro.streams.tuples import UncertainTuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.streams.engine import Pipeline

__all__ = [
    "stable_key_hash",
    "partition_indices",
    "run_sharded",
    "ShardedResult",
]

_MERGE_MODES = ("auto", "interleave", "concat")


def stable_key_hash(value: object) -> int:
    """A process- and run-stable hash for partition keys.

    Python's builtin ``hash`` is salted per process for str/bytes, so it
    would assign tuples to different shards in the parent and in a
    respawned benchmark run.  CRC32 over the key's ``repr`` is stable
    everywhere and fast enough for the partitioning loop.
    """
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, int):
        return value & 0x7FFFFFFF
    return zlib.crc32(repr(value).encode("utf-8"))


def partition_indices(
    tuples: Sequence[UncertainTuple],
    n_shards: int,
    partition_by: str | Callable[[UncertainTuple], object] | None,
) -> list[list[int]]:
    """Global input indices per shard, in input order within each shard.

    ``partition_by`` may be an attribute name (hash of its value), a
    callable (hash of its return), or ``None`` (round-robin by index).
    """
    if n_shards < 1:
        raise ParallelError(f"n_shards must be >= 1, got {n_shards}")
    shards: list[list[int]] = [[] for _ in range(n_shards)]
    if partition_by is None:
        for i in range(len(tuples)):
            shards[i % n_shards].append(i)
        return shards
    if isinstance(partition_by, str):
        if isinstance(tuples, ColumnarBatch):
            column = tuples.column(partition_by)
            if column is not None:
                # Key values straight off the column — same materialized
                # Python values, so the same hashes as the tuple loop.
                for i, key in enumerate(column.values()):
                    shards[stable_key_hash(key) % n_shards].append(i)
                return shards
        name = partition_by
        key_of = lambda tup: tup.value(name)  # noqa: E731
    else:
        key_of = partition_by
    for i, tup in enumerate(tuples):
        shards[stable_key_hash(key_of(tup)) % n_shards].append(i)
    return shards


def _run_shard(
    payload: "bytes | Pipeline",
    shard_source: "list[UncertainTuple] | ColumnarBatch | ColumnarPayload",
    batch_size: int,
    seed: np.random.SeedSequence | None,
    metrics_prefix: str | None,
    trace_config: TraceConfig | None = None,
    trace_prefix: str = "pipeline",
    trace_shard: str | None = None,
    telemetry_config: TelemetryConfig | None = None,
) -> tuple[tuple[str, object], dict | None, dict | None, dict | None]:
    """Pool task: run one shard through a pristine pipeline copy.

    ``payload`` is the pickled pipeline in worker processes, or an
    already-cloned pipeline on the serial deepcopy path — both paths
    share this function so they cannot drift apart.  ``shard_source``
    is a :class:`ColumnarPayload` on the columnar transport (column
    blocks, possibly shared-memory handles), or a tuple list / batch on
    the fallback paths.  Returns ``(sink_state, metrics_snapshot,
    trace_snapshot)``, all plain picklable values; a ``CollectSink``
    that stayed columnar comes back as ``("collect-columnar",
    ColumnarPayload)`` so the return trip ships column blocks too.
    When tracing, the worker builds a private :class:`Tracer` with
    shard label ``trace_shard`` (``shard{i}``) and the parent's
    :class:`TraceConfig` — span IDs depend only on ``(config.seed,
    shard label, seq)``, so the snapshot is identical whether this runs
    in a pool worker or on the serial fallback.
    """
    pipeline = pickle.loads(payload) if isinstance(payload, bytes) else payload
    if isinstance(shard_source, ColumnarPayload):
        shard_source = ColumnarBatch.from_payload(shard_source)
    if seed is not None:
        pipeline.reseed(seed)
    registry = None
    if metrics_prefix is not None:
        registry = MetricsRegistry()
        pipeline.attach_metrics(registry, prefix=metrics_prefix)
    tracer = None
    if trace_config is not None:
        tracer = Tracer(trace_config, shard=trace_shard or "shard?")
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
    snapshot = registry.snapshot() if registry is not None else None
    trace_snapshot = tracer.snapshot() if tracer is not None else None
    telemetry_snapshot = (
        telemetry.snapshot() if telemetry is not None else None
    )
    if isinstance(sink, CountingSink):
        return (
            ("count", sink.count),
            snapshot,
            trace_snapshot,
            telemetry_snapshot,
        )
    if isinstance(sink, CollectSink):
        collected = sink.columnar_result()
        if collected is not None:
            # Workers never create shm segments (the parent owns
            # segment lifetimes) — plain ndarrays still cross the
            # boundary as one buffer per column, not one pickle per
            # tuple.
            out_payload, _ = collected.to_payload(use_shm=False)
            return (
                ("collect-columnar", out_payload),
                snapshot,
                trace_snapshot,
                telemetry_snapshot,
            )
        return (
            ("collect", list(sink.results)),
            snapshot,
            trace_snapshot,
            telemetry_snapshot,
        )
    raise StreamError(
        f"run_sharded needs a CollectSink or CountingSink terminal "
        f"operator; got {type(sink).__name__} (a generic operator's "
        f"state cannot be merged across shards)"
    )


class ShardedResult:
    """Per-shard sink states + metrics snapshots, with merge helpers."""

    def __init__(
        self,
        sink_states: list[tuple[str, object]],
        snapshots: list[dict | None],
        shards: list[list[int]],
        total: int,
        merge: str,
        trace_snapshots: list[dict | None] | None = None,
        telemetry_snapshots: list[dict | None] | None = None,
    ) -> None:
        self.sink_states = sink_states
        self.snapshots = snapshots
        self.shards = shards
        self.total = total
        self.merge = merge
        self.trace_snapshots = (
            trace_snapshots if trace_snapshots is not None else []
        )
        self.telemetry_snapshots = (
            telemetry_snapshots if telemetry_snapshots is not None else []
        )

    @property
    def kind(self) -> str:
        if not self.sink_states:
            return "collect"
        kind = self.sink_states[0][0]
        return "collect" if kind == "collect-columnar" else kind

    def merged_count(self) -> int:
        """Summed CountingSink counts across shards."""
        return sum(
            int(state[1]) for state in self.sink_states  # type: ignore[arg-type]
            if state[0] == "count"
        )

    def merged_results(self) -> "list[UncertainTuple] | ColumnarBatch":
        """CollectSink contents merged per the configured mode.

        When every shard came back columnar the merge stays columnar —
        ``interleave`` scatters each shard's rows to their global input
        positions, ``concat`` concatenates columns in shard order — and
        a :class:`ColumnarBatch` is returned.  Any shard that fell back
        to a tuple list (or a cross-shard schema mismatch) degrades the
        whole merge to the materialized tuple-list form.
        """
        per_shard: list[object] = []
        all_columnar = True
        for kind, value in self.sink_states:  # type: ignore[misc]
            if kind == "collect-columnar":
                per_shard.append(
                    ColumnarBatch.from_payload(value)
                    if isinstance(value, ColumnarPayload)
                    else value
                )
            else:
                per_shard.append(value)
                all_columnar = False
        one_to_one = all(
            len(results) == len(indices)
            for results, indices in zip(per_shard, self.shards)
        )
        if self.merge == "interleave" and not one_to_one:
            raise ParallelError(
                "merge='interleave' requires every shard to emit exactly "
                "one tuple per input; got "
                + ", ".join(
                    f"shard {s}: {len(r)} out / {len(ix)} in"
                    for s, (r, ix) in enumerate(zip(per_shard, self.shards))
                )
                + " (use merge='concat' for filtering/expanding pipelines)"
            )
        if all_columnar:
            try:
                if self.merge == "concat" or not one_to_one:
                    return ColumnarBatch.concat(per_shard)
                return ColumnarBatch.interleave(
                    per_shard, self.shards, self.total
                )
            except StreamError:
                # Shards disagree on schema (e.g. a column degraded to
                # objects in one shard only) — materialize and merge
                # per tuple instead.
                per_shard = [batch.to_tuples() for batch in per_shard]
        else:
            per_shard = [
                part.to_tuples()
                if isinstance(part, ColumnarBatch)
                else part
                for part in per_shard
            ]
        if self.merge == "concat" or not one_to_one:
            concatenated: list[UncertainTuple] = []
            for results in per_shard:
                concatenated.extend(results)
            return concatenated
        slots: list[UncertainTuple | None] = [None] * self.total
        for results, indices in zip(per_shard, self.shards):
            for position, tup in zip(indices, results):
                slots[position] = tup
        return [tup for tup in slots if tup is not None]

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
        boundaries — so the merged series is a function of ``(stream,
        seed, n_shards)`` only, like the sinks.  Call *after*
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
    n_workers: int | None = None,
    partition_by: str | Callable[[UncertainTuple], object] | None = None,
    n_shards: int | None = None,
    batch_size: int = 256,
    seed: int | np.random.SeedSequence | None = None,
    merge: str = "auto",
    config: ParallelConfig | None = None,
    pool: WorkerPool | None = None,
) -> ShardedResult:
    """Partition, execute per shard, and return the mergeable result.

    This is the engine behind :meth:`Pipeline.run_sharded`; call that
    unless you are building a custom merge.  ``n_shards`` defaults to
    the resolved worker count — pin it explicitly when results must be
    stable while the worker count varies (the Fig 5 harnesses pin
    ``n_shards=4``).
    """
    if merge not in _MERGE_MODES:
        raise ParallelError(
            f"merge must be one of {_MERGE_MODES}, got {merge!r}"
        )
    if batch_size < 1:
        raise StreamError(f"batch size must be >= 1, got {batch_size}")
    if config is None:
        config = ParallelConfig(n_workers=n_workers)
    elif n_workers is not None:
        config = dataclasses_replace(config, n_workers=n_workers)

    tuples: Sequence[UncertainTuple]
    if isinstance(source, ColumnarBatch):
        tuples = source
    else:
        tuples = list(source)
    shards_total = (
        n_shards if n_shards is not None else max(config.resolve_workers(), 1)
    )
    shards = partition_indices(tuples, shards_total, partition_by)

    metrics_prefix = (
        pipeline.metrics_prefix if pipeline.registry is not None else None
    )
    parent_tracer = pipeline.tracer
    trace_config = (
        parent_tracer.config if parent_tracer is not None else None
    )
    trace_prefix = pipeline.trace_prefix
    parent_telemetry = getattr(pipeline, "telemetry", None)
    telemetry_config = (
        parent_telemetry.config if parent_telemetry is not None else None
    )

    root = (
        seed
        if isinstance(seed, np.random.SeedSequence) or seed is None
        else np.random.SeedSequence(seed)
    )
    shard_seeds: Sequence[np.random.SeedSequence | None]
    shard_seeds = (
        root.spawn(len(shards)) if root is not None else [None] * len(shards)
    )

    pristine = pipeline.pristine()
    payload: bytes | None
    try:
        payload = pickle.dumps(pristine)
    except Exception as exc:  # noqa: BLE001 - any pickling failure degrades
        if not config.fallback_serial:
            raise ParallelError(
                f"pipeline is not picklable for sharded execution: {exc}"
            ) from exc
        if config.resolve_workers() > 1:
            warnings.warn(
                f"pipeline is not picklable ({exc}); "
                "running shards serially via deepcopy",
                stacklevel=2,
            )
        payload = None

    # The columnar transport: partition by fancy-indexing columns, ship
    # column blocks (shared memory for large ones) instead of pickling
    # tuples one by one.  Non-uniform layouts keep the tuple-list path.
    batch = as_columnar(tuples)

    def shard_tuples(indices: list[int]) -> list[UncertainTuple]:
        return [tuples[i] for i in indices]

    if payload is None:
        outcomes = [
            _run_shard(
                copy.deepcopy(pristine),
                batch.take(indices)
                if batch is not None
                else shard_tuples(indices),
                batch_size,
                shard_seeds[shard_index],
                metrics_prefix,
                trace_config,
                trace_prefix,
                f"shard{shard_index}",
                telemetry_config,
            )
            for shard_index, indices in enumerate(shards)
        ]
    else:
        # The pool exists before the tasks so shared-memory shipping can
        # be skipped when the shards will run in-process anyway.
        own_pool = pool is None
        pool = pool if pool is not None else WorkerPool(config)
        use_shm = batch is not None and not pool.serial
        owners: list = []
        tasks = []
        try:
            for shard_index, indices in enumerate(shards):
                if batch is not None:
                    shard_source, shard_owners = batch.take(
                        indices
                    ).to_payload(use_shm=use_shm)
                    owners.extend(shard_owners)
                else:
                    shard_source = shard_tuples(indices)
                tasks.append(
                    (
                        payload,
                        shard_source,
                        batch_size,
                        shard_seeds[shard_index],
                        metrics_prefix,
                        trace_config,
                        trace_prefix,
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
            if own_pool:
                pool.close()

    return ShardedResult(
        sink_states=[state for state, _, _, _ in outcomes],
        snapshots=[snapshot for _, snapshot, _, _ in outcomes],
        shards=shards,
        total=len(tuples),
        merge=merge,
        trace_snapshots=[trace for _, _, trace, _ in outcomes],
        telemetry_snapshots=[t for _, _, _, t in outcomes],
    )


def dataclasses_replace(
    config: ParallelConfig, **overrides: object
) -> ParallelConfig:
    """``dataclasses.replace`` spelled out (keeps the import surface flat)."""
    import dataclasses

    return dataclasses.replace(config, **overrides)
