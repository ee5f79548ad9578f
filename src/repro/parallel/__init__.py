"""Process-pool execution subsystem.

Sharded execution returns exactly what ``Pipeline.run_batched`` returns,
or raises before any shard runs:

* :func:`run_sharded` — keyed pipeline execution behind
  :meth:`repro.streams.engine.Pipeline.run_sharded`, which checks every
  operator's partition key first and ships one pickled payload
  (:func:`pipeline_payload`) (``repro.parallel.sharded``);
* :class:`WorkerPool` — the caller-owned, reusable pool with serial
  fallback it rides on (``repro.parallel.pool``).

See ``docs/PARALLELISM.md`` for the worker model and the contract.
"""

from repro.parallel.pool import WorkerPool, available_cpus
from repro.parallel.sharded import (
    ShardedResult,
    partition_indices,
    pipeline_payload,
    run_sharded,
    stable_key_hash,
)

__all__ = [
    "available_cpus",
    "WorkerPool",
    "ShardedResult",
    "partition_indices",
    "pipeline_payload",
    "run_sharded",
    "stable_key_hash",
]
