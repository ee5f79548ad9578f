"""Process-pool execution subsystem.

Sharded execution follows one determinism contract (fixed work
decomposition + per-shard ``SeedSequence.spawn`` seeding, so results are
invariant to the worker count):

* :func:`run_sharded` — hash-partitioned pipeline execution behind
  :meth:`repro.streams.engine.Pipeline.run_sharded`
  (``repro.parallel.sharded``);
* :class:`WorkerPool` — the reusable pool with transparent serial
  fallback it rides on (``repro.parallel.pool``);
* :func:`share_array` / :func:`attach_array` — the shared-memory
  transport for large column blocks (``repro.parallel.shm``).

See ``docs/PARALLELISM.md`` for the worker model and the determinism
contract, and ``REPRO_WORKERS`` for the environment override.
"""

from repro.parallel.config import (
    WORKERS_ENV_VAR,
    ParallelConfig,
    available_cpus,
)
from repro.parallel.pool import WorkerPool
from repro.parallel.sharded import (
    ShardedResult,
    partition_indices,
    run_sharded,
    stable_key_hash,
)
from repro.parallel.shm import SharedArray, SharedSpec, attach_array, share_array

__all__ = [
    "WORKERS_ENV_VAR",
    "ParallelConfig",
    "available_cpus",
    "WorkerPool",
    "ShardedResult",
    "partition_indices",
    "run_sharded",
    "stable_key_hash",
    "SharedArray",
    "SharedSpec",
    "attach_array",
    "share_array",
]
