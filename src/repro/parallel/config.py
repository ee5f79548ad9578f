"""Configuration for the process-pool execution subsystem.

A :class:`ParallelConfig` carries the knobs of sharded execution: how
many worker processes to use, which ``multiprocessing`` start method to
use, and whether a pool that cannot start degrades to the serial path.

Worker-count resolution order (first hit wins):

1. an explicit ``n_workers`` on the config,
2. the ``REPRO_WORKERS`` environment variable,
3. ``1`` — the serial path.

The subsystem treats ``n_workers <= 1`` as "run serially in-process";
sharded execution is required to produce *identical* results on the
serial path (see ``docs/PARALLELISM.md`` for the determinism
contract), so flipping ``REPRO_WORKERS`` can never change an answer.
"""

from __future__ import annotations

import dataclasses
import os

from repro.errors import ParallelError

__all__ = [
    "WORKERS_ENV_VAR",
    "ParallelConfig",
    "available_cpus",
]

#: Environment variable consulted when ``n_workers`` is not set.
WORKERS_ENV_VAR = "REPRO_WORKERS"

_START_METHODS = ("spawn", "forkserver", "fork")


def available_cpus() -> int:
    """CPUs usable by this process (affinity-aware where supported)."""
    try:
        affinity = os.sched_getaffinity(0)  # type: ignore[attr-defined]
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1
    return len(affinity) or 1


def _workers_from_env() -> int | None:
    raw = os.environ.get(WORKERS_ENV_VAR)
    if raw is None or not raw.strip():
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ParallelError(
            f"{WORKERS_ENV_VAR} must be an integer, got {raw!r}"
        ) from None
    if value < 0:
        raise ParallelError(
            f"{WORKERS_ENV_VAR} must be >= 0, got {value}"
        )
    return value


@dataclasses.dataclass(frozen=True)
class ParallelConfig:
    """Knobs for process-pool execution.

    ``n_workers``
        Worker process count.  ``None`` defers to ``REPRO_WORKERS``,
        then to 1 (serial).  ``0`` means "one worker per available CPU".
    ``start_method``
        ``multiprocessing`` start method.  The default ``"spawn"``
        gives identical semantics on every platform and never inherits
        ad-hoc parent state, which the determinism contract relies on.
    ``fallback_serial``
        When True (default) a pool that cannot start — sandboxed
        platform, fork bomb limits, missing semaphores — degrades to
        the in-process serial path instead of raising.
    """

    n_workers: int | None = None
    start_method: str = "spawn"
    fallback_serial: bool = True

    def __post_init__(self) -> None:
        if self.n_workers is not None and self.n_workers < 0:
            raise ParallelError(
                f"n_workers must be >= 0, got {self.n_workers}"
            )
        if self.start_method not in _START_METHODS:
            raise ParallelError(
                f"start_method must be one of {_START_METHODS}, "
                f"got {self.start_method!r}"
            )

    def resolve_workers(self) -> int:
        """The effective worker count (config, env, then serial)."""
        workers = self.n_workers
        if workers is None:
            workers = _workers_from_env()
        if workers is None:
            return 1
        if workers == 0:
            return available_cpus()
        return workers
