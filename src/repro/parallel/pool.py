"""Worker-pool lifecycle with graceful serial degradation.

:class:`WorkerPool` wraps a ``concurrent.futures.ProcessPoolExecutor``
on the ``spawn`` start method.  Two properties matter more than raw
convenience:

* **Degradation, not crashes.**  Pool start-up can fail in plenty of
  legitimate environments (sandboxes without ``/dev/shm`` semaphores,
  containers with one CPU and strict rlimits).  The pool then warns
  once, reports itself as serial, and every ``map_indexed`` call runs
  in-process.  Results are identical either way: sharded execution
  returns the batched answer or refuses, so the pool can only change
  wall time.
* **Reuse.**  With ``spawn`` each worker pays a full interpreter +
  NumPy import on start.  The caller owns one long-lived pool and
  passes it to every :meth:`~repro.streams.engine.Pipeline.run_sharded`
  call; a pool per call measured slower than the serial batched path
  (docs/PARALLELISM.md).
"""

from __future__ import annotations

import os
import warnings
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from repro.errors import ParallelError

__all__ = ["WorkerPool", "available_cpus"]


def available_cpus() -> int:
    """CPUs usable by this process (affinity-aware where supported)."""
    try:
        affinity = os.sched_getaffinity(0)  # type: ignore[attr-defined]
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1
    return len(affinity) or 1


class WorkerPool:
    """A reusable ``spawn`` process pool of ``n_workers`` processes.

    ``n_workers=0`` means one worker per available CPU.  The executor
    starts lazily on first use; ``serial`` pools (one worker, or a
    start-up failure) never create processes at all.
    """

    def __init__(self, n_workers: int) -> None:
        if n_workers < 0:
            raise ParallelError(f"n_workers must be >= 0, got {n_workers}")
        self.n_workers = n_workers if n_workers > 0 else available_cpus()
        self._executor: Any = None
        self._broken = False

    @property
    def serial(self) -> bool:
        """True when calls will run in-process."""
        return self.n_workers <= 1 or self._broken

    def _ensure_executor(self) -> Any:
        if self._executor is not None or self.serial:
            return self._executor
        try:
            import multiprocessing

            self._executor = ProcessPoolExecutor(
                max_workers=self.n_workers,
                mp_context=multiprocessing.get_context("spawn"),
            )
        except Exception as exc:  # noqa: BLE001 - degrade on any start failure
            warnings.warn(
                f"parallel pool unavailable ({exc}); running serially",
                stacklevel=3,
            )
            self._broken = True
            self._executor = None
        return self._executor

    def map_indexed(
        self, fn: Callable[..., Any], tasks: Sequence[tuple]
    ) -> list[Any]:
        """Run ``fn(*task)`` for every task; results in task order.

        Task order — never completion order — keeps every downstream
        merge deterministic regardless of scheduling.  On a serial pool
        the tasks run in-process in the same order.  An exception a task
        raises propagates once every task has finished, and the pool
        stays usable.  If the worker processes cannot start (on the
        first submit) or the pool breaks mid-flight (a worker was
        OOM-killed, say) the call warns and runs every task serially,
        and the pool stays serial from then on.
        """
        executor = self._ensure_executor()
        if executor is None:
            return [fn(*task) for task in tasks]
        try:
            # The first submit spawns the worker processes, so start-up
            # failures (EAGAIN under rlimits, no thread) surface here.
            futures = [executor.submit(fn, *task) for task in tasks]
        except (OSError, RuntimeError) as exc:
            return self._run_serially(
                f"parallel pool unavailable ({exc}); running serially",
                fn,
                tasks,
            )
        wait(futures)
        try:
            return [future.result() for future in futures]
        except BrokenProcessPool as exc:
            return self._run_serially(
                f"parallel pool failed mid-run ({exc}); re-running serially",
                fn,
                tasks,
            )

    def _run_serially(
        self, message: str, fn: Callable[..., Any], tasks: Sequence[tuple]
    ) -> list[Any]:
        """Warn, stay serial from now on, and run every task in-process."""
        warnings.warn(message, stacklevel=4)
        self.close()
        self._broken = True
        return [fn(*task) for task in tasks]

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
