"""Shared-memory transport for large arrays.

Column blocks are the hot payload of sharded execution (see
``repro.streams.columnar``).  Pickling a large block into a pool task
would copy it through the pipe; instead the parent publishes it once as
a POSIX shared-memory segment and the task carries only a tiny
:class:`SharedSpec` (name, shape, dtype).  Workers attach views and
copy out what they need.

Everything degrades gracefully: :func:`share_array` returns ``None``
when the platform cannot allocate shared memory, and callers fall back
to pickling the array.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = ["SharedSpec", "SharedArray", "share_array", "attach_array"]


@dataclasses.dataclass(frozen=True)
class SharedSpec:
    """Picklable handle to a shared ndarray: segment name + layout."""

    name: str
    shape: tuple[int, ...]
    dtype: str


class SharedArray:
    """Owner side of a shared ndarray; closes and unlinks on release.

    Use as a context manager in the parent so the segment is always
    unlinked, even when a worker dies mid-task::

        with SharedArray.create(matrix) as shared:
            pool_task(shared.spec, ...)
    """

    def __init__(self, shm: object, array: np.ndarray) -> None:
        self._shm = shm
        self.array = array

    @classmethod
    def create(cls, source: np.ndarray) -> "SharedArray":
        from multiprocessing import shared_memory

        source = np.ascontiguousarray(source)
        if source.dtype.hasobject:
            raise ValueError(
                f"cannot share an object-dtype array (dtype {source.dtype}); "
                "shared memory only holds flat numeric buffers"
            )
        shm = shared_memory.SharedMemory(
            create=True, size=max(source.nbytes, 1)
        )
        try:
            array = np.ndarray(
                source.shape, dtype=source.dtype, buffer=shm.buf
            )
            array[...] = source
        except BaseException:
            # The segment exists in the kernel namespace from the moment
            # SharedMemory(create=True) returns — without this unlink a
            # failed mapping/copy would leak it until process exit (and
            # trip the resource tracker).
            shm.close()
            shm.unlink()
            raise
        return cls(shm, array)

    @classmethod
    def allocate(
        cls, shape: tuple[int, ...], dtype: np.dtype | str = np.float64
    ) -> "SharedArray":
        from multiprocessing import shared_memory

        dtype = np.dtype(dtype)
        if dtype.hasobject:
            raise ValueError(
                f"cannot share an object-dtype array (dtype {dtype}); "
                "shared memory only holds flat numeric buffers"
            )
        nbytes = int(np.prod(shape)) * dtype.itemsize
        shm = shared_memory.SharedMemory(create=True, size=max(nbytes, 1))
        try:
            array = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
        except BaseException:
            shm.close()
            shm.unlink()
            raise
        return cls(shm, array)

    @property
    def spec(self) -> SharedSpec:
        return SharedSpec(
            self._shm.name,  # type: ignore[attr-defined]
            tuple(self.array.shape),
            self.array.dtype.str,
        )

    def release(self) -> None:
        """Close the parent's view and unlink the segment."""
        # Drop the ndarray view first: SharedMemory.close() refuses to
        # release a buffer that still has exported views.
        self.array = None  # type: ignore[assignment]
        try:
            self._shm.close()  # type: ignore[attr-defined]
            self._shm.unlink()  # type: ignore[attr-defined]
        except (FileNotFoundError, OSError):  # pragma: no cover
            pass

    def __enter__(self) -> "SharedArray":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


def share_array(source: np.ndarray) -> SharedArray | None:
    """Publish ``source`` as shared memory; ``None`` when unsupported.

    Only *platform* failures (no shm support, out of segments) degrade
    to ``None`` — a :class:`ValueError` for an unshareable input array
    (e.g. object dtype) is a caller bug and propagates.
    """
    try:
        return SharedArray.create(source)
    except (ImportError, OSError, PermissionError):
        return None


def attach_array(spec: SharedSpec) -> tuple[np.ndarray, object]:
    """Worker side: map the segment and return ``(array, segment)``.

    The caller must keep the returned segment object alive while using
    the array and ``close()`` it afterwards (never ``unlink`` — the
    parent owns the segment's lifetime).
    """
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=spec.name)
    array = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf)
    return array, shm
