"""Shared-memory transport: the IPC path for large column blocks.

Sharded execution publishes large numeric columns through
:mod:`repro.parallel.shm`; every failure of the platform must degrade to
pickling (``share_array`` returns ``None``) without leaking segments.
"""

import numpy as np
import pytest

from repro.parallel.shm import SharedArray, attach_array, share_array


class TestSharedMemory:
    def test_roundtrip(self):
        data = np.arange(12, dtype=float).reshape(3, 4)
        shared = share_array(data)
        if shared is None:
            pytest.skip("no usable shared memory on this platform")
        with shared:
            view, segment = attach_array(shared.spec)
            try:
                assert np.array_equal(view, data)
                view[0, 0] = -1.0
                assert shared.array[0, 0] == -1.0
            finally:
                del view
                segment.close()

    def test_allocate_and_release(self):
        try:
            shared = SharedArray.allocate((5,), np.dtype(float))
        except Exception:
            pytest.skip("no usable shared memory on this platform")
        shared.array[:] = 2.5
        assert shared.spec.shape == (5,)
        shared.release()

    def test_object_dtype_is_a_caller_bug(self):
        # An unshareable *input* is a ValueError that propagates — it
        # must not be mistaken for "platform has no shared memory" and
        # silently degraded to None by share_array.
        zero_dim = np.array(None, dtype=object)
        with pytest.raises(ValueError, match="object-dtype"):
            SharedArray.create(zero_dim)
        with pytest.raises(ValueError, match="object-dtype"):
            share_array(np.array([{}, {}], dtype=object))
        with pytest.raises(ValueError, match="object-dtype"):
            SharedArray.allocate((3,), np.dtype(object))

    def test_platform_failure_degrades_to_none(self, monkeypatch):
        from multiprocessing import shared_memory

        def broken(*args, **kwargs):
            raise OSError("no shm on this platform")

        monkeypatch.setattr(shared_memory, "SharedMemory", broken)
        assert share_array(np.zeros(4)) is None

    def test_failed_mapping_does_not_leak_segment(self, monkeypatch):
        # If ndarray mapping fails *after* SharedMemory(create=True),
        # the segment must be closed and unlinked, not leaked until
        # process exit (where the resource tracker complains).
        from multiprocessing import shared_memory

        created = []
        real = shared_memory.SharedMemory

        class Recording(real):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                if kwargs.get("create"):
                    created.append(self.name)

        monkeypatch.setattr(shared_memory, "SharedMemory", Recording)

        class FailingMap:
            def __call__(self, *args, **kwargs):
                raise MemoryError("mapping failed")

        import repro.parallel.shm as shm_module

        monkeypatch.setattr(
            shm_module.np,
            "ndarray",
            FailingMap(),
            raising=True,
        )
        try:
            with pytest.raises(MemoryError):
                SharedArray.create(np.zeros(64))
            with pytest.raises(MemoryError):
                SharedArray.allocate((64,), "f8")
        finally:
            monkeypatch.undo()
        assert len(created) == 2
        for name in created:
            with pytest.raises(FileNotFoundError):
                real(name=name)
