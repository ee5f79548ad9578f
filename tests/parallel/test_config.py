"""WorkerPool sizing: the one knob of sharded execution."""

import pytest

from repro.errors import ParallelError
from repro.parallel import WorkerPool, available_cpus


class TestResolveWorkers:
    def test_default_is_serial(self):
        # One worker never starts a process.
        pool = WorkerPool(1)
        assert pool.serial
        assert pool.map_indexed(divmod, [(7, 2), (9, 4)]) == [(3, 1), (2, 1)]
        assert pool._executor is None

    def test_explicit_wins_over_env(self, monkeypatch):
        # The REPRO_WORKERS override is gone: only the caller's count
        # sizes a pool.
        monkeypatch.setenv("REPRO_WORKERS", "8")
        assert WorkerPool(3).n_workers == 3

    def test_negative_workers_rejected(self):
        with pytest.raises(ParallelError, match="n_workers"):
            WorkerPool(-1)

    def test_zero_means_all_cpus(self):
        assert WorkerPool(0).n_workers == available_cpus()

    def test_available_cpus_positive(self):
        assert available_cpus() >= 1
