"""ParallelConfig validation and the worker-count env override."""

import pytest

from repro.errors import ParallelError
from repro.parallel import (
    WORKERS_ENV_VAR,
    ParallelConfig,
    available_cpus,
)


class TestParallelConfig:
    def test_defaults(self):
        config = ParallelConfig()
        assert config.n_workers is None
        assert config.start_method == "spawn"
        assert config.fallback_serial

    def test_negative_workers_rejected(self):
        with pytest.raises(ParallelError, match="n_workers"):
            ParallelConfig(n_workers=-1)

    def test_bad_start_method_rejected(self):
        with pytest.raises(ParallelError, match="start_method"):
            ParallelConfig(start_method="threads")

    def test_frozen(self):
        with pytest.raises(Exception):
            ParallelConfig().n_workers = 3  # type: ignore[misc]


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert ParallelConfig().resolve_workers() == 1

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "8")
        assert ParallelConfig(n_workers=3).resolve_workers() == 3

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "5")
        config = ParallelConfig()
        assert config.resolve_workers() == 5

    def test_env_blank_ignored(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "  ")
        assert ParallelConfig().resolve_workers() == 1

    def test_env_invalid_raises(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "many")
        with pytest.raises(ParallelError, match=WORKERS_ENV_VAR):
            ParallelConfig().resolve_workers()

    def test_env_negative_raises(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "-2")
        with pytest.raises(ParallelError, match=WORKERS_ENV_VAR):
            ParallelConfig().resolve_workers()

    def test_zero_means_all_cpus(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert ParallelConfig(n_workers=0).resolve_workers() == available_cpus()

    def test_available_cpus_positive(self):
        assert available_cpus() >= 1
