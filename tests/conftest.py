"""Shared fixtures for the test suite.

Every statistical test is seeded so the suite is deterministic; tolerance
thresholds are chosen so that seeds far from the fixed ones would pass
too (no seed-hunting).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads.cartel import CarTelSimulator


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_sim() -> CarTelSimulator:
    """A small road network, fresh per test.

    The simulator draws observations from one generator, so a shared
    instance would make each test's data depend on the tests before it.
    """
    return CarTelSimulator(n_segments=60, seed=7)


@pytest.fixture
def paper_example3_sample() -> list[float]:
    """The 10 traffic-delay observations of the paper's Example 3."""
    return [71, 56, 82, 74, 69, 77, 65, 78, 59, 80]
