"""Long-lived worker pools shared by the sharded-execution suites.

``run_sharded`` takes a caller-owned pool and runs one shard per worker,
so each pool size is a different shard decomposition.  The pools start
their processes lazily and stop when the test run ends.
"""

import pytest

from repro.parallel import WorkerPool

WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="session")
def pools():
    made = {n: WorkerPool(n) for n in WORKER_COUNTS}
    yield made
    for pool in made.values():
        pool.close()


class InProcessPool(WorkerPool):
    """``n_workers`` shards run in this process, as when a pool cannot start.

    The twin of a real pool of the same size: the shard decomposition,
    and so every merged observer snapshot, is the same.
    """

    @property
    def serial(self) -> bool:
        return True
