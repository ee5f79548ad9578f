"""Keyed sharded execution returns the batched answer, or refuses.

``Pipeline.run_sharded(source, partition_by, pool)`` must leave sink
contents identical to ``run_batched`` at any pool size — 1 (in-process),
2, and 4 real spawn workers — or raise before any worker starts.

Tuples are compared by per-element ``pickle.dumps`` bytes.  Whole-list
pickles are NOT comparable across paths (pickle's memo shares objects
differently depending on how the list was assembled), but per-element
bytes are exact.
"""

import pickle
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive import resample_schedule
from repro.core.dfsample import DfSized
from repro.core.predicates import FieldStats, MTest
from repro.distributions.gaussian import GaussianDistribution
from repro.errors import ParallelError, StreamError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.parallel import (
    ShardedResult,
    WorkerPool,
    partition_indices,
    run_sharded,
    stable_key_hash,
)
from repro.streams.engine import Pipeline
from repro.streams.groupby import GroupedAggregate
from repro.streams.join import TagSide, WindowJoin
from repro.streams.operators import (
    ANY_PARTITION,
    CollectSink,
    CountingSink,
    Derive,
    Operator,
    ProbabilisticFilter,
    Project,
    RollingLearnOperator,
    Select,
    SignificanceFilter,
    SlidingGaussianAverage,
    TimeWindowAggregate,
    WindowAggregate,
)
from repro.streams.tuples import UncertainTuple
from tests.parallel.conftest import WORKER_COUNTS, InProcessPool


def _tuples(n=120, n_sensors=6, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        out.append(
            UncertainTuple(
                {
                    "sensor": int(rng.integers(n_sensors)),
                    "reading": DfSized(
                        GaussianDistribution(
                            float(rng.normal(50.0, 10.0)),
                            float(rng.uniform(1.0, 9.0)),
                        ),
                        int(rng.integers(10, 40)),
                    ),
                    "obs": float(rng.normal(0.0, 1.0)),
                    "seq": i,
                },
                timestamp=float(i),
            )
        )
    return out


# Module-level so the pipelines pickle into spawn workers.
def _double_seq(tup):
    return tup.value("seq") * 2


def _keep_even(tup):
    return tup.value("seq") % 2 == 0


def _half(tup):
    return 0.5


def _above_40(tup):
    field = tup.dfsized("reading")
    dist = field.distribution
    stats = FieldStats(dist.mean(), dist.variance() ** 0.5, field.sample_size)
    return MTest(stats, ">", 40.0, 0.05)


def _stateless_pipeline():
    return Pipeline([Derive("twice", _double_seq), CollectSink()])


def _grouped_pipeline():
    return Pipeline(
        [
            GroupedAggregate(
                key="sensor", attribute="reading", window_size=8, agg="avg"
            ),
            CollectSink(),
        ]
    )


def _element_bytes(results):
    return [pickle.dumps(tup) for tup in results]


class _Passthrough(Operator):
    """An operator that declares no partition key."""

    def process_many(self, tuples):
        self.emit_many(tuples)


class _StatelessFilter(Operator):
    """Stateless, but undeclared on its output count: may drop tuples."""

    partition_key = ANY_PARTITION

    def process_many(self, tuples):
        self.emit_many([tup for tup in tuples if tup.value("seq") % 3])


class _NeverStarts(WorkerPool):
    """A 2-worker pool that fails the test if any shard is dispatched."""

    def __init__(self):
        super().__init__(2)

    def map_indexed(self, fn, tasks):
        raise AssertionError("a shard was dispatched")


class TestStableKeyHash:
    def test_int_passthrough(self):
        assert stable_key_hash(17) == 17
        assert stable_key_hash(0) == 0

    def test_int_nonnegative(self):
        assert stable_key_hash(-5) >= 0

    def test_bool_as_int(self):
        assert stable_key_hash(True) == 1

    def test_str_is_crc32(self):
        assert stable_key_hash("abc") == zlib.crc32(b"'abc'")

    def test_stable_across_calls(self):
        assert stable_key_hash(("a", 3)) == stable_key_hash(("a", 3))

    def test_equal_keys_of_different_types_hash_equal(self):
        # A GROUP BY puts 1, 1.0 and np.int64(1) in one group, so the
        # partition must put them in one shard.
        assert (
            stable_key_hash(1)
            == stable_key_hash(1.0)
            == stable_key_hash(np.int64(1))
            == stable_key_hash(np.float64(1.0))
        )
        assert stable_key_hash(("a", 2)) == stable_key_hash(("a", 2.0))
        # Keys read off a NumPy array are NumPy scalars; their reprs
        # differ from the equal Python values' under NumPy 2.
        assert stable_key_hash(np.str_("a")) == stable_key_hash("a")
        assert (
            stable_key_hash(np.bool_(True))
            == stable_key_hash(True)
            == stable_key_hash(1)
        )
        assert stable_key_hash(np.bool_(False)) == stable_key_hash(0)
        assert stable_key_hash((np.str_("a"), 1)) == stable_key_hash(("a", 1))


class TestPartitionIndices:
    def test_round_robin(self):
        # Round-robin (partition_by=None) dealt one window per shard; it
        # is refused now, even for a stateless pipeline.
        with pytest.raises(StreamError, match="partition_by"):
            _stateless_pipeline().run_sharded(_tuples(7), None, _NeverStarts())

    def test_attribute_key_groups_together(self):
        tuples = _tuples(60)
        shards = partition_indices(tuples, 4, "sensor")
        assert sorted(i for shard in shards for i in shard) == list(range(60))
        for shard in shards:
            # Every index of a given sensor lands in exactly one shard.
            sensors = {tuples[i].value("sensor") for i in shard}
            for other in shards:
                if other is shard:
                    continue
                assert sensors.isdisjoint(
                    {tuples[i].value("sensor") for i in other}
                )

    def test_callable_key(self):
        # Key callables are refused: partition_by names an attribute.
        with pytest.raises(StreamError, match="partition_by"):
            _stateless_pipeline().run_sharded(
                _tuples(10),
                lambda tup: tup.value("seq") // 5,
                _NeverStarts(),
            )

    def test_bad_shard_count(self):
        with pytest.raises(ParallelError, match="n_shards"):
            partition_indices([], 0, "sensor")


class TestWorkerCountEquivalence:
    """1 == 2 == 4 workers == run_batched, for every accepted pipeline."""

    def test_stateless_pipeline_matches_run_batched(self, pools):
        tuples = _tuples()
        expected = _element_bytes(
            _stateless_pipeline().run_batched(tuples, 32).results
        )
        for workers in WORKER_COUNTS:
            sink = _stateless_pipeline().run_sharded(
                tuples, "sensor", pools[workers]
            )
            assert _element_bytes(sink.results) == expected, (
                f"stateless sink diverged at n_workers={workers}"
            )

    @pytest.mark.parametrize(
        "kinds, n_sensors",
        [
            ((int, float, np.int64), 6),
            ((lambda s: f"s{s}", lambda s: np.str_(f"s{s}")), 6),
            ((bool, np.bool_, int), 2),
        ],
        ids=["int-float-np.int64", "str-np.str_", "bool-np.bool_-int"],
    )
    def test_mixed_type_keys_match_run_batched(self, pools, kinds, n_sensors):
        # Equal keys of different types (1, 1.0, np.int64(1); "s1",
        # np.str_("s1"); True, np.True_, 1) are one group; sharding them
        # apart used to return another answer.
        tuples = [
            UncertainTuple(
                {**tup.attributes, "sensor": kind(tup.value("sensor"))},
                tup.probability,
                tup.timestamp,
            )
            for tup, kind in zip(
                _tuples(n_sensors=n_sensors), kinds * 120
            )
        ]
        expected = _element_bytes(
            _grouped_pipeline().run_batched(tuples, 32).results
        )
        # In-process 3- and 8-shard runs too: a repr-based hash of
        # np.bool_ happens to agree with bool's modulo 2 and 4.
        shard_pools = [pools[w] for w in WORKER_COUNTS]
        shard_pools += [InProcessPool(3), InProcessPool(8)]
        for pool in shard_pools:
            sink = _grouped_pipeline().run_sharded(tuples, "sensor", pool)
            assert _element_bytes(sink.results) == expected, (
                f"mixed-type keys diverged at n_workers={pool.n_workers}"
            )

    def test_grouped_partition_by_matches_run_batched(self, pools):
        # GroupedAggregate keyed by the partition attribute: shard-local
        # group state equals global group state, and one output per
        # input lets the merge restore the exact batched order.
        tuples = _tuples()
        expected = _element_bytes(
            _grouped_pipeline().run_batched(tuples, 32).results
        )
        assert len(expected) == len(tuples)
        for workers in WORKER_COUNTS:
            sink = _grouped_pipeline().run_sharded(
                tuples, "sensor", pools[workers], batch_size=32
            )
            assert _element_bytes(sink.results) == expected, (
                f"grouped sink diverged at n_workers={workers}"
            )

    def test_windowed_pipeline_worker_count_invariant(self, pools):
        # An unkeyed window would compute one window per shard, a
        # different answer: it is refused at every pool size, before
        # anything is pickled or dispatched.
        for workers in WORKER_COUNTS:
            pipeline = Pipeline(
                [
                    SlidingGaussianAverage("reading", window_size=10),
                    CollectSink(),
                ]
            )
            with pytest.raises(StreamError, match="whole stream"):
                pipeline.run_sharded(_tuples(), "sensor", pools[workers])
            assert pipeline.sink.results == []


class TestSinkAndMetricsMerge:
    def test_counting_sink_sums(self, pools):
        tuples = _tuples(50)
        pipeline = Pipeline([Select(_keep_even), CountingSink()])
        sink = pipeline.run_sharded(tuples, "sensor", pools[2])
        assert sink.count == 25

    def test_merged_metrics_counters(self, pools):
        tuples = _tuples(80)
        registry = MetricsRegistry()
        pipeline = _stateless_pipeline()
        pipeline.attach_metrics(registry, prefix="eq")
        pipeline.run_sharded(tuples, "sensor", pools[2])
        snapshot = registry.snapshot()
        # Every source tuple was pushed exactly once, across all shards.
        assert snapshot["eq.tuples"]["value"] == 80
        # One run_batched per shard, one shard per worker.
        assert snapshot["eq.runs"]["value"] == 2
        assert snapshot["eq.run_seconds"]["count"] == 2

    def test_interleave_requires_one_to_one(self):
        # The backstop behind the up-front check: a shard whose output
        # count differs from its input count cannot be put back in order.
        tuples = _tuples(3)
        result = ShardedResult(
            sink_states=[("collect", tuples[:1]), ("collect", [])],
            snapshots=[None, None],
            shards=[[0, 2], [1]],
            total=3,
            trace_snapshots=[None, None],
            telemetry_snapshots=[None, None],
        )
        with pytest.raises(ParallelError, match="one output per input"):
            result.merged_results()

    @pytest.mark.parametrize(
        "make_filter",
        [
            lambda: Select(_keep_even),
            lambda: ProbabilisticFilter(_half),
            lambda: SignificanceFilter(_above_40),
            _StatelessFilter,
        ],
        ids=["Select", "ProbabilisticFilter", "SignificanceFilter",
             "undeclared-count"],
    )
    def test_filter_into_collect_sink_refused_before_dispatch(
        self, pools, make_filter
    ):
        # A filtering stage came back in shard order, silently; now the
        # pipeline is refused before any shard is dispatched, and leaves
        # the sink and registry untouched.  Counting it still works.
        tuples = _tuples(40)
        registry = MetricsRegistry()
        pipeline = Pipeline(
            [
                make_filter(),
                GroupedAggregate("sensor", "reading", 8),
                CollectSink(),
            ],
            registry=registry,
        )
        with pytest.raises(ParallelError, match="one output per input"):
            pipeline.run_sharded(tuples, "sensor", _NeverStarts())
        assert pipeline.sink.results == []
        assert registry.snapshot()["pipeline.tuples"]["value"] == 0
        expected = Pipeline([make_filter(), CountingSink()]).run_batched(
            tuples, 16
        )
        counted = Pipeline([make_filter(), CountingSink()])
        assert (
            counted.run_sharded(tuples, "sensor", pools[2]).count
            == expected.count
        )

    def test_unmergeable_sink_rejected(self):
        pipeline = Pipeline([Derive("twice", _double_seq)])
        with pytest.raises(StreamError, match="CollectSink or CountingSink"):
            pipeline.run_sharded(_tuples(4), "sensor", _NeverStarts())

    def test_default_shards_follow_workers(self, pools):
        tuples = _tuples(12)
        for workers in (1, 2):
            result = run_sharded(
                _stateless_pipeline(), tuples, "sensor", pools[workers]
            )
            assert len(result.shards) == workers


def _start_fails(*args, **kwargs):
    raise OSError("no semaphores here")


class _SpawnFails:
    """An executor that constructs, then fails to start its processes."""

    def __init__(self, *args, **kwargs):
        self.submitted = 0

    def submit(self, fn, *args):
        self.submitted += 1
        if self.submitted > 1:
            raise RuntimeError("can't start new thread")
        raise OSError(11, "Resource temporarily unavailable")

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestUnpicklableFallback:
    def test_parallel_degrades_with_warning(self, monkeypatch):
        # A pool that cannot start runs the same shards in-process, with
        # a warning, and still returns the batched answer.
        import repro.parallel.pool as pool_module

        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", _start_fails)
        tuples = _tuples(24)
        expected = _element_bytes(
            _grouped_pipeline().run_batched(tuples, 32).results
        )
        pool = WorkerPool(2)
        with pytest.warns(UserWarning, match="running serially"):
            sink = _grouped_pipeline().run_sharded(tuples, "sensor", pool)
        assert pool.serial
        assert _element_bytes(sink.results) == expected

    def test_spawn_failure_on_submit_degrades_with_warning(
        self, monkeypatch
    ):
        # The spawn executor starts its processes on the first submit,
        # so start-up failures surface there, not in the constructor.
        import repro.parallel.pool as pool_module

        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", _SpawnFails)
        tuples = _tuples(24)
        expected = _element_bytes(
            _grouped_pipeline().run_batched(tuples, 32).results
        )
        pool = WorkerPool(2)
        with pytest.warns(UserWarning, match="running serially"):
            sink = _grouped_pipeline().run_sharded(tuples, "sensor", pool)
        assert pool.serial
        assert _element_bytes(sink.results) == expected

    def test_task_errors_propagate(self):
        # A task's own exception is not a start-up failure: it reaches
        # the caller and the pool stays parallel.
        pool = WorkerPool(2)
        try:
            with pytest.raises(ZeroDivisionError):
                pool.map_indexed(divmod, [(1, 1), (1, 0)])
            assert not pool.serial
        finally:
            pool.close()

    def test_no_fallback_raises(self):
        # An unpicklable pipeline raises before any worker starts; there
        # is no deep-copy path that could drift from the workers' one.
        pipeline = Pipeline(
            [Derive("twice", lambda t: t.value("seq") * 2), CollectSink()]
        )
        with pytest.raises(ParallelError, match="not picklable"):
            pipeline.run_sharded(_tuples(8), "sensor", _NeverStarts())

    def test_serial_fallback_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sink = _stateless_pipeline().run_sharded(
                _tuples(8), "sensor", WorkerPool(1)
            )
        assert len(sink.results) == 8


class TestAdaptiveBootstrapSharded:
    def test_adaptive_stage_worker_count_invariant(self, pools):
        """An operator holding a generator draws in stream order, so no
        partition keeps its answer: refused at every pool size."""
        from repro.experiments.fig5_throughput import _BootstrapAccuracy

        for workers in WORKER_COUNTS:
            pipeline = Pipeline(
                [
                    _BootstrapAccuracy(
                        "reading", resamples=32, seed=5,
                        target_ci_width=12.0, initial_resamples=8,
                    ),
                    CollectSink(),
                ]
            )
            with pytest.raises(StreamError, match="_BootstrapAccuracy"):
                pipeline.run_sharded(_tuples(96), "sensor", pools[workers])

    def test_adaptive_draws_vary_per_tuple(self):
        from repro.experiments.fig5_throughput import _BootstrapAccuracy

        pipeline = Pipeline(
            [
                _BootstrapAccuracy(
                    "reading", resamples=32, seed=5,
                    target_ci_width=12.0, initial_resamples=8,
                ),
                CollectSink(),
            ]
        )
        sink = pipeline.run(_tuples(n=96))
        draws = {tup.value("accuracy").draws_used for tup in sink.results}
        budgets = {tup.value("accuracy").draws_used
                   // tup.value("accuracy").sample_size
                   for tup in sink.results}
        assert budgets <= set(resample_schedule(8, 2.0, 32))
        assert len(draws) > 1  # distribution-sensitive: not one budget


def _stateful_operators():
    """Every stateful library operator, plus the undeclared subclass."""
    from repro.experiments.fig5_throughput import _BootstrapAccuracy

    return {
        "SlidingGaussianAverage": lambda: SlidingGaussianAverage(
            "reading", 10
        ),
        "WindowAggregate": lambda: WindowAggregate("reading", 10),
        "WindowAggregate-min": lambda: WindowAggregate(
            "reading", 10, agg="min"
        ),
        "TimeWindowAggregate": lambda: TimeWindowAggregate("reading", 5.0),
        "RollingLearnOperator": lambda: RollingLearnOperator("obs", 12),
        "RollingLearnOperator-sketch": lambda: RollingLearnOperator(
            "obs", 12, learner="sketch-quantile", chunk_size=4
        ),
        "GroupedAggregate-ttl": lambda: GroupedAggregate(
            "sensor", "reading", 8, expire_after=16
        ),
        "GroupedAggregate-chunked-ttl": lambda: GroupedAggregate(
            "sensor", "reading", 8, synopsis="chunked", expire_after=16
        ),
        "GroupedAggregate-flush-only": lambda: GroupedAggregate(
            "sensor", "reading", 8, emit_every=False
        ),
        "GroupedAggregate-other-key": lambda: GroupedAggregate(
            "seq", "reading", 8
        ),
        "WindowJoin": lambda: WindowJoin("sensor", 4),
        "_BootstrapAccuracy": lambda: _BootstrapAccuracy("reading", seed=1),
        "undeclared": _Passthrough,
    }


def _sensor_of_seq(tup):
    return tup.value("seq") % 3


class TestRefusalMatrix:
    """Every pipeline whose sharded answer would differ raises first."""

    def test_derive_rewriting_the_key_is_refused(self):
        # The shards are cut on the source's sensor values; a Derive
        # that rewrites sensor upstream of the keyed GROUP BY would
        # spread each derived group over several shards.
        pipeline = Pipeline(
            [
                Derive("sensor", _sensor_of_seq),
                GroupedAggregate("sensor", "reading", 8),
                CollectSink(),
            ]
        )
        with pytest.raises(StreamError, match="rewrites the partition"):
            pipeline.run_sharded(_tuples(32), "sensor", _NeverStarts())

    @pytest.mark.parametrize("name", sorted(_stateful_operators()))
    @pytest.mark.parametrize("partition_by", [None, "sensor", "reading"])
    def test_refused_before_any_worker_starts(self, name, partition_by):
        make = _stateful_operators()[name]
        registry = MetricsRegistry()
        tracer = Tracer()
        prefix = [TagSide("left")] if name == "WindowJoin" else []
        pipeline = Pipeline(
            [*prefix, make(), CollectSink()],
            registry=registry,
            tracer=tracer,
        )
        before = pickle.dumps(pipeline)
        with pytest.raises(StreamError, match="partition_by"):
            pipeline.run_sharded(_tuples(32), partition_by, _NeverStarts())
        assert pickle.dumps(pipeline) == before
        assert len(tracer) == 0
        assert registry.snapshot()["pipeline.tuples"]["value"] == 0
        assert registry.snapshot()["pipeline.runs"]["value"] == 0


    def test_flush_only_groupby_refused_with_unique_keys(self, pools):
        # Flush-only GROUP BY emits each group at flush, sorted by key.
        # With every key once, each shard emits one output per input,
        # so a merge by input position would pass its count check and
        # still return another order than run_batched.
        tuples = [
            UncertainTuple({**tup.attributes, "sensor": f"k{99 - i}"})
            for i, tup in enumerate(_tuples(24))
        ]
        for workers in WORKER_COUNTS:
            pipeline = Pipeline(
                [
                    GroupedAggregate("sensor", "reading", 4, emit_every=False),
                    CollectSink(),
                ]
            )
            with pytest.raises(StreamError, match="whole stream"):
                pipeline.run_sharded(tuples, "sensor", pools[workers])
            assert pipeline.sink.results == []


def _accepted_pipelines():
    """Keyed GROUP BY shapes with stateless stages, into both sinks."""

    def grouped(synopsis, *prefix, sink=CollectSink):
        return lambda: Pipeline(
            [
                *(stage() for stage in prefix),
                GroupedAggregate(
                    "sensor", "reading", 8, synopsis=synopsis
                ),
                sink(),
            ]
        )

    derive = lambda: Derive("twice", _double_seq)  # noqa: E731
    project = lambda: Project(["sensor", "reading", "seq"])  # noqa: E731
    select = lambda: Select(_keep_even)  # noqa: E731
    scale = lambda: ProbabilisticFilter(_half)  # noqa: E731
    significant = lambda: SignificanceFilter(_above_40)  # noqa: E731
    return {
        "exact": grouped("exact"),
        "chunked": grouped("chunked"),
        "exact+derive+project": grouped("exact", derive, project),
        "chunked+scale->count": grouped("chunked", scale, sink=CountingSink),
        "exact+select->count": grouped("exact", select, sink=CountingSink),
        "chunked+select->count": grouped(
            "chunked", select, sink=CountingSink
        ),
        "exact+significance->count": grouped(
            "exact", significant, sink=CountingSink
        ),
    }


class TestAcceptedShapes:
    @pytest.mark.parametrize("name", sorted(_accepted_pipelines()))
    def test_matches_run_batched_at_1_2_4_workers(self, pools, name):
        make = _accepted_pipelines()[name]
        tuples = _tuples(160)
        expected = make().run_batched(tuples, 16)
        for workers in WORKER_COUNTS:
            sink = make().run_sharded(
                tuples, "sensor", pools[workers], batch_size=16
            )
            if isinstance(expected, CountingSink):
                assert sink.count == expected.count > 0
            else:
                assert _element_bytes(sink.results) == _element_bytes(
                    expected.results
                ), f"{name} diverged at n_workers={workers}"

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(0, 90),
        n_keys=st.integers(1, 12),
        seed=st.integers(0, 2**16),
        workers=st.integers(1, 5),
        batch_size=st.sampled_from([1, 3, 16, 256]),
        window=st.integers(1, 9),
        agg=st.sampled_from(["avg", "sum", "count", "min", "max"]),
        synopsis=st.sampled_from(["exact", "chunked"]),
    )
    def test_random_keyed_groupby_matches_run_batched(
        self, n, n_keys, seed, workers, batch_size, window, agg, synopsis
    ):
        # In-process shards run the same payload, partition and merge
        # as worker processes, without the start-up cost per example.
        def make():
            return Pipeline(
                [
                    GroupedAggregate(
                        "sensor", "reading", window, agg=agg,
                        synopsis=synopsis,
                    ),
                    CollectSink(),
                ]
            )

        tuples = _tuples(n, n_keys, seed)
        expected = make().run_batched(tuples, batch_size).results
        sink = make().run_sharded(
            tuples, "sensor", InProcessPool(workers), batch_size
        )
        assert _element_bytes(sink.results) == _element_bytes(expected)
