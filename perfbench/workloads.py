"""The three benchmark workloads: inputs, system set-up, calls, checks.

Each workload drives the system only through public entry points
(``StreamDatabase``, ``Pipeline`` with operators from ``repro.streams``,
learners by registry name, ``ExecutorConfig``).  Inputs are a pool
generated from the seed and cycled, so the program receives only the
generated inputs and a run can last as long as asked.  Every ingest
call and every read is checked against an oracle computed from the
inputs outside the timed region, which is what makes ``failed`` real.

Interface the harness (``run.py``) relies on, per workload class:

* ``build()`` — set-up (timed as ``setup_s``); returns a system object;
* ``setup_repeats`` — how many builds ``setup_s`` is the median of
  (about a second's worth);
* ``warmup(system)`` — the fixed, untimed stream prefix that brings the
  system to steady state, with its own checks; returns a
  :class:`Warmup`;
* ``ingest(system, i)`` / ``check_ingest(system, i)`` — the i-th timed
  ingest call and its output check;
* ``read(system, j)`` / ``check_read(system, j, rows)`` — the j-th
  one-shot read and its check;
* ``layer_counts(system)`` — counters the traced run reports;
* ``cycle`` — ingest calls per pass over the input pool; the stream at
  call ``k * cycle`` is the same for every ``k``;
* ``state_bytes(system)`` — retained state, taken at a cycle boundary.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import math
import pickle
import sys
import types
from collections import Counter, deque

import numpy as np
from scipy import special

from repro import (
    DfSized,
    ExecutorConfig,
    FieldStats,
    GaussianDistribution,
    GroupedAggregate,
    MTest,
    Pipeline,
    QueryExecutor,
    RollingLearnOperator,
    SignificanceFilter,
    StreamDatabase,
    ThreeValued,
    UncertainTuple,
)
from repro.learning.registry import make_learner
from repro.streams import Operator
from repro.query.planner import clear_plan_cache
from repro.workloads import CarTelSimulator

#: Probability band inside which an oracle's tail probability is too
#: close to a PROB threshold to call: the oracle and the program may
#: round such a row to different sides.
TIE_BAND = 1e-9


@dataclasses.dataclass
class Warmup:
    """Outcome of the untimed prefix: checks, interval widths, digest."""

    #: Ingest calls made; timed calls continue from this index.
    calls: int
    attempted: int
    failed: int
    ci_widths: list[float]
    digest: str


class ResultCounter:
    """Standing-query callback: counts results, keeps them on request."""

    def __init__(self) -> None:
        self.count = 0
        self.kept: list | None = None

    def __call__(self, result) -> None:
        self.count += 1
        if self.kept is not None:
            self.kept.append(result)


class RecentSink(Operator):
    """Pipeline sink: counts what it receives, keeps only the newest.

    Its memory does not grow with the stream, so neither peak RSS nor
    the collector's work depends on how far a run got.
    """

    def __init__(self, keep: int) -> None:
        super().__init__()
        self.count = 0
        self.recent: deque = deque(maxlen=keep)

    def process(self, tup: UncertainTuple) -> None:
        self.count += 1
        self.recent.append(tup)

    def process_many(self, tuples) -> None:
        self.count += len(tuples)
        self.recent.extend(tuples)


class MeanAlarm:
    """Predicate factory of the sketch pipeline's ``SignificanceFilter``.

    It sees every emission of the rolling learner, so it also checks
    each one: finite mean interval and ``0 <= synopsis_error <= 1``.
    """

    def __init__(self, threshold: float, window: int) -> None:
        self.threshold = threshold
        self.window = window
        self.emissions = 0
        self.bad = 0
        #: Mean-interval widths of full-window emissions, when collecting.
        self.widths: list[float] | None = None

    def __call__(self, tup: UncertainTuple) -> MTest:
        accuracy = tup.value("accuracy")
        learned = tup.value("learned")
        self.emissions += 1
        mean = accuracy.mean
        if not (
            0.0 <= accuracy.synopsis_error <= 1.0
            and math.isfinite(mean.low)
            and math.isfinite(mean.high)
        ):
            self.bad += 1
        if self.widths is not None and learned.sample_size == self.window:
            self.widths.append(mean.high - mean.low)
        return MTest(
            FieldStats.from_dfsized(learned), ">", self.threshold, 0.05
        )


_SKIP_TYPES = (
    type,
    types.ModuleType,
    types.FunctionType,
    types.BuiltinFunctionType,
    types.MethodType,
    types.CodeType,
)


def deep_size(root: object, exclude: tuple = ()) -> int:
    """Bytes reachable from ``root`` (``sys.getsizeof`` over referents).

    Classes, modules, functions and bound methods are shared program
    text, not retained state, and are not followed; neither are the
    objects in ``exclude`` (the benchmark's own callbacks).
    """
    seen = {id(obj) for obj in exclude}
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, _SKIP_TYPES):
            continue
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _scalar(field) -> float:
    """The number behind an exact result field."""
    return float(field.distribution.mean())


def _band_count(q: np.ndarray, tau: float) -> tuple[int, int]:
    """(certain, ambiguous) counts of ``q >= tau`` under the tie band."""
    sure = int(np.count_nonzero(q >= tau + TIE_BAND))
    maybe = int(np.count_nonzero(np.abs(q - tau) < TIE_BAND))
    return sure, maybe


def _top_k_ids(
    ids: np.ndarray,
    means: np.ndarray,
    q: np.ndarray,
    tau: float,
    k: int,
) -> "list[int] | None":
    """Ids of the ``ORDER BY mean DESC LIMIT k`` rows with ``q >= tau``.

    ``None`` when a row inside the tie band could change the answer.
    Ties in the mean keep arrival order, as the executor's stable sort
    does.
    """
    if np.any(np.abs(q - tau) < TIE_BAND):
        return None
    keep = np.flatnonzero(q >= tau)
    order = keep[np.argsort(-means[keep], kind="stable")][:k]
    return [int(v) for v in ids[order]]


class SqlIngest:
    """Standing SQL queries over learned-Gaussian road-delay tuples."""

    name = "sql_ingest"
    #: Tuples per ``insert_many`` call.
    batch = 256
    setup_repeats = 9
    pool_batches = 48
    alerts = 2000
    #: Bounded stream buffer the one-shot reads scan.
    buffer = 2048
    #: Rows replayed through a naive database for the byte-identity check.
    check_rows = 32
    read_every = 3
    sizes = (5, 8, 10, 12, 15, 20, 25, 30, 40, 50, 60, 80)
    alert_constants = tuple(float(c) for c in range(100, 150))
    alert_taus = (0.5, 0.8, 0.9, 0.95)
    mtest_constants = (80.0, 85.0, 90.0, 95.0)
    bootstrap_constants = (85.0, 90.0)
    read_constants = (80.0, 90.0, 100.0)
    read_tau = 0.9
    read_limit = 10

    def __init__(self, seed: int, tiny: bool = False) -> None:
        if tiny:
            self.pool_batches = 6
            self.alerts = 60
            self.buffer = 512
        # Twice the buffer: it is full when timing starts, and the mean
        # interval width averages over enough tuples to be steady.
        self.warmup_batches = 2 * self.buffer // self.batch
        rng = np.random.default_rng([seed, 1])
        rows = self.pool_batches * self.batch

        def stratified() -> np.ndarray:
            # Uniform(0, 1) with one draw per 1/rows stratum: every seed
            # has the same marginals — so the same amount of matching
            # work, decided by the distribution tails — in a different
            # arrangement.
            return (rng.permutation(rows) + rng.random(rows)) / rows

        self.mu = 60.0 + 15.0 * special.ndtri(stratified())
        self.sigma2 = (1.0 + 29.0 * stratified()) * (1.0 + 7.0 * stratified())
        sizes = np.asarray(self.sizes)
        self.size = sizes[(stratified() * len(sizes)).astype(np.intp)]
        uncertain = stratified() < 1.0 / 3.0
        self.prob = np.where(uncertain, 0.3 + 0.69 * stratified(), 1.0)
        self.road_id = np.arange(rows, dtype=np.float64)
        self.pool = [
            UncertainTuple(
                {
                    "road_id": float(self.road_id[r]),
                    "delay": DfSized(
                        GaussianDistribution(
                            float(self.mu[r]), float(self.sigma2[r])
                        ),
                        int(self.size[r]),
                    ),
                },
                probability=float(self.prob[r]),
            )
            for r in range(rows)
        ]
        # Batch i covers stream rows check_rows + i*batch ... ; the pool
        # wraps, so batch i and batch i + pool_batches are identical.
        self.batch_rows = [
            (self.check_rows + i * self.batch + np.arange(self.batch)) % rows
            for i in range(self.pool_batches)
        ]
        self.batches = [
            [self.pool[r] for r in idx] for idx in self.batch_rows
        ]
        self.alert_specs = [
            (
                self.alert_constants[i % len(self.alert_constants)],
                self.alert_taus[
                    (i // len(self.alert_constants)) % len(self.alert_taus)
                ],
            )
            for i in range(self.alerts)
        ]
        multiplicity = Counter(self.alert_specs)
        self.expected_alerts = [
            self._alert_range(idx, multiplicity) for idx in self.batch_rows
        ]
        self.expected_monitor = [
            int(np.count_nonzero(self._tail(idx, np.zeros(1))[0] > 0.0))
            for idx in self.batch_rows
        ]

    def _tail(self, rows: np.ndarray, constants: np.ndarray) -> np.ndarray:
        """P(delay > c) per (constant, row), Gaussian closed form."""
        z = (constants[:, None] - self.mu[rows][None, :]) / np.sqrt(
            2.0 * self.sigma2[rows]
        )[None, :]
        return 0.5 * special.erfc(z)

    def _alert_range(self, rows, multiplicity) -> tuple[int, int]:
        """Closed-form bounds on one batch's alert matches."""
        constants = np.asarray(self.alert_constants)
        q = self._tail(rows, constants)
        position = {c: i for i, c in enumerate(self.alert_constants)}
        low = high = 0
        for (c, tau), count in multiplicity.items():
            sure, maybe = _band_count(q[position[c]], tau)
            low += count * sure
            high += count * (sure + maybe)
        return low, high

    def input_digest(self) -> str:
        return _digest(
            [
                a.tobytes()
                for a in (self.mu, self.sigma2, self.size, self.prob)
            ]
        )

    # -- set-up ---------------------------------------------------------------

    def _register(self, db: StreamDatabase, system) -> None:
        for i, (c, tau) in enumerate(self.alert_specs):
            db.register_continuous(
                f"alert{i}",
                f"SELECT road_id, delay FROM roads WHERE delay > {c:g} "
                f"PROB {tau:g}",
                system.alerts,
            )
        for i, c in enumerate(self.mtest_constants):
            db.register_continuous(
                f"mtest{i}",
                "SELECT road_id, delay FROM roads "
                f"WHERE mTest(delay, '>', {c:g}, 0.05, 0.05)",
                system.others,
            )
        for i, c in enumerate(self.bootstrap_constants):
            db.register_continuous(
                f"boot{i}",
                f"SELECT road_id, delay FROM roads WHERE delay > {c:g} "
                "PROB 0.5",
                system.others,
                config=ExecutorConfig(accuracy_method="bootstrap", seed=i),
            )
        # Matches every tuple once: the columnar accuracy kernel runs on
        # whole batches, and its intervals give ``ci_width_mean``.
        db.register_continuous(
            "monitor",
            "SELECT road_id, delay FROM roads WHERE delay > 0",
            system.monitor,
        )

    def build(self, shared: bool = True) -> "SqlSystem":
        clear_plan_cache()
        system = SqlSystem(
            StreamDatabase(
                max_tuples_per_stream=self.buffer, shared_subplans=shared
            )
        )
        system.db.create_stream("roads")
        self._register(system.db, system)
        return system

    # -- warm-up and checks -----------------------------------------------------

    def warmup(self, system: "SqlSystem") -> Warmup:
        """Byte-identity replay of a slice, then fill the buffer."""
        naive = self.build(shared=False)
        check_slice = self.pool[: self.check_rows]
        pickles = []
        for target in (system, naive):
            target.keep()
            target.db.insert_many("roads", check_slice)
            pickles.append([pickle.dumps(r) for r in target.kept()])
        attempted, failed = 1, int(pickles[0] != pickles[1])
        widths = [
            r.accuracy["delay"].mean.length for r in system.monitor.kept
        ]
        digest_parts = [b"".join(pickles[0])]
        for i in range(self.warmup_batches):
            system.keep()
            attempted += 1
            self.ingest(system, i)
            failed += int(not self.check_ingest(system, i))
            widths.extend(
                r.accuracy["delay"].mean.length for r in system.monitor.kept
            )
            digest_parts.append(str(system.last).encode())
        system.stop_keeping()
        return Warmup(
            self.warmup_batches, attempted, failed, widths,
            _digest(digest_parts),
        )

    def ingest(self, system: "SqlSystem", i: int) -> int:
        batch = self.batches[i % self.pool_batches]
        before = (system.alerts.count, system.monitor.count)
        system.db.insert_many("roads", batch)
        system.last = (
            system.alerts.count - before[0],
            system.monitor.count - before[1],
        )
        system.calls = i + 1
        return len(batch)

    def check_ingest(self, system: "SqlSystem", i: int) -> bool:
        low, high = self.expected_alerts[i % self.pool_batches]
        alerts, monitored = system.last
        return (
            low <= alerts <= high
            and monitored == self.expected_monitor[i % self.pool_batches]
        )

    def read(self, system: "SqlSystem", j: int):
        c = self.read_constants[j % len(self.read_constants)]
        return system.db.query(
            f"SELECT road_id, delay FROM roads WHERE delay > {c:g} "
            f"PROB {self.read_tau:g} ORDER BY delay DESC "
            f"LIMIT {self.read_limit}"
        )

    def check_read(self, system: "SqlSystem", j: int, rows) -> bool:
        c = self.read_constants[j % len(self.read_constants)]
        end = self.check_rows + system.calls * self.batch
        pool_rows = len(self.pool)
        idx = np.arange(end - self.buffer, end) % pool_rows
        q = self._tail(idx, np.asarray([c]))[0]
        expected = _top_k_ids(
            self.road_id[idx], self.mu[idx], q, self.read_tau,
            self.read_limit,
        )
        got = [int(_scalar(r.attributes["road_id"])) for r in rows]
        return expected is None or got == expected

    def layer_counts(self, system: "SqlSystem") -> dict[str, float]:
        return system.counts()

    @property
    def cycle(self) -> int:
        return self.pool_batches

    def state_bytes(self, system: "SqlSystem") -> int:
        return deep_size(system.db, system.callbacks)


class SqlSystem:
    """A database plus the benchmark's callbacks and bookkeeping."""

    def __init__(self, db: StreamDatabase) -> None:
        self.db = db
        self.alerts = ResultCounter()
        self.others = ResultCounter()
        self.monitor = ResultCounter()
        self.callbacks = (self.alerts, self.others, self.monitor)
        self.last: tuple = (0, 0)
        self.calls = 0

    def keep(self) -> None:
        for callback in self.callbacks:
            callback.kept = []

    def stop_keeping(self) -> None:
        for callback in self.callbacks:
            callback.kept = None

    def kept(self) -> list:
        return [r for callback in self.callbacks for r in callback.kept]

    def counts(self) -> dict[str, float]:
        """The database's plan-cache and multi-query counters, and the
        number of results the callbacks received."""
        counts = {
            name: float(self.db.metrics.get(name).value)
            for name in (
                "plan_cache.hits",
                "plan_cache.misses",
                "multiquery.shared_hits",
                "multiquery.prefix_fallbacks",
            )
        }
        counts["results"] = float(sum(c.count for c in self.callbacks))
        return counts


class LearnAndRead:
    """Figure 1: raw CarTel reports learned into tuples, plus reads."""

    name = "learn_and_read"
    #: A large road network cut into fixed-size report chunks: each
    #: ingest call carries the same number of reports on every seed,
    #: and the network's rate mix averages over many segments.
    segments = 1000
    setup_repeats = 301
    network_seed = 2012
    window_minutes = 10
    pool_windows = 4
    chunk = 800
    buffer = 800
    read_every = 2
    bucket_count = 8
    #: Segments with fewer reports are not learned: with two or three
    #: readings the Lemma-1 intervals are so wide that a handful of them
    #: would decide ``ci_width_mean``.
    min_observations = 5
    alert_queries = ((120.0, 0.8), (200.0, 0.5))
    #: Strict ``>``: ``>=`` against an exact value currently drops rows
    #: equal to the constant (see CHANGES.md), which is not what this
    #: workload measures.
    speed_floor = 35.0
    top_k_constant = 60.0
    top_k_tau = 0.5
    top_k_limit = 10

    def __init__(self, seed: int, tiny: bool = False) -> None:
        if tiny:
            self.segments = 100
            self.chunk = 200
            self.buffer = 100
        # One fixed road network (segment lengths, rates, delay laws);
        # the seed draws the reports.  Networks differ so much in their
        # rate and delay mix that a per-seed network would dominate the
        # spread of every figure.
        sim = CarTelSimulator(n_segments=1, seed=seed)
        sim.segments = CarTelSimulator(
            n_segments=self.segments, seed=self.network_seed
        ).segments
        reports = [
            report.as_record()
            for w in range(self.pool_windows)
            for report in sim.report_stream(
                window_minutes=self.window_minutes,
                start_hour=7.0 + 0.5 * w,
            )
        ]
        self.chunks = [
            reports[a : a + self.chunk]
            for a in range(0, len(reports) - self.chunk + 1, self.chunk)
        ]
        learner = make_learner("histogram", bucket_count=self.bucket_count)
        self.oracle = [self._learn_chunk(learner, c) for c in self.chunks]
        if sum(len(o["ids"]) for o in self.oracle) <= self.buffer:
            raise ValueError("input pool smaller than the stream buffer")
        # The warm-up ingests the whole pool once: it fills the buffer,
        # and the mean interval width averages over every learned tuple.
        self.warmup_calls = len(self.chunks)

    def _learn_chunk(self, learner, records) -> dict[str, np.ndarray]:
        """What ``ingest_observations`` will produce for one chunk."""
        groups: dict[object, list] = {}
        for record in records:
            groups.setdefault(record["segment_id"], []).append(record)
        ids, speed, edges, probs = [], [], [], []
        for key in sorted(groups, key=str):
            members = groups[key]
            if len(members) < self.min_observations:
                continue
            dist = learner.learn(
                [float(m["delay"]) for m in members]
            ).distribution
            ids.append(key)
            speed.append(members[0]["speed_limit"])
            edges.append(dist.edges)
            probs.append(dist.probabilities)
        edges_arr = np.asarray(edges)
        probs_arr = np.asarray(probs)
        lo, hi = edges_arr[:, :-1], edges_arr[:, 1:]
        mean = ((lo + hi) / 2.0 * probs_arr).sum(axis=1)
        second = ((lo * lo + lo * hi + hi * hi) / 3.0 * probs_arr).sum(axis=1)
        return {
            "ids": np.asarray(ids),
            "speed": np.asarray(speed, dtype=np.float64),
            "edges": edges_arr,
            "probs": probs_arr,
            "mean": mean,
            "var": np.maximum(second - mean * mean, 0.0),
        }

    @staticmethod
    def _greater(oracle: dict, c: float) -> np.ndarray:
        """P(X > c) per tuple of a histogram (uniform within buckets)."""
        lo, hi = oracle["edges"][:, :-1], oracle["edges"][:, 1:]
        above = np.clip((hi - c) / (hi - lo), 0.0, 1.0)
        return (above * oracle["probs"]).sum(axis=1)

    def input_digest(self) -> str:
        return _digest(
            repr(sorted(r.items())).encode()
            for chunk in self.chunks
            for r in chunk
        )

    def build(self) -> "LearnSystem":
        clear_plan_cache()
        system = LearnSystem(
            StreamDatabase(max_tuples_per_stream=self.buffer),
            make_learner("histogram", bucket_count=self.bucket_count),
        )
        db = system.db
        db.create_stream("roads")
        for i, (c, tau) in enumerate(self.alert_queries):
            db.register_continuous(
                f"alert{i}",
                f"SELECT segment_id, delay FROM roads WHERE delay > {c:g} "
                f"PROB {tau:g}",
                system.alerts,
            )
        db.register_continuous(
            "slow",
            "SELECT segment_id, delay FROM roads "
            "WHERE mTest(delay, '>', 90, 0.05, 0.05)",
            system.others,
        )
        db.register_continuous(
            "fast_roads",
            "SELECT segment_id, delay FROM roads "
            f"WHERE speed_limit > {self.speed_floor:g}",
            system.monitor,
        )
        return system

    def warmup(self, system: "LearnSystem") -> Warmup:
        attempted = failed = 0
        widths: list[float] = []
        digest_parts = []
        for i in range(self.warmup_calls):
            system.keep()
            attempted += 1
            self.ingest(system, i)
            failed += int(not self.check_ingest(system, i))
            kept = system.kept()
            widths.extend(r.accuracy["delay"].mean.length for r in kept)
            digest_parts.extend(pickle.dumps(r) for r in kept)
        system.stop_keeping()
        return Warmup(
            self.warmup_calls, attempted, failed, widths,
            _digest(digest_parts),
        )

    def ingest(self, system: "LearnSystem", i: int) -> int:
        records = self.chunks[i % len(self.chunks)]
        before = (system.alerts.count, system.monitor.count)
        system.produced = system.db.ingest_observations(
            "roads",
            records,
            group_by="segment_id",
            value="delay",
            learner=system.learner,
            carry=("speed_limit",),
            min_observations=self.min_observations,
        )
        system.last = (
            system.alerts.count - before[0],
            system.monitor.count - before[1],
        )
        system.calls = i + 1
        return len(records)

    def check_ingest(self, system: "LearnSystem", i: int) -> bool:
        oracle = self.oracle[i % len(self.chunks)]
        if system.produced != len(oracle["ids"]):
            return False
        low = high = 0
        for c, tau in self.alert_queries:
            sure, maybe = _band_count(self._greater(oracle, c), tau)
            low += sure
            high += sure + maybe
        alerts, fast = system.last
        expected_fast = int(
            np.count_nonzero(oracle["speed"] > self.speed_floor)
        )
        return low <= alerts <= high and fast == expected_fast

    def _buffered(self, calls: int) -> dict[str, np.ndarray]:
        """Oracle arrays of the tuples the stream buffer holds now."""
        parts = []
        held = 0
        i = calls - 1
        while held < self.buffer and i >= 0:
            parts.append(self.oracle[i % len(self.chunks)])
            held += len(parts[-1]["ids"])
            i -= 1
        parts.reverse()
        merged = {
            key: np.concatenate([p[key] for p in parts]) for key in parts[0]
        }
        return {key: value[-self.buffer:] for key, value in merged.items()}

    def read(self, system: "LearnSystem", j: int):
        """One dashboard refresh: a GROUP BY AVG and a top-k."""
        grouped = system.db.query(
            "SELECT AVG(delay) AS avg_delay FROM roads GROUP BY speed_limit"
        )
        top = system.db.query(
            "SELECT segment_id, delay FROM roads "
            f"WHERE delay > {self.top_k_constant:g} "
            f"PROB {self.top_k_tau:g} ORDER BY delay DESC "
            f"LIMIT {self.top_k_limit}"
        )
        return grouped, top

    def check_read(self, system: "LearnSystem", j: int, rows) -> bool:
        grouped, top = rows
        held = self._buffered(system.calls)
        expected = _top_k_ids(
            held["ids"],
            held["mean"],
            self._greater(held, self.top_k_constant),
            self.top_k_tau,
            self.top_k_limit,
        )
        got = [int(_scalar(r.attributes["segment_id"])) for r in top]
        if expected is not None and got != expected:
            return False
        return self._check_grouped(held, grouped)

    @staticmethod
    def _check_grouped(held: dict, rows) -> bool:
        # Possible-world moments of AVG with every membership p = 1:
        # mean = sum(mu) / n, variance = sum(sigma^2) / n^2.
        keys = np.unique(held["speed"])
        if len(rows) != len(keys):
            return False
        for row in rows:
            key = _scalar(row.attributes["speed_limit"])
            members = held["speed"] == key
            n = np.count_nonzero(members)
            if n == 0:
                return False
            mean = held["mean"][members].sum() / n
            var = held["var"][members].sum() / (n * n)
            dist = row.attributes["avg_delay"].distribution
            if not (
                math.isclose(dist.mean(), mean, rel_tol=1e-9, abs_tol=1e-9)
                and math.isclose(
                    dist.variance(), var, rel_tol=1e-9, abs_tol=1e-9
                )
            ):
                return False
        return True

    def layer_counts(self, system: "LearnSystem") -> dict[str, float]:
        return system.counts()

    @property
    def cycle(self) -> int:
        return len(self.chunks)

    def state_bytes(self, system: "LearnSystem") -> int:
        return deep_size(system.db, system.callbacks)


class LearnSystem(SqlSystem):
    def __init__(self, db: StreamDatabase, learner) -> None:
        super().__init__(db)
        self.learner = learner
        self.produced = 0


class SketchStream:
    """Sketch-learned rolling distribution → coupled mTest → GROUP BY."""

    name = "sketch_stream"
    #: Rolling-learner window and sketch chunk: 16 chunks of 128, the
    #: ring shape an 8k window has at the default 512-value chunks.
    window = 2048
    chunk_size = 128
    batch = 64
    setup_repeats = 301
    pool_size = 16384
    period = 8192
    threshold = 50.0
    group_window = 16
    ttl = 2048
    read_every = 4
    #: A read ranks the most recent group answers the sink collected.
    read_rows = 512
    read_limit = 10

    def __init__(self, seed: int, tiny: bool = False) -> None:
        if tiny:
            self.window = 256
            self.chunk_size = 16
            self.pool_size = 2048
            self.period = 1024
            self.ttl = 256
        rng = np.random.default_rng([seed, 3])
        t = np.arange(self.pool_size)
        # The fleet level drifts across the alarm threshold, so the
        # coupled test answers TRUE most of the time, FALSE and UNSURE
        # for the rest.  Sensor noise is bounded (uniform, sd 8): the
        # sketch widens intervals by the window's value range, which
        # unbounded noise would make depend on the seed's extremes.
        self.readings = (
            self.threshold
            + 2.0
            + 3.0 * np.sin(2.0 * np.pi * t / self.period)
            + rng.uniform(-14.0, 14.0, self.pool_size)
        )
        # Keys wrap with the pool, so a new pass over it continues the
        # churn instead of starting a burst of new keys.
        self.sensors = (t // 16 + rng.integers(0, 128, self.pool_size)) % (
            self.pool_size // 16
        )
        pool = [
            UncertainTuple({"sensor": int(s), "reading": float(x)})
            for s, x in zip(self.sensors, self.readings)
        ]
        n_batches = self.pool_size // self.batch
        self.batches = [
            pool[i * self.batch : (i + 1) * self.batch]
            for i in range(n_batches)
        ]
        self.warmup_batches = (self.window + self.ttl) // self.batch
        self.query = (
            "SELECT sensor, level FROM groups ORDER BY level DESC "
            f"LIMIT {self.read_limit}"
        )

    def input_digest(self) -> str:
        return _digest([self.readings.tobytes(), self.sensors.tobytes()])

    def build(self) -> "SketchSystem":
        alarm = MeanAlarm(self.threshold, self.window)
        operators = [
            RollingLearnOperator(
                "reading",
                self.window,
                learner="sketch-quantile",
                output="learned",
                accuracy_output="accuracy",
                chunk_size=self.chunk_size,
            ),
            SignificanceFilter(alarm, alpha1=0.05, alpha2=0.05),
            GroupedAggregate(
                "sensor",
                "reading",
                self.group_window,
                agg="avg",
                output="level",
                synopsis="chunked",
                expire_after=self.ttl,
            ),
            RecentSink(self.read_rows),
        ]
        return SketchSystem(
            Pipeline(operators), alarm, QueryExecutor(self.query)
        )

    def warmup(self, system: "SketchSystem") -> Warmup:
        attempted = failed = 0
        system.alarm.widths = []
        for i in range(self.warmup_batches):
            attempted += 1
            self.ingest(system, i)
            failed += int(not self.check_ingest(system, i))
        widths = system.alarm.widths
        system.alarm.widths = None
        digest = _digest(
            [np.asarray(widths).tobytes(), str(system.outputs).encode()]
        )
        return Warmup(self.warmup_batches, attempted, failed, widths, digest)

    def ingest(self, system: "SketchSystem", i: int) -> int:
        batch = self.batches[i % len(self.batches)]
        alarm = system.alarm
        before = (alarm.emissions, alarm.bad, system.passed())
        system.pipeline.push_many(batch)
        system.last = (
            alarm.emissions - before[0],
            alarm.bad - before[1],
            system.passed() - before[2],
        )
        return len(batch)

    def check_ingest(self, system: "SketchSystem", i: int) -> bool:
        emissions, bad, passed = system.last
        # The learner emits once its window holds two values: for every
        # tuple but the very first.
        expected = self.batch - (1 if i == 0 else 0)
        grown = system.sink_growth()
        return emissions == expected and bad == 0 and grown == passed

    def read(self, system: "SketchSystem", j: int):
        return system.executor.execute(system.recent(self.read_rows))

    def check_read(self, system: "SketchSystem", j: int, rows) -> bool:
        sample = system.last_read
        means = np.asarray(
            [_scalar(t.dfsized("level")) for t in sample], dtype=np.float64
        )
        ids = np.asarray([t.value("sensor") for t in sample])
        expected = _top_k_ids(
            ids, means, np.ones(len(sample)), 0.5, self.read_limit
        )
        got = [int(_scalar(r.attributes["sensor"])) for r in rows]
        return got == expected

    def layer_counts(self, system: "SketchSystem") -> dict[str, float]:
        return {
            "live_groups": float(system.group_count()),
            "operator_state_bytes": float(self.state_bytes(system)),
        }

    @property
    def cycle(self) -> int:
        return len(self.batches)

    def state_bytes(self, system: "SketchSystem") -> int:
        """Σ ``Operator.state_bytes()`` of the pipeline's operators."""
        return sum(
            op.state_bytes() or 0 for op in system.pipeline.operators
        )


class SketchSystem:
    def __init__(self, pipeline: Pipeline, alarm: MeanAlarm, executor) -> None:
        self.pipeline = pipeline
        self.alarm = alarm
        self.executor = executor
        self.filter = pipeline.operators[1]
        self.grouped = pipeline.operators[2]
        self.sink = pipeline.sink
        self.last = (0, 0, 0)
        self._seen = 0
        self.last_read: list = []
        self.outputs = 0

    def passed(self) -> int:
        return self.filter.decisions[ThreeValued.TRUE]

    def group_count(self) -> int:
        return self.grouped.group_count

    def sink_growth(self) -> int:
        total = self.sink.count
        grown = total - self._seen
        self._seen = total
        self.outputs = total
        return grown

    def recent(self, rows: int) -> list:
        self.last_read = list(self.sink.recent)[-rows:]
        return self.last_read


WORKLOADS = {
    cls.name: cls for cls in (SqlIngest, LearnAndRead, SketchStream)
}
