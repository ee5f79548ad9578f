"""Shared-subplan multi-query execution.

``StreamDatabase`` dispatches every insert to every standing query — at
N standing queries over the same stream that is N full pipelines per
tuple, even though queries registered by "millions of users" (ROADMAP
item 2) overwhelmingly share the expensive part of the work.  Diao et
al. (*Capturing Data Uncertainty in High-Volume Stream Processing*)
make the architectural point this module implements: the uncertainty
machinery — projection of distribution-valued fields and Theorem-1
accuracy attachment — should run **once** per tuple, with only cheap
per-query predicates fanned out.

The engine groups registered plans by :func:`repro.query.planner.
prefix_fingerprint`.  Two plans with equal fingerprints compute exactly
the same *prefix* (SELECT projection + accuracy) for every tuple, so
the prefix runs once per tuple per group and each member only runs its
*residual* (WHERE conjuncts, membership-probability interval, ORDER BY
sort key).

Determinism contract
--------------------

Results are **byte-identical** to the naive per-query loop: same
matches, same per-result ``pickle`` bytes, same callback order per
tuple.  The mechanism is conservative:

* A prefix result is shared only when computing it consumes no
  randomness.  Rather than guessing statically, the engine evaluates
  the prefix under a :class:`_GuardRng` — a generator stand-in whose
  every method raises :class:`PrefixNeedsRng`.  Any Monte-Carlo draw
  (bootstrap accuracy, MC expression arithmetic) trips the guard
  *before any state mutates*, and the member falls back to its private
  prefix on its own generator — exactly the naive consumption sequence.
* The batch path decides kernel-shaped residuals in arrays with the
  kernels of :mod:`repro.query.residual` (shared with one-shot
  ``QueryExecutor.execute``), which equal the scalar code bit for bit
  per row.  For single-conjunct threshold members, a NumPy screen in
  z-space first cuts the (query, row) pairs that cannot match, with a
  conservative band.  Rows outside the kernels' domain run the
  member's own scalar ``residual_outcome``, which decides or raises
  exactly as naive execution does.

Every insert, one tuple or many, runs here as a batch.  The documented
divergences are on *error* paths only: executor errors surface before
any of that batch's callbacks, and a callback that raises stops
emission for later rows after their executors already ran (per-tuple
RNG state may advance past the failing row).  Reentrant callbacks that
insert into the same stream during a batched dispatch observe the
batch mid-flight.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy import special

# Private intra-package import: _UNIQUE_DF_FAST_PATH guards the
# memoized-table interval path (bitwise identical to the scalar
# kernels).
from repro.core.analytic import (
    _UNIQUE_DF_FAST_PATH,
    accuracy_from_moments,
    distribution_accuracy,
)
from repro.distributions.gaussian import tail_probabilities
from repro.obs.instrument import Observer
from repro.query.executor import QueryExecutor, ResultTuple
from repro.query.expressions import Column
from repro.query.planner import prefix_fingerprint
from repro.query.residual import (
    SUPPORTED_COLUMNS,
    ColumnView,
    MTestConjunct,
    ResidualOutcome,
    VecConjunct,
    decide_single,
    kernel_conjuncts,
    merge_fallback,
    vectorizable_conjuncts,
)
from repro.streams.columnar import ColumnarBatch, as_columnar
from repro.streams.tuples import UncertainTuple

__all__ = [
    "MultiQueryEngine",
    "PrefixNeedsRng",
    # Re-exported: perfbench's layer spans import it from here.
    "vectorizable_conjuncts",
]


class PrefixNeedsRng(Exception):
    """Raised by :class:`_GuardRng` when a shared prefix tries to draw."""


class _GuardRng:
    """A Generator stand-in that refuses to generate.

    Passed as the ``rng`` of a *shared* prefix evaluation: a prefix
    whose value depends on randomness cannot be shared across queries
    (each query's naive execution would consume its own generator), so
    the first draw attempt aborts the shared attempt.  The guard is
    stateless and the abort happens before any executor state mutates,
    which is what makes the fallback byte-identical to the naive path.
    """

    __slots__ = ()

    def __getattr__(self, name: str):
        raise PrefixNeedsRng(name)


_GUARD = _GuardRng()

#: Conservative z-space slack of the candidate screen.  The screen must
#: never reject a row the exact kernel would accept; ``erfc``/``erfcinv``
#: round-off lives many orders of magnitude inside this band wherever
#: the tail derivative is non-negligible.
_Z_SLACK = 1e-3

#: Value-space slack on the PROB threshold before inverting it.  Where
#: the Gaussian tail is so flat that a z-band is meaningless (``q``
#: saturating near 0 or 1), ``0.5*erfc(z)`` can round a probability
#: across the threshold by at most a few ulp; widening tau by 1e-12
#: before ``erfcinv`` dominates that error by three orders of magnitude.
_TAU_SLACK = 1e-12

#: ``math.erfc`` underflows to exactly 0.0 somewhere near z = 26.5; by
#: z = 38 the true value (~5e-630) is unrepresentably far below the
#: smallest subnormal, so any libm returns exactly 0.0 and rejecting
#: ``z >= 38`` can never disagree with the exact ``q > 0`` test.
_UNDERFLOW_Z = 38.0

#: Cells of one (spec, row) screen comparison block.
_SCREEN_CELLS = 4_000_000


def _candidate_z_bound(spec: VecConjunct) -> float:
    """Largest ``|z|``-side bound at which a row may still qualify.

    For a gt-like conjunct a row is a candidate iff ``z <= bound``; for
    an lt-like conjunct iff ``z >= -bound`` (z measured toward the
    rejecting tail either way).  ``+inf`` means every row is a
    candidate (the exact kernel decides), ``-inf`` means none can
    qualify (``q <= 1`` always, so a tau above 1 rejects everything).
    """
    tau = spec.threshold
    if tau is None:
        return _UNDERFLOW_Z
    widened = tau - _TAU_SLACK
    if widened <= 0.0:
        return np.inf
    arg = 2.0 * widened
    if arg >= 2.0:
        return -np.inf
    t = float(special.erfcinv(arg))
    if not np.isfinite(t):
        return np.inf if t > 0 else -np.inf
    return t + _Z_SLACK


class _Bucket:
    """Single-conjunct threshold members over one ``(column, op)``.

    Members with equal ``(constant, threshold)`` decide identically, so
    the screen and the tail kernel run once per distinct spec and the
    verdicts fan out to ``members[spec]``.
    """

    __slots__ = (
        "column",
        "op",
        "gt_like",
        "members",
        "consts",
        "bounds",
        "taus",
        "bare",
        "infinite",
        "accept_all",
    )

    def __init__(
        self, column: str, op: str, by_spec: "dict[VecConjunct, list]"
    ) -> None:
        specs = list(by_spec)
        self.column = column
        self.op = op
        self.gt_like = op in (">", ">=")
        self.members = [by_spec[spec] for spec in specs]
        self.consts = np.array(
            [spec.constant for spec in specs], dtype=np.float64
        )
        bounds = np.array(
            [_candidate_z_bound(spec) for spec in specs], dtype=np.float64
        )
        self.infinite = ~np.isfinite(bounds)
        self.accept_all = np.isposinf(bounds)
        # lt-like candidates satisfy ``c - mu >= -bound * spread``.
        self.bounds = bounds if self.gt_like else -bounds
        self.bare = np.array(
            [spec.threshold is None for spec in specs], dtype=bool
        )
        self.taus = np.array(
            [
                np.nan if spec.threshold is None else spec.threshold
                for spec in specs
            ],
            dtype=np.float64,
        )

    def screen(self, view: ColumnView) -> tuple[np.ndarray, np.ndarray]:
        """Candidate ``(spec, row)`` pairs, spec-major, over covered rows.

        A superset of the matches: the exact kernel decides each pair.
        """
        rows = np.flatnonzero(view.covered)
        mu = view.mu[rows]
        # ``c - mu <= bound * spread`` degenerates on zero-variance rows
        # to the loose step ``c <= mu`` (gt-like) / ``c >= mu``
        # (lt-like), a superset of the exact step.
        spread = np.sqrt(2.0 * view.sigma2[rows])
        n_specs = len(self.consts)
        chunk = max(1, _SCREEN_CELLS // max(len(rows), 1))
        spec_parts, row_parts = [], []
        for start in range(0, n_specs, chunk):
            stop = min(start + chunk, n_specs)
            with np.errstate(invalid="ignore", over="ignore"):
                lhs = self.consts[start:stop, None] - mu[None, :]
                scaled = self.bounds[start:stop, None] * spread[None, :]
                cand = lhs <= scaled if self.gt_like else lhs >= scaled
            # Infinite bounds make 0*inf NaN on zero-variance rows; the
            # verdict there is uniform anyway (all rows or none).
            infinite = self.infinite[start:stop]
            if infinite.any():
                cand[infinite, :] = self.accept_all[start:stop][infinite][
                    :, None
                ]
            spec_idx, row_idx = np.nonzero(cand)
            spec_parts.append(spec_idx + start)
            row_parts.append(rows[row_idx])
        return np.concatenate(spec_parts), np.concatenate(row_parts)


class _Entry:
    """One registered standing query inside the engine."""

    __slots__ = (
        "name",
        "source",
        "executor",
        "handle",
        "order",
        "fingerprint",
        "kernel",
        "group",
        "results_counter",
    )

    def __init__(
        self,
        name: str,
        source: str,
        executor: QueryExecutor,
        handle: object,
        order: int,
    ) -> None:
        self.name = name
        self.source = source
        self.executor = executor
        self.handle = handle
        self.order = order
        self.fingerprint = prefix_fingerprint(
            executor.query, executor.config
        )
        # Aggregates need the whole stream: their batch path raises.
        self.kernel = (
            None if executor.query.is_aggregate
            else kernel_conjuncts(executor.query)
        )
        self.group: "_PlanGroup | None" = None
        self.results_counter = None  # set by MultiQueryEngine.add


class _QuerySet:
    """The standing queries of one source, compiled for the batch path.

    Everything here depends only on the registered queries, so the
    engine builds it on the first batch after an ``add``/``remove``,
    not per batch (and not per ``add``, which would make registering Q
    queries O(Q^2)).
    """

    __slots__ = ("members", "buckets", "singles")

    def __init__(self, members: "list[_Entry]") -> None:
        self.members = members
        #: Kernel members decided one at a time: several conjuncts,
        #: an mTest, or no WHERE clause.
        self.singles: list[_Entry] = []
        grouped: dict[tuple[str, str], dict[VecConjunct, list]] = {}
        for entry in members:
            specs = entry.kernel
            if specs is None:
                continue
            if len(specs) == 1 and isinstance(specs[0], VecConjunct):
                spec = specs[0]
                grouped.setdefault((spec.column, spec.op), {}).setdefault(
                    spec, []
                ).append(entry)
            else:
                self.singles.append(entry)
        self.buckets = [
            _Bucket(column, op, by_spec)
            for (column, op), by_spec in grouped.items()
        ]


def _group_id(fingerprint: tuple) -> str:
    """Short stable label for a plan group's fingerprint.

    A salted ``hash()`` or ``id()`` would vary across processes; the
    blake2b digest of the fingerprint's repr is stable for a given
    query set, so ``multiquery.group.{gid}.results`` series line up
    across runs and workers.
    """
    digest = hashlib.blake2b(
        repr(fingerprint).encode("utf-8"), digest_size=4
    )
    return digest.hexdigest()


class _PlanGroup:
    """All standing queries sharing one prefix fingerprint."""

    __slots__ = (
        "fingerprint",
        "entries",
        "rng_free",
        "columnar_ok",
        "star",
        "select_cols",
        "gid",
        "results_counter",
    )

    def __init__(self, fingerprint: tuple, entry: _Entry) -> None:
        self.fingerprint = fingerprint
        self.entries: list[_Entry] = []
        self.gid = _group_id(fingerprint)
        self.results_counter = None  # set by MultiQueryEngine.add
        #: None = unknown, True = proven RNG-free on some tuple, False
        #: = tripped the guard once; stop attempting shared prefixes.
        self.rng_free: "bool | None" = None
        compiled = entry.executor.query
        config = entry.executor.config
        # Static gate of the *columnar* prefix: pure projections plus
        # analytic (or no) accuracy never touch an RNG, and their
        # accuracy math has an exact vectorized twin.
        self.star = compiled.star
        self.columnar_ok = config.accuracy_method in (
            "analytic",
            "none",
        ) and (
            compiled.star
            or all(
                isinstance(expr, Column)
                for expr, _alias in compiled.select_items
            )
        )
        # Read only by the columnar kernels; derived SELECT items (which
        # have no column name) already cleared ``columnar_ok``.
        self.select_cols: "tuple[tuple[str, str], ...] | None" = (
            None
            if compiled.star or not self.columnar_ok
            else tuple(
                (alias, expr.name)
                for expr, alias in compiled.select_items
            )
        )


class MultiQueryEngine:
    """Groups standing queries by prefix fingerprint and executes them.

    The engine owns no streams and fires no callbacks: it returns
    ``(handle, ResultTuple)`` pairs in registration order and leaves
    buffering, match counting and fan-out to :class:`repro.db.
    StreamDatabase`.
    """

    def __init__(self, observer: Observer | None = None) -> None:
        if observer is None:
            observer = Observer()
        self.observer = observer
        self.metrics = metrics = observer.metrics
        self._entries: dict[str, _Entry] = {}
        self._groups: dict[tuple, _PlanGroup] = {}
        self._query_sets: dict[str, _QuerySet] = {}
        self._next_order = 0
        self._groups_gauge = metrics.gauge(
            "multiquery.groups",
            "shared-plan groups with at least two member queries",
        )
        self._shared_hits = metrics.counter(
            "multiquery.shared_hits",
            "query results served from a shared prefix computation",
        )
        self._fallbacks = metrics.counter(
            "multiquery.prefix_fallbacks",
            "shared-prefix attempts abandoned because the prefix "
            "needed randomness",
        )

    # -- registry ----------------------------------------------------------

    def add(
        self,
        name: str,
        source: str,
        executor: QueryExecutor,
        handle: object,
    ) -> None:
        entry = _Entry(name, source, executor, handle, self._next_order)
        self._next_order += 1
        entry.results_counter = self.metrics.counter(
            f"multiquery.query.{name}.results",
            "results emitted for this standing query",
        )
        if entry.fingerprint is not None:
            group = self._groups.get(entry.fingerprint)
            if group is None:
                group = _PlanGroup(entry.fingerprint, entry)
                group.results_counter = self.metrics.counter(
                    f"multiquery.group.{group.gid}.results",
                    "results emitted by members of this shared-plan "
                    "group",
                )
                self._groups[entry.fingerprint] = group
            group.entries.append(entry)
            entry.group = group
        self._entries[name] = entry
        self._query_sets.pop(source, None)
        self._update_gauge()

    def remove(self, name: str) -> None:
        entry = self._entries.pop(name, None)
        if entry is None:
            return
        group = entry.group
        if group is not None:
            group.entries.remove(entry)
            if not group.entries:
                del self._groups[group.fingerprint]
        self._query_sets.pop(entry.source, None)
        self._update_gauge()

    def remove_source(self, source: str) -> None:
        for name in [
            n for n, e in self._entries.items() if e.source == source
        ]:
            self.remove(name)

    def shared_group_count(self) -> int:
        """Number of groups currently holding two or more queries."""
        return sum(
            1 for g in self._groups.values() if len(g.entries) >= 2
        )

    def group_size(self, name: str) -> int:
        """How many queries share the named query's prefix (>= 1)."""
        entry = self._entries[name]
        return 1 if entry.group is None else len(entry.group.entries)

    def _update_gauge(self) -> None:
        self._groups_gauge.set(float(self.shared_group_count()))

    def _query_set(self, source: str) -> _QuerySet:
        query_set = self._query_sets.get(source)
        if query_set is None:
            query_set = _QuerySet(
                [e for e in self._entries.values() if e.source == source]
            )
            self._query_sets[source] = query_set
        return query_set

    # -- shared prefix products --------------------------------------------

    def _group_product(
        self,
        group: _PlanGroup,
        key: tuple,
        tup: UncertainTuple,
        entry: _Entry,
        cache: dict,
    ) -> tuple[dict, dict]:
        """The (attributes, accuracy) prefix product for one tuple.

        Served from ``cache`` when another member already computed it
        (a shared hit); otherwise attempted under the RNG guard.  A
        guard trip marks the whole group non-shareable and the member
        computes its private prefix on its own generator — the exact
        draw sequence naive execution would have made, since the
        guarded attempt consumed nothing.
        """
        product = cache.get(key)
        if product is not None:
            self._shared_hits.inc()
            return product
        executor = entry.executor
        if group.rng_free is not False:
            try:
                product = executor.evaluate_prefix(tup, rng=_GUARD)
            except PrefixNeedsRng:
                group.rng_free = False
                self._fallbacks.inc()
            else:
                group.rng_free = True
                cache[key] = product
                return product
        attributes, accuracy = executor.evaluate_prefix(tup)
        return attributes, accuracy

    # -- dispatch (StreamDatabase.insert_many) -----------------------------

    def iter_results(self, source: str, tup: UncertainTuple):
        """``(handle, result)`` pairs of one tuple: a one-row batch."""
        return iter(self.execute_batch(source, [tup])[0])

    def _record_result(self, entry: _Entry) -> None:
        entry.results_counter.inc()
        group = entry.group
        if group is not None:
            group.results_counter.inc()

    def execute_batch(
        self, source: str, tuples: list[UncertainTuple]
    ) -> list[list[tuple[object, ResultTuple]]]:
        """All standing-query results for a batch, grouped per row.

        Returns one list per input row of ``(handle, result)`` pairs in
        registration order — the caller emits row by row, preserving
        the naive per-tuple callback order.
        """
        query_set = self._query_set(source)
        if not query_set.members:
            return [[] for _ in tuples]
        rows: list[list[tuple[int, _Entry, ResultTuple]]] = [
            [] for _ in tuples
        ]
        batch = as_columnar(tuples)
        cache: dict = {}
        columnar_gate: dict[int, bool] = {}
        decided = (
            self._decide_residuals(query_set, batch, tuples)
            if batch is not None
            else {}
        )
        self._build_decided_products(
            query_set, decided, batch, tuples, cache, columnar_gate
        )
        for entry in query_set.members:
            hits = decided.get(id(entry))
            if hits is None:
                self._run_scalar_member(
                    entry, tuples, batch, cache, columnar_gate, rows
                )
            elif hits:
                self._emit_decided(
                    entry, hits, tuples, batch, cache, columnar_gate, rows
                )

        out: list[list[tuple[object, ResultTuple]]] = []
        for row in rows:
            row.sort(key=lambda item: item[0])
            for _order, entry, _result in row:
                self._record_result(entry)
            out.append([(entry.handle, result) for _o, entry, result in row])
        if self.observer.frames is not None:
            self.observer.frames.advance(len(tuples))
        return out

    def _columnar_eligible(
        self,
        group: _PlanGroup,
        batch: ColumnarBatch,
        gate: dict[int, bool],
    ) -> bool:
        """Whether the group's prefix is computable from batch columns."""
        ok = gate.get(id(group))
        if ok is not None:
            return ok
        if not group.columnar_ok:
            ok = False
        else:
            if group.star:
                needed = batch.names
            else:
                needed = tuple(
                    col for _alias, col in group.select_cols
                )
            ok = all(
                isinstance(batch.column(n), SUPPORTED_COLUMNS)
                for n in needed
            )
        gate[id(group)] = ok
        return ok

    # -- residuals decided in arrays ----------------------------------------

    def _decide_residuals(
        self,
        query_set: _QuerySet,
        batch: ColumnarBatch,
        tuples: list[UncertainTuple],
    ) -> "dict[int, list[tuple[int, ResidualOutcome]]]":
        """Row-ordered ``(row, outcome)`` matches of each kernel member.

        Keyed by ``id(entry)``; members absent from the result run the
        scalar path.  Kernel outcomes carry no evaluation context; an
        ORDER BY key builds its own when the result is finalized.
        """
        probabilities = batch.probabilities
        if not isinstance(probabilities, np.ndarray):
            # Not every membership probability is a float: the scalar
            # path keeps their own types in the emitted probability.
            return {}
        views: dict[str, "ColumnView | None"] = {}

        def view(name: str) -> "ColumnView | None":
            if name not in views:
                column = batch.column(name)
                views[name] = (
                    ColumnView(column)
                    if isinstance(column, SUPPORTED_COLUMNS)
                    else None
                )
            return views[name]

        decided: dict[int, list[tuple[int, ResidualOutcome]]] = {}
        for bucket in query_set.buckets:
            column = view(bucket.column)
            if column is None:
                continue
            self._decide_bucket(bucket, column, probabilities, decided)
            fallback = np.flatnonzero(~column.covered).tolist()
            if fallback:
                for members in bucket.members:
                    for entry in members:
                        decided[id(entry)] = self._with_fallback(
                            entry, decided[id(entry)], fallback, tuples
                        )
        for entry in query_set.singles:
            columns = [view(spec.column) for spec in entry.kernel]
            if any(
                column is None
                or (isinstance(spec, MTestConjunct) and column.n is None)
                for spec, column in zip(entry.kernel, columns)
            ):
                continue
            hits, covered = decide_single(
                entry.kernel,
                columns,
                probabilities,
                entry.executor.config.keep_unsure,
            )
            decided[id(entry)] = self._with_fallback(
                entry, hits, np.flatnonzero(~covered).tolist(), tuples
            )
        return decided

    @staticmethod
    def _decide_bucket(
        bucket: _Bucket,
        column: ColumnView,
        probabilities: np.ndarray,
        decided: dict,
    ) -> None:
        """Screen, then decide each candidate pair with the tail kernel."""
        spec_idx, row_idx = bucket.screen(column)
        q = tail_probabilities(
            column.mu[row_idx],
            column.sigma2[row_idx],
            bucket.op,
            bucket.consts[spec_idx],
        )
        qualifies = np.where(
            bucket.bare[spec_idx], q > 0.0, q >= bucket.taus[spec_idx]
        )
        probability = probabilities[row_idx] * q
        keep = qualifies & (probability > 0.0)
        for members in bucket.members:
            for entry in members:
                decided[id(entry)] = []
        sizes = column.sizes
        # Spec-major pairs: each member's list comes out in row order.
        for s, b, p in zip(
            spec_idx[keep].tolist(),
            row_idx[keep].tolist(),
            probability[keep].tolist(),
        ):
            outcome = ResidualOutcome(p, (sizes[b],), (), None)
            for entry in bucket.members[s]:
                decided[id(entry)].append((b, outcome))

    @staticmethod
    def _with_fallback(
        entry: _Entry,
        hits: "list[tuple[int, ResidualOutcome]]",
        fallback: "list[int]",
        tuples: list[UncertainTuple],
    ) -> "list[tuple[int, ResidualOutcome]]":
        """Merge the scalar residual of the rows the kernels left.

        These conjuncts never sample, so the member's own RNG is
        untouched, exactly as in naive execution.
        """
        if not fallback:
            return hits
        residual = entry.executor.residual_outcome
        return list(
            merge_fallback(hits, fallback, lambda b: residual(tuples[b]))
        )

    # -- prefixes and results of decided members ----------------------------

    def _build_decided_products(
        self,
        query_set: _QuerySet,
        decided: dict,
        batch: "ColumnarBatch | None",
        tuples: list[UncertainTuple],
        cache: dict,
        columnar_gate: dict[int, bool],
    ) -> None:
        """Columnar prefix products for every row a decided member matched.

        Every result beyond one per shared product rode a shared prefix
        computation.
        """
        needed: dict[int, set] = {}
        served: dict[int, int] = {}
        groups: dict[int, _PlanGroup] = {}
        for entry in query_set.members:
            hits = decided.get(id(entry))
            if not hits or not self._columnar_eligible(
                entry.group, batch, columnar_gate
            ):
                continue
            gid = id(entry.group)
            groups[gid] = entry.group
            needed.setdefault(gid, set()).update(b for b, _ in hits)
            served[gid] = served.get(gid, 0) + len(hits)
        for gid, row_set in needed.items():
            row_ids = np.fromiter(
                sorted(row_set), dtype=np.intp, count=len(row_set)
            )
            self._build_columnar_products(
                groups[gid], batch, tuples, row_ids, cache
            )
            self._shared_hits.inc(served[gid] - len(row_set))

    def _emit_decided(
        self,
        entry: _Entry,
        hits: "list[tuple[int, ResidualOutcome]]",
        tuples: list[UncertainTuple],
        batch: ColumnarBatch,
        cache: dict,
        columnar_gate: dict[int, bool],
        rows: list,
    ) -> None:
        """Results of a kernel-decided member, prefix work in row order.

        A columnar group reads the products built for the batch; any
        other prefix runs per matched row exactly as the scalar member
        path would, so a private prefix draws from the member's own
        generator in the naive row order.
        """
        executor = entry.executor
        group = entry.group
        gid = id(group)
        columnar = self._columnar_eligible(group, batch, columnar_gate)
        share = len(group.entries) >= 2
        for b, outcome in hits:
            tup = tuples[b]
            if columnar:
                attributes, accuracy = cache[(gid, b)]
            elif share:
                attributes, accuracy = self._group_product(
                    group, (gid, b), tup, entry, cache
                )
            else:
                result = executor.finalize_result(
                    tup, outcome, *executor.evaluate_prefix(tup)
                )
                rows[b].append((entry.order, entry, result))
                continue
            result = executor.finalize_result(
                tup, outcome, dict(attributes), dict(accuracy)
            )
            rows[b].append((entry.order, entry, result))

    def _build_columnar_products(
        self,
        group: _PlanGroup,
        batch: ColumnarBatch,
        tuples: list[UncertainTuple],
        row_ids: np.ndarray,
        cache: dict,
    ) -> None:
        """Shared (attributes, accuracy) products for the needed rows.

        Attribute values come from the *original* tuples, so within a
        result the object graph (and hence its pickle bytes) aliases
        exactly as the naive path's would.  Accuracy intervals are
        computed by the vectorized Theorem-1 kernels, which are bitwise
        identical to the scalar path while the memoized critical-value
        table applies; batches with more than 16 distinct sample sizes
        fall back to the scalar kernel per row.
        """
        gid = id(group)
        confidence = group.entries[0].executor.config.confidence
        method = group.entries[0].executor.config.accuracy_method
        if group.star:
            items = [(name, name) for name in batch.names]
        else:
            items = list(group.select_cols)
        accuracy_rows: dict[int, dict] = {int(b): {} for b in row_ids}
        if method != "none":
            for alias, column_name in items:
                column = batch.gaussian_column(column_name)
                if column is None:
                    continue  # deterministic column: no accuracy
                sizes = column.sizes[row_ids]
                eligible = sizes >= 2
                if not eligible.any():
                    continue
                rows_el = row_ids[eligible]
                ns = sizes[eligible]
                if np.unique(ns).size <= _UNIQUE_DF_FAST_PATH:
                    infos = accuracy_from_moments(
                        column.mu[rows_el],
                        column.sigma2[rows_el],
                        ns,
                        confidence,
                    )
                else:
                    infos = tuple(
                        distribution_accuracy(
                            tuples[int(b)]
                            .dfsized(column_name)
                            .distribution,
                            int(n),
                            confidence,
                        )
                        for b, n in zip(rows_el, ns)
                    )
                for b, info in zip(rows_el.tolist(), infos):
                    accuracy_rows[b][alias] = info
        for b in row_ids.tolist():
            tup = tuples[b]
            if group.star:
                attributes = {
                    name: tup.dfsized(name) for name in tup.attributes
                }
            else:
                attributes = {
                    alias: tup.dfsized(col) for alias, col in items
                }
            cache[(gid, b)] = (attributes, accuracy_rows[b])

    # -- scalar members ----------------------------------------------------

    def _run_scalar_member(
        self,
        entry: _Entry,
        tuples: list[UncertainTuple],
        batch: "ColumnarBatch | None",
        cache: dict,
        columnar_gate: dict[int, bool],
        rows: list,
    ) -> None:
        """Member-major scalar execution with per-row prefix sharing.

        Iterating rows inside one member keeps that member's generator
        consumption in row order — the same per-member sequence as the
        naive row-major loop, because generators are private to each
        query.
        """
        executor = entry.executor
        group = entry.group
        share = group is not None and len(group.entries) >= 2
        if executor.query.is_aggregate and tuples:
            executor.execute_one(tuples[0])  # raises QueryError
        use_columnar_cache = (
            group is not None
            and batch is not None
            and self._columnar_eligible(group, batch, columnar_gate)
        )
        for b, tup in enumerate(tuples):
            if not share and not use_columnar_cache:
                result = executor.execute_one(tup)
                if result is not None:
                    rows[b].append((entry.order, entry, result))
                continue
            outcome = executor.residual_outcome(tup)
            if outcome is None:
                continue
            attributes, accuracy = self._group_product(
                group, (id(group), b), tup, entry, cache
            )
            result = executor.finalize_result(
                tup, outcome, dict(attributes), dict(accuracy)
            )
            rows[b].append((entry.order, entry, result))
