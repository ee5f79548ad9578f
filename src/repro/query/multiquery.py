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
* The batch path takes each member's matches the way one-shot
  ``QueryExecutor.execute`` does (:mod:`repro.query.residual`): one
  :class:`~repro.query.residual.ChunkViews` per batch, kernel-shaped
  residuals decided in arrays that equal the scalar code bit for bit
  per row, histogram columns included, and the matches yielded in row
  order.  For single-conjunct threshold members over a Gaussian or
  deterministic column, a NumPy screen in z-space first cuts the
  (query, row) pairs that cannot match, with a conservative band.
  Rows outside the kernels' domain run the member's own scalar
  ``residual_outcome`` when its iteration reaches them, so it decides,
  draws or raises exactly as naive execution does.

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
from collections.abc import Sequence

import numpy as np
from scipy import special

from repro.core.analytic import accuracy_from_moments, histograms_accuracy
from repro.distributions.gaussian import tail_probabilities
from repro.obs.instrument import Observer
from repro.query.executor import QueryExecutor, ResultTuple
from repro.query.expressions import Column
from repro.query.planner import prefix_fingerprint
from repro.query.residual import (
    ChunkViews,
    ColumnView,
    ResidualOutcome,
    VecConjunct,
    decide_rows,
    kernel_conjuncts,
    row_matches,
    vectorizable_conjuncts,
)
from repro.streams.tuples import UncertainTuple

# Not called here: perfbench wraps these two names in this module
# (ROADMAP item 3 removes them).
from repro.core.analytic import distribution_accuracy  # noqa: F401
from repro.streams.columnar import as_columnar  # noqa: F401

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
        "specs",
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
        self.specs = specs
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

    def decide(self, views: ChunkViews) -> "list[tuple[list, Sequence]]":
        """Per distinct spec, :func:`decide_rows`' ``(hits, fallback)``.

        A Gaussian or deterministic column is screened first, then each
        candidate pair is decided with the tail kernel.  Otherwise
        :func:`decide_rows` decides each spec: over every row of a
        histogram column, and over none where the kernels cannot read
        the batch.
        """
        view = views.view(self.column)
        probabilities = views.probabilities
        if (
            view is None
            or probabilities is None
            or view.histograms is not None
        ):
            return [decide_rows((spec,), views, False) for spec in self.specs]
        spec_idx, row_idx = self.screen(view)
        q = tail_probabilities(
            view.mu[row_idx],
            view.sigma2[row_idx],
            self.op,
            self.consts[spec_idx],
        )
        qualifies = np.where(
            self.bare[spec_idx], q > 0.0, q >= self.taus[spec_idx]
        )
        probability = probabilities[row_idx] * q
        keep = qualifies & (probability > 0.0)
        hits: list[list] = [[] for _ in self.specs]
        sizes = view.sizes
        # Spec-major pairs: each spec's list comes out in row order.
        for s, b, p in zip(
            spec_idx[keep].tolist(),
            row_idx[keep].tolist(),
            probability[keep].tolist(),
        ):
            hits[s].append((b, ResidualOutcome(p, (sizes[b],), (), None)))
        fallback = np.flatnonzero(~view.covered).tolist()
        return [(spec_hits, fallback) for spec_hits in hits]

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
        the naive per-tuple callback order.  Every kernel member is
        decided first and the columnar prefix products of the rows they
        matched are built; then each member's matches are emitted in
        row order, the scalar residual running as the iteration reaches
        a row the kernels left.
        """
        query_set = self._query_set(source)
        if not query_set.members:
            return [[] for _ in tuples]
        views = ChunkViews(tuples)
        decided: dict[_Entry, tuple[list, Sequence[int]]] = {}
        for bucket in query_set.buckets:
            for members, decision in zip(bucket.members, bucket.decide(views)):
                for entry in members:
                    decided[entry] = decision
        for entry in query_set.singles:
            decided[entry] = decide_rows(
                entry.kernel, views, entry.executor.config.keep_unsure
            )
        built = self._build_products(query_set, decided, views)
        cache: dict = {}
        undecided = [], range(len(tuples))
        rows: list[list[tuple[int, _Entry, ResultTuple]]] = [
            [] for _ in tuples
        ]
        for entry in query_set.members:
            executor = entry.executor
            decision = decided.get(entry)
            if decision is None:
                if executor.query.is_aggregate and tuples:
                    executor.execute_one(tuples[0])  # raises QueryError
                decision = undecided
            elif not (decision[0] or decision[1]):
                continue  # the kernels decided every row: no match
            for b, outcome in row_matches(
                decision, tuples, executor.residual_outcome
            ):
                tup = tuples[b]
                attributes, accuracy = self._prefix(
                    entry, b, tup, built, cache
                )
                result = executor.finalize_result(
                    tup, outcome, attributes, accuracy
                )
                rows[b].append((entry.order, entry, result))

        out: list[list[tuple[object, ResultTuple]]] = []
        for row in rows:
            row.sort(key=lambda item: item[0])
            for _order, entry, _result in row:
                self._record_result(entry)
            out.append([(entry.handle, result) for _o, entry, result in row])
        if self.observer.frames is not None:
            self.observer.frames.advance(len(tuples))
        return out

    # -- prefix products ---------------------------------------------------

    def _prefix(
        self,
        entry: _Entry,
        b: int,
        tup: UncertainTuple,
        built: dict,
        cache: dict,
    ) -> tuple[dict, dict]:
        """The (attributes, accuracy) prefix of one matched row.

        A member alone in its group outside the columnar pass runs its
        private prefix.  Otherwise the product of ``(group, row)`` is
        shared: the first result takes the columnar product in
        ``built`` or computes one under the RNG guard, and every later
        result is a shared hit from ``cache``.  A guard trip marks the
        whole group non-shareable and the member computes its private
        prefix on its own generator — the exact draw sequence naive
        execution would have made, since the guarded attempt consumed
        nothing.
        """
        group = entry.group
        key = (id(group), b)
        product = cache.get(key)
        if product is not None:
            self._shared_hits.inc()
        else:
            product = built.pop(key, None)
            if product is None:
                executor = entry.executor
                if len(group.entries) < 2 or group.rng_free is False:
                    return executor.evaluate_prefix(tup)
                try:
                    product = executor.evaluate_prefix(tup, rng=_GUARD)
                except PrefixNeedsRng:
                    group.rng_free = False
                    self._fallbacks.inc()
                    return executor.evaluate_prefix(tup)
                group.rng_free = True
            cache[key] = product
        attributes, accuracy = product
        return dict(attributes), dict(accuracy)

    def _build_products(
        self,
        query_set: _QuerySet,
        decided: "dict[_Entry, tuple[list, Sequence[int]]]",
        views: ChunkViews,
    ) -> dict:
        """Columnar prefix products of every row a kernel hit, by group.

        Only groups whose prefix reads the batch's Gaussian or
        deterministic views (:meth:`_columnar_items`) are built.
        """
        needed: dict[_PlanGroup, set] = {}
        for entry in query_set.members:
            hits = decided[entry][0] if entry in decided else ()
            if hits and entry.group.columnar_ok:
                needed.setdefault(entry.group, set()).update(
                    b for b, _ in hits
                )
        built: dict = {}
        for group, row_set in needed.items():
            items = self._columnar_items(group, views)
            if items is None:
                continue
            row_ids = np.fromiter(
                sorted(row_set), dtype=np.intp, count=len(row_set)
            )
            self._build_columnar_products(group, items, views, row_ids, built)
        return built

    @staticmethod
    def _columnar_items(
        group: _PlanGroup, views: ChunkViews
    ) -> "list[tuple[str, str]] | None":
        """The group's ``(alias, column)`` items if its views allow, else None.

        Every selected column must have a view (Gaussian, deterministic,
        or histograms of one bucket count); ``SELECT *`` also needs every
        row to carry the first row's attribute names in the same order.
        """
        if group.star:
            tuples = views.tuples
            names = tuple(tuples[0].attributes)
            if any(tuple(tup.attributes) != names for tup in tuples):
                return None
            items = [(name, name) for name in names]
        else:
            items = list(group.select_cols)
        if any(views.view(name) is None for _alias, name in items):
            return None
        return items

    @staticmethod
    def _build_columnar_products(
        group: _PlanGroup,
        items: "list[tuple[str, str]]",
        views: ChunkViews,
        row_ids: np.ndarray,
        built: dict,
    ) -> None:
        """Shared (attributes, accuracy) products for the needed rows.

        Attribute values come from the *original* tuples, so within a
        result the object graph (and hence its pickle bytes) aliases
        exactly as the naive path's would.  Accuracy intervals come from
        the vectorized Theorem-1 kernel, element-wise identical to the
        scalar ``distribution_accuracy``; a histogram column's Lemma-1
        bins come from one ``histograms_accuracy`` pass over its rows.
        """
        gid = id(group)
        config = group.entries[0].executor.config
        tuples = views.tuples
        accuracy_rows: dict[int, dict] = {b: {} for b in row_ids.tolist()}
        if config.accuracy_method != "none":
            for alias, name in items:
                view = views.view(name)
                if view.n is None:
                    continue  # deterministic column: no accuracy
                sizes = view.n[row_ids]
                eligible = sizes >= 2
                if not eligible.any():
                    continue
                rows_el = row_ids[eligible]
                bins = None
                if view.histograms is not None:
                    bins = histograms_accuracy(
                        [
                            tuples[b].attributes[name].distribution
                            for b in rows_el.tolist()
                        ],
                        sizes[eligible].tolist(),
                        config.confidence,
                    )
                infos = accuracy_from_moments(
                    view.mu[rows_el],
                    view.sigma2[rows_el],
                    sizes[eligible],
                    config.confidence,
                    bins=bins,
                )
                for b, info in zip(rows_el.tolist(), infos):
                    accuracy_rows[b][alias] = info
        for b, accuracy in accuracy_rows.items():
            tup = tuples[b]
            if group.star:
                attributes = {
                    name: tup.dfsized(name) for name in tup.attributes
                }
            else:
                attributes = {
                    alias: tup.dfsized(name) for alias, name in items
                }
            built[(gid, b)] = (attributes, accuracy)
