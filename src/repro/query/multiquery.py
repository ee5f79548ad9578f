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
* The vectorized batch path never *emits* a vectorized probability:
  NumPy screens candidate rows in z-space with a conservative band, and
  every surviving candidate is confirmed by the member's own scalar
  ``residual_outcome`` — the byte-identity oracle by construction.

Batch-path caveats (documented divergences on *error* paths only):
executor errors surface before any of that batch's callbacks, and a
callback that raises stops emission for later rows after their
executors already ran (per-tuple RNG state may advance past the failing
row).  Reentrant callbacks that insert into the same stream during a
batched dispatch observe the batch mid-flight.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
from scipy import special

# Private intra-package imports: _UNIQUE_DF_FAST_PATH guards the
# memoized-table interval path (bitwise identical to the scalar
# kernels), _tail_probability is the scalar cdf oracle the executor
# itself uses.
from repro.core.analytic import (
    _UNIQUE_DF_FAST_PATH,
    accuracy_from_moments,
    distribution_accuracy,
)
from repro.obs.metrics import MetricsRegistry
from repro.query.executor import QueryExecutor, ResultTuple
from repro.query.expressions import Column, Literal
from repro.query.parser import CompareCondition
from repro.query.planner import prefix_fingerprint
from repro.streams.columnar import (
    ColumnarBatch,
    FloatColumn,
    GaussianDfColumn,
    IntColumn,
    as_columnar,
)
from repro.streams.tuples import UncertainTuple

__all__ = [
    "MultiQueryEngine",
    "PrefixNeedsRng",
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

_FLIP = {">": "<", ">=": "<=", "<": ">", "<=": ">="}
_VEC_OPS = frozenset(_FLIP)

#: Conservative z-space slack of the vectorized candidate screen.  The
#: screen must never reject a row the scalar oracle would accept; the
#: scalar path's ``erfc``/``erfcinv`` round-off lives many orders of
#: magnitude inside this band wherever the tail derivative is
#: non-negligible.
_Z_SLACK = 1e-3

#: Value-space slack on the PROB threshold before inverting it.  Where
#: the Gaussian tail is so flat that a z-band is meaningless (``q``
#: saturating near 0 or 1), the scalar ``0.5*erfc(z)`` can round a
#: probability across the threshold by at most a few ulp; widening tau
#: by 1e-12 before ``erfcinv`` dominates that error by three orders of
#: magnitude.
_TAU_SLACK = 1e-12

#: ``math.erfc`` underflows to exactly 0.0 somewhere near z = 26.5; by
#: z = 38 the true value (~5e-630) is unrepresentably far below the
#: smallest subnormal, so any libm returns exactly 0.0 and rejecting
#: ``z >= 38`` can never disagree with the scalar ``q > 0`` test.
_UNDERFLOW_Z = 38.0


@dataclasses.dataclass(frozen=True)
class VecConjunct:
    """One vectorizable WHERE conjunct, normalized to column-vs-constant.

    ``op`` is the effective inequality applied to the *column's*
    distribution (flipped when the literal was on the left), matching
    ``predicate_probability``'s fast path.  ``threshold`` is the PROB
    tau, or ``None`` for bare possible-world semantics.
    """

    column: str
    op: str
    constant: float
    threshold: float | None

    @property
    def gt_like(self) -> bool:
        return self.op in (">", ">=")


def vectorizable_conjuncts(compiled) -> "tuple[VecConjunct, ...] | None":
    """The residual as column-vs-literal inequalities, or None.

    A residual is screenable by the vectorized batch path when every
    conjunct is a plain comparison between one column and one literal
    under an inequality operator — the shape of the paper's
    probability-threshold workloads.  Significance predicates, OR/NOT
    trees, equality comparisons, and expression arithmetic all fall
    back to the scalar path (still sharing the prefix).
    """
    if compiled.is_aggregate or compiled.order_by is not None:
        return None
    specs: list[VecConjunct] = []
    for conj in compiled.conjuncts:
        if not isinstance(conj, CompareCondition):
            return None
        comp = conj.comparison
        if comp.op not in _VEC_OPS:
            return None
        left, right = comp.left, comp.right
        if isinstance(left, Column) and isinstance(right, Literal):
            specs.append(
                VecConjunct(
                    left.name, comp.op, float(right.value), conj.threshold
                )
            )
        elif isinstance(left, Literal) and isinstance(right, Column):
            specs.append(
                VecConjunct(
                    right.name,
                    _FLIP[comp.op],
                    float(left.value),
                    conj.threshold,
                )
            )
        else:
            return None
    return tuple(specs)


def _candidate_z_bound(spec: VecConjunct) -> float:
    """Largest ``|z|``-side bound at which a row may still qualify.

    For a gt-like conjunct a row is a candidate iff ``z <= bound``; for
    an lt-like conjunct iff ``z >= -bound`` (z measured toward the
    rejecting tail either way).  ``+inf`` means every row is a
    candidate (the scalar oracle decides), ``-inf`` means none can
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


_SUPPORTED_COLUMNS = (FloatColumn, IntColumn, GaussianDfColumn)


def _screen_arrays(column) -> "tuple[np.ndarray, np.ndarray] | None":
    """Per-row ``(mu, sqrt(2*sigma2))`` for the candidate screen.

    Deterministic columns are zero-variance: the screen's
    ``c - mu <= bound * s`` comparison then degenerates to the exact
    loose step ``c <= mu`` (gt-like) / ``c >= mu`` (lt-like), which is
    a superset of the scalar step semantics on either operand order —
    equality rows stay candidates and the scalar oracle settles them.
    """
    if isinstance(column, GaussianDfColumn):
        return column.mu, np.sqrt(2.0 * column.sigma2)
    if isinstance(column, (FloatColumn, IntColumn)):
        data = np.asarray(column.data, dtype=np.float64)
        return data, np.zeros(len(data), dtype=np.float64)
    return None


class _Entry:
    """One registered standing query inside the engine."""

    __slots__ = (
        "name",
        "source",
        "executor",
        "handle",
        "order",
        "fingerprint",
        "vec_conjuncts",
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
        self.vec_conjuncts = vectorizable_conjuncts(executor.query)
        self.group: "_PlanGroup | None" = None
        self.results_counter = None  # set by MultiQueryEngine.add


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

    The engine owns no streams and fires no callbacks: it yields
    ``(handle, ResultTuple)`` pairs in registration order and leaves
    buffering, match counting and fan-out to :class:`repro.db.
    StreamDatabase`.
    """

    def __init__(self, metrics: "MetricsRegistry | None" = None) -> None:
        if metrics is None:
            metrics = MetricsRegistry()
        self.metrics = metrics
        self._entries: dict[str, _Entry] = {}
        self._groups: dict[tuple, _PlanGroup] = {}
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
        self.telemetry = None

    def attach_telemetry(self, recorder) -> "object":
        """Cut telemetry frames as tuples are dispatched to queries.

        ``recorder`` must wrap this engine's own metrics registry —
        frames are deltas of registry snapshots, so a recorder over a
        different registry would record empty frames while the
        ``multiquery.*`` counters advance unobserved.
        """
        if recorder.registry is not self.metrics:
            from repro.errors import ObservabilityError

            raise ObservabilityError(
                "telemetry recorder must wrap the engine's metrics "
                "registry (build it with TelemetryRecorder(config, "
                "registry=engine.metrics))"
            )
        self.telemetry = recorder
        return recorder

    def detach_telemetry(self) -> None:
        self.telemetry = None

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

    def _entries_for(self, source: str) -> list[_Entry]:
        return [
            e for e in self._entries.values() if e.source == source
        ]

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

    # -- single-tuple dispatch (StreamDatabase.insert) ---------------------

    def iter_results(self, source: str, tup: UncertainTuple):
        """Yield ``(handle, result)`` per matching query, in order.

        Lazy on purpose: the caller interleaves callbacks between
        members exactly like the naive dispatch loop.  Aggregate
        standing queries raise mid-iteration, as ``execute_one`` always
        has.
        """
        cache: dict = {}
        for entry in self._entries_for(source):
            executor = entry.executor
            group = entry.group
            if group is None or len(group.entries) < 2:
                result = executor.execute_one(tup)
            else:
                if executor.query.is_aggregate:
                    executor.execute_one(tup)  # raises QueryError
                outcome = executor.residual_outcome(tup)
                if outcome is None:
                    continue
                attributes, accuracy = self._group_product(
                    group, (id(group),), tup, entry, cache
                )
                result = executor.finalize_result(
                    tup, outcome, dict(attributes), dict(accuracy)
                )
            if result is not None:
                self._record_result(entry)
                yield entry.handle, result
        if self.telemetry is not None:
            self.telemetry.advance(1)

    def _record_result(self, entry: _Entry) -> None:
        entry.results_counter.inc()
        group = entry.group
        if group is not None:
            group.results_counter.inc()

    # -- batched dispatch (StreamDatabase.insert_many) ---------------------

    def execute_batch(
        self, source: str, tuples: list[UncertainTuple]
    ) -> list[list[tuple[object, ResultTuple]]]:
        """All standing-query results for a batch, grouped per row.

        Returns one list per input row of ``(handle, result)`` pairs in
        registration order — the caller emits row by row, preserving
        the naive per-tuple callback order.
        """
        members = self._entries_for(source)
        rows: list[list[tuple[int, object, ResultTuple]]] = [
            [] for _ in tuples
        ]
        if not members:
            return [[] for _ in tuples]
        batch = as_columnar(tuples)
        cache: dict = {}
        columnar_gate: dict[int, bool] = {}

        vec_entries = [
            e
            for e in members
            if batch is not None
            and e.vec_conjuncts is not None
            and e.group is not None
            and self._columnar_eligible(e.group, batch, columnar_gate)
            and all(
                isinstance(
                    batch.column(c.column), _SUPPORTED_COLUMNS
                )
                for c in e.vec_conjuncts
            )
        ]
        vec_ids = {id(e) for e in vec_entries}
        if vec_entries:
            self._run_vectorized(vec_entries, tuples, batch, cache, rows)

        for entry in members:
            if id(entry) in vec_ids:
                continue
            self._run_scalar_member(
                entry, tuples, batch, cache, columnar_gate, rows
            )

        out: list[list[tuple[object, ResultTuple]]] = []
        by_order = {e.order: e for e in members}
        for row in rows:
            row.sort(key=lambda item: item[0])
            for order, _handle, _result in row:
                self._record_result(by_order[order])
            out.append([(handle, result) for _o, handle, result in row])
        if self.telemetry is not None:
            self.telemetry.advance(len(tuples))
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
                isinstance(batch.column(n), _SUPPORTED_COLUMNS)
                for n in needed
            )
        gate[id(group)] = ok
        return ok

    # -- vectorized members ------------------------------------------------

    def _run_vectorized(
        self,
        entries: list[_Entry],
        tuples: list[UncertainTuple],
        batch: ColumnarBatch,
        cache: dict,
        rows: list,
    ) -> None:
        candidates = self._screen_candidates(entries, batch)
        matched: dict[int, list] = {}
        group_rows: dict[int, set] = {}
        groups: dict[int, _PlanGroup] = {}
        for entry, cand in zip(entries, candidates):
            hits = []
            for b in cand:
                # The scalar oracle: byte-identity by construction.
                # These conjuncts never sample, so the member's own RNG
                # is untouched — exactly as in naive execution.
                outcome = entry.executor.residual_outcome(tuples[b])
                if outcome is not None:
                    hits.append((b, outcome))
            if not hits:
                continue
            matched[id(entry)] = hits
            gid = id(entry.group)
            groups[gid] = entry.group
            group_rows.setdefault(gid, set()).update(
                b for b, _ in hits
            )

        for gid, needed in group_rows.items():
            group = groups[gid]
            row_ids = np.fromiter(
                sorted(needed), dtype=np.intp, count=len(needed)
            )
            self._build_columnar_products(
                group, batch, tuples, row_ids, cache
            )

        for entry in entries:
            hits = matched.get(id(entry))
            if not hits:
                continue
            gid = id(entry.group)
            for b, outcome in hits:
                attributes, accuracy = cache[(gid, b)]
                result = entry.executor.finalize_result(
                    tuples[b], outcome, dict(attributes), dict(accuracy)
                )
                rows[b].append((entry.order, entry.handle, result))
            # Every result beyond one per shared product rode a shared
            # prefix computation.
        for gid, needed in group_rows.items():
            served = sum(
                len(matched.get(id(e), ()))
                for e in groups[gid].entries
                if id(e) in matched
            )
            self._shared_hits.inc(max(0, served - len(needed)))

    def _screen_candidates(
        self, entries: list[_Entry], batch: ColumnarBatch
    ) -> list[np.ndarray]:
        """Candidate row indices per entry (superset of true matches).

        Single-conjunct members are stacked per ``(column, side)``
        bucket into one ``(Q, B)`` comparison; multi-conjunct members
        AND their per-conjunct masks.  Soundness (no false rejects) is
        the only requirement — every candidate is re-run through the
        scalar oracle.
        """
        n_rows = len(batch)
        out: list[np.ndarray | None] = [None] * len(entries)
        buckets: dict[tuple[str, bool], list[tuple[int, VecConjunct]]] = {}
        multi: list[int] = []
        for i, entry in enumerate(entries):
            specs = entry.vec_conjuncts
            if len(specs) == 1:
                spec = specs[0]
                buckets.setdefault(
                    (spec.column, spec.gt_like), []
                ).append((i, spec))
            elif not specs:
                out[i] = np.arange(n_rows, dtype=np.intp)
            else:
                multi.append(i)

        for (column_name, gt_like), items in buckets.items():
            arrays = _screen_arrays(batch.column(column_name))
            mu, s = arrays
            consts = np.array(
                [spec.constant for _i, spec in items], dtype=np.float64
            )
            bounds = np.array(
                [_candidate_z_bound(spec) for _i, spec in items],
                dtype=np.float64,
            )
            q_total = len(items)
            chunk = max(1, 4_000_000 // max(n_rows, 1))
            for start in range(0, q_total, chunk):
                stop = min(start + chunk, q_total)
                with np.errstate(invalid="ignore"):
                    lhs = consts[start:stop, None] - mu[None, :]
                    scaled = bounds[start:stop, None] * s[None, :]
                    if gt_like:
                        cand = lhs <= scaled
                    else:
                        cand = lhs >= -scaled
                # Infinite bounds make 0*inf NaN on zero-variance rows;
                # the member's verdict there is uniform anyway.
                infinite = ~np.isfinite(bounds[start:stop])
                if infinite.any():
                    cand[infinite, :] = (
                        bounds[start:stop][infinite] > 0
                    )[:, None]
                mi, bi = np.nonzero(cand)
                counts = np.bincount(mi, minlength=stop - start)
                splits = np.split(bi, np.cumsum(counts)[:-1])
                for offset, rows_i in enumerate(splits):
                    out[items[start + offset][0]] = rows_i
            for i, _spec in items:
                if out[i] is None:
                    out[i] = np.empty(0, dtype=np.intp)

        for i in multi:
            mask = np.ones(n_rows, dtype=bool)
            for spec in entries[i].vec_conjuncts:
                mu, s = _screen_arrays(batch.column(spec.column))
                bound = _candidate_z_bound(spec)
                if not np.isfinite(bound):
                    if bound < 0:
                        mask[:] = False
                    continue
                lhs = spec.constant - mu
                if spec.gt_like:
                    mask &= lhs <= bound * s
                else:
                    mask &= lhs >= -bound * s
            out[i] = np.nonzero(mask)[0]
        return out  # type: ignore[return-value]

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
                    rows[b].append((entry.order, entry.handle, result))
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
            rows[b].append((entry.order, entry.handle, result))
