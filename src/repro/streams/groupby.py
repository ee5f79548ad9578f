"""Grouped aggregation over uncertain streams.

``GroupedAggregate`` maintains one count-based sliding window per group
key and emits, on every arrival, the updated aggregate tuple for that
group.  Aggregates over distribution-valued attributes follow the same
moment algebra as :class:`~repro.streams.operators.WindowAggregate`
(sum/avg propagate mean and variance under independence; the output
carries the group's minimum input sample size per Lemma 3), so accuracy
information can be attached downstream exactly as for any other field.
Each group's window rides the rolling kernels of
:mod:`repro.streams.rolling`, so every slide is O(1) amortized.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

from repro.errors import StreamError
from repro.streams.columnar import ColumnarBatch
from repro.streams.operators import (
    _MOMENT_AGGS,
    _SCALAR_AGGS,
    Operator,
    _aggregate_column,
    _aggregate_value,
    _read_moments,
)
from repro.streams.rolling import (
    DEFAULT_RESUM_INTERVAL,
    ChunkedWindowStats,
    RollingWindowStats,
)
from repro.streams.tuples import UncertainTuple

__all__ = ["GroupedAggregate"]

_SYNOPSES = ("exact", "chunked")


class GroupedAggregate(Operator):
    """Per-group sliding aggregate: GROUP BY key over the last N tuples.

    Parameters
    ----------
    key:
        Grouping attribute (hashable values).
    attribute:
        The aggregated attribute (distribution-valued or numeric).
    window_size:
        Per-group count window.
    agg:
        One of avg / sum / count / min / max.
    output:
        Output attribute name (defaults to the aggregate name).
    emit_every:
        When True (default) an updated aggregate tuple is emitted per
        arrival; when False only :meth:`flush` emits one tuple per group
        (a "final answer per group" mode for bounded replays).
    resum_interval:
        Evictions between drift-guard re-sums of each group's running
        sums (see :class:`~repro.streams.rolling.RollingWindowStats`).
    expire_after:
        Global-arrival TTL: a group member expires once this many
        further tuples (of *any* key) have arrived, and a group whose
        window fully drains is reclaimed — state and all.  Without it,
        per-key state lives forever, which is unbounded under a
        churning key space.  ``None`` (default) keeps the historical
        keep-forever behavior.
    synopsis:
        ``"exact"`` (default) buffers every window member per group
        (:class:`~repro.streams.rolling.RollingWindowStats`, O(window)
        per key); ``"chunked"`` keeps bounded chunk statistics instead
        (:class:`~repro.streams.rolling.ChunkedWindowStats`, ~O(1) per
        key at a quantified staleness) — the memory mode for GROUP BY
        over very large key spaces (docs/SKETCHES.md).
    """

    rolling_metrics = True
    memory_metrics = True

    def __init__(
        self,
        key: str,
        attribute: str,
        window_size: int,
        agg: str = "avg",
        output: str | None = None,
        emit_every: bool = True,
        resum_interval: int = DEFAULT_RESUM_INTERVAL,
        expire_after: int | None = None,
        synopsis: str = "exact",
    ) -> None:
        super().__init__()
        if agg not in _SCALAR_AGGS:
            raise StreamError(
                f"unknown aggregate {agg!r}; expected one of {_SCALAR_AGGS}"
            )
        if window_size < 1:
            raise StreamError(f"window size must be >= 1, got {window_size}")
        if expire_after is not None and expire_after < 1:
            raise StreamError(
                f"expire_after must be >= 1, got {expire_after}"
            )
        if synopsis not in _SYNOPSES:
            raise StreamError(
                f"unknown synopsis {synopsis!r}; expected {_SYNOPSES}"
            )
        self.key = key
        self.attribute = attribute
        self.window_size = window_size
        self.agg = agg
        self.output = output if output is not None else agg
        self.emit_every = emit_every
        self.resum_interval = resum_interval
        self.expire_after = expire_after
        self.synopsis = synopsis
        self._groups: dict[object, RollingWindowStats] = {}
        #: TTL bookkeeping: (expiry arrival index, key) per pushed
        #: member, plus per-key credits for members the per-group window
        #: already evicted ahead of their TTL (so they are not evicted
        #: twice).
        self._ttl: deque[tuple[int, object]] | None = (
            deque() if expire_after is not None else None
        )
        self._early: dict[object, int] = {}
        self._arrivals = 0

    #: With ``emit_every``; otherwise :attr:`partition_key` refuses.
    one_output_per_input = True

    @property
    def partition_key(self) -> str | None:  # type: ignore[override]
        """The group key; with a TTL or flush-only, the whole stream.

        The TTL clock counts arrivals of every key, so a shard that
        sees only its own keys would expire members on another schedule.
        Without ``emit_every`` the flush emits every group sorted by
        key, an order that no per-shard flush reproduces.
        """
        if self.expire_after is None and self.emit_every:
            return self.key
        return None

    def _sync_rolling_metrics(self) -> None:
        obs = self._obs
        if obs is None:
            for stats in self._groups.values():
                stats.set_metrics(None, None)
        else:
            for stats in self._groups.values():
                stats.set_metrics(obs.rolling_resums, obs.rolling_drift)

    def _group_stats(self, group_key: object) -> RollingWindowStats:
        stats = self._groups.get(group_key)
        if stats is None:
            if self.synopsis == "chunked":
                stats = ChunkedWindowStats(self.resum_interval)
            else:
                stats = RollingWindowStats(
                    self.resum_interval,
                    track_extrema=self.agg in ("min", "max"),
                )
            obs = self._obs
            if obs is not None:
                stats.set_metrics(obs.rolling_resums, obs.rolling_drift)
            self._groups[group_key] = stats
        return stats

    def _after_push(self, group_key: object, stats) -> None:
        """Window eviction + TTL bookkeeping for one pushed member."""
        if stats.count > self.window_size:
            stats.evict_oldest()
            if self._ttl is not None:
                self._early[group_key] = self._early.get(group_key, 0) + 1
        ttl = self._ttl
        if ttl is None:
            return
        self._arrivals += 1
        ttl.append((self._arrivals + self.expire_after, group_key))
        arrivals = self._arrivals
        early = self._early
        groups = self._groups
        while ttl and ttl[0][0] <= arrivals:
            _, expired_key = ttl.popleft()
            credit = early.get(expired_key)
            if credit:
                if credit == 1:
                    del early[expired_key]
                else:
                    early[expired_key] = credit - 1
                continue
            expired = groups.get(expired_key)
            if expired is None:
                continue
            expired.evict_oldest()
            if expired.count == 0:
                # Fully drained: reclaim the per-key state.  Remaining
                # TTL entries for this key (if any) are exactly covered
                # by its surviving early-eviction credits.
                del groups[expired_key]

    def _aggregate(self, group_key: object) -> UncertainTuple:
        value = _aggregate_value(self._groups[group_key], self.agg)
        return UncertainTuple({self.key: group_key, self.output: value})

    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        # Keys and moments are read for the whole batch first, so a bad
        # row raises before any group's window slides.
        key = self.key
        columnar = isinstance(tuples, ColumnarBatch)
        key_column = tuples.column(key) if columnar else None
        keys = (
            key_column.values()
            if key_column is not None
            else [tup.value(key) for tup in tuples]
        )
        rows = _read_moments(tuples, self.attribute, columnar)
        agg = self.agg
        emit_every = self.emit_every
        moments = key_column is not None and agg in _MOMENT_AGGS
        group_stats = self._group_stats
        after_push = self._after_push
        records = []
        for group_key, row in zip(keys, rows):
            stats = group_stats(group_key)
            stats.push(*row)
            after_push(group_key, stats)
            if not emit_every:
                continue
            if moments:
                record = stats.moments()
                if record[0] - record[0] or record[1] - record[1]:
                    _aggregate_value(stats, agg)  # inf or NaN: raises
            else:
                record = _aggregate_value(stats, agg)
            records.append(record)
        if not records:
            return
        output = self.output
        if key_column is not None:
            # The output tuple is {key, output} with default
            # probability/timestamp, exactly as ``_aggregate`` builds
            # it — the key column is reused as-is.
            self.emit_many(
                ColumnarBatch(
                    len(tuples),
                    (key, output),
                    {
                        key: key_column,
                        output: _aggregate_column(records, agg),
                    },
                )
            )
            return
        self.emit_many(
            [
                UncertainTuple({key: group_key, output: value})
                for group_key, value in zip(keys, records)
            ]
        )

    def on_flush(self) -> None:
        if not self.emit_every:
            self.emit_many(
                [
                    self._aggregate(group_key)
                    for group_key in sorted(self._groups, key=str)
                ]
            )

    @property
    def group_count(self) -> int:
        return len(self._groups)

    def state_bytes(self) -> int:
        """Retained per-key state, for the ``state.bytes`` gauge."""
        total = 96 * len(self._groups)  # dict slots + key objects
        for stats in self._groups.values():
            total += stats.nbytes
        if self._ttl is not None:
            total += 64 * len(self._ttl) + 96 * len(self._early)
        return total
