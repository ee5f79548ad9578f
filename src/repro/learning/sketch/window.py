"""Sliding-window wrapper over mergeable synopses.

A sketch cannot delete: none of :class:`~repro.learning.sketch.quantile.
KllSketch`, Count-Min, or the histogram synopsis supports removing an
observation.  :class:`SketchWindowState` recovers sliding-window
semantics the standard way — by *chunking*: the window is a ring of
sub-synopses, new observations fill the newest chunk, and eviction
drops whole chunks from the old end once every observation in them has
logically expired.  Between chunk drops, expired-but-retained
observations are accounted for as :attr:`SketchWindowState.staleness`
(their fraction of the retained mass), which the learner folds into the
reported synopsis error — the approximation is quantified, never
silent.

Memory stays bounded for *any* window size without knowing it up front:
when the ring exceeds ``2 * chunk_count`` chunks, adjacent chunks are
pair-merged and the chunk size doubles, so the ring oscillates between
``chunk_count`` and ``2 * chunk_count`` chunks forever — O(chunk_count
x synopsis size) total, while staleness stays below roughly
``1 / chunk_count``.

Each chunk also carries *exact* Welford moments and extrema of its own
observations, combined across chunks with Chan's parallel formula — so
mean/variance intervals never pay the sketch's shape error, only the
staleness of the not-yet-dropped tail.

The state duck-types what :class:`~repro.streams.operators.
RollingLearnOperator` needs from a partial-fit state (``set_metrics``
is a no-op — there is no drift guard to bind, every statistic here is
add-only) and sets no learner-visible randomness: all structure is a
pure function of the observation sequence, preserving the sharded
determinism contract.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from repro.errors import LearningError

__all__ = ["DEFAULT_CHUNK_COUNT", "SketchWindowState"]

#: Target ring size: the ring holds between this and twice this many
#: chunks, bounding staleness near ``1 / DEFAULT_CHUNK_COUNT``.
DEFAULT_CHUNK_COUNT = 16


class _Chunk:
    """One sub-synopsis plus exact statistics of its observations."""

    __slots__ = ("synopsis", "count", "mean", "m2", "minimum", "maximum")

    def __init__(self, synopsis: object) -> None:
        self.synopsis = synopsis
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, x: float) -> None:
        self.synopsis.update(x)
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)
        if x < self.minimum:
            self.minimum = x
        if x > self.maximum:
            self.maximum = x

    def merged_with(self, other: "_Chunk") -> "_Chunk":
        """Chan's parallel combine; ``self`` is the older chunk."""
        out = _Chunk(self.synopsis.merge(other.synopsis))
        n = self.count + other.count
        out.count = n
        if n:
            delta = other.mean - self.mean
            out.mean = self.mean + delta * other.count / n
            out.m2 = (
                self.m2
                + other.m2
                + delta * delta * self.count * other.count / n
            )
        out.minimum = min(self.minimum, other.minimum)
        out.maximum = max(self.maximum, other.maximum)
        return out


class SketchWindowState:
    """Bounded-memory rolling state over a mergeable synopsis.

    Parameters
    ----------
    factory:
        Zero-argument callable producing an empty synopsis (must expose
        ``update``/``merge``/``nbytes``).  Must be picklable — learners
        pass a bound method, never a lambda, because operator state
        ships to shard workers inside the pickled pipeline.
    chunk_count:
        Ring-size target; live chunks stay in
        ``[chunk_count, 2 * chunk_count]``.
    chunk_size:
        Initial observations per chunk; doubles whenever the ring
        overflows, adapting to the (unknown) window size.
    """

    __slots__ = ("_factory", "chunk_count", "chunk_size", "_chunks",
                 "pending", "_retained", "_version", "_frozen",
                 "_frozen_version", "_sealed", "_sealed_version",
                 "_totals", "_merged", "_memo_key")

    #: Derived caches: rebuilt from the chunks on demand, so they are
    #: left out of pickles and deep copies (see ``__getstate__``).
    _MEMO_SLOTS = ("_frozen", "_frozen_version", "_sealed",
                   "_sealed_version", "_totals", "_merged", "_memo_key")

    def __init__(
        self,
        factory: Callable[[], object],
        chunk_count: int = DEFAULT_CHUNK_COUNT,
        chunk_size: int = 512,
    ) -> None:
        if chunk_count < 2:
            raise LearningError(
                f"chunk count must be >= 2, got {chunk_count}"
            )
        if chunk_size < 1:
            raise LearningError(
                f"chunk size must be >= 1, got {chunk_size}"
            )
        self._factory = factory
        self.chunk_count = int(chunk_count)
        self.chunk_size = int(chunk_size)
        self._chunks: list[_Chunk] = []
        #: Evictions requested but not yet materialized as chunk drops.
        self.pending = 0
        self._retained = 0
        self._version = 0
        self._clear_memos()

    def _clear_memos(self) -> None:
        #: Sealed-prefix synopsis merge and Chan fold, valid while
        #: ``_version`` is unchanged (only the active chunk grows).
        self._frozen = None
        self._frozen_version = -1
        self._sealed = None
        self._sealed_version = -1
        #: Whole-ring reads, valid for one ring state (``_memo_key``).
        self._totals = None
        self._merged = None
        self._memo_key = None

    def __getstate__(self) -> dict[str, object]:
        return {
            name: getattr(self, name)
            for name in self.__slots__
            if name not in self._MEMO_SLOTS
        }

    def __setstate__(self, state: dict[str, object]) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._clear_memos()

    # -- maintenance ---------------------------------------------------------

    def add(self, x: float) -> None:
        chunks = self._chunks
        if not chunks or chunks[-1].count >= self.chunk_size:
            chunks.append(_Chunk(self._factory()))
            self._version += 1
            if len(chunks) > 2 * self.chunk_count:
                self._double()
        chunks[-1].add(x)
        self._retained += 1

    def evict(self) -> None:
        """Logically expire the oldest live observation.

        The value itself is irrelevant (eviction is FIFO by
        construction); the oldest chunk is dropped once every one of its
        observations has expired.  The newest chunk is never dropped —
        with a window size >= 1 it always holds live observations.
        """
        self.pending += 1
        chunks = self._chunks
        while len(chunks) > 1 and self.pending >= chunks[0].count:
            dropped = chunks.pop(0)
            self.pending -= dropped.count
            self._retained -= dropped.count
            self._version += 1

    def _double(self) -> None:
        """Pair-merge adjacent chunks, oldest first; double chunk size."""
        chunks = self._chunks
        merged: list[_Chunk] = []
        for i in range(0, len(chunks) - 1, 2):
            merged.append(chunks[i].merged_with(chunks[i + 1]))
        if len(chunks) % 2:
            merged.append(chunks[-1])
        self._chunks = merged
        self.chunk_size *= 2
        self._version += 1

    # -- statistics ----------------------------------------------------------

    @property
    def count(self) -> int:
        """Live (logical) window fill: retained minus pending-evicted."""
        return self._retained - self.pending

    @property
    def staleness(self) -> float:
        """Fraction of retained mass that has already logically expired.

        Every estimate read off the synopsis includes this expired tail;
        it bounds the resulting probability-unit error and is folded
        into the reported synopsis error by the learner layer.
        """
        return self.pending / self._retained if self._retained else 0.0

    def moments(self) -> tuple[float, float, int]:
        """Exact ``(mean, unbiased variance, n)`` of the retained mass.

        Combined across chunks with Chan's formula, oldest to newest —
        deterministic and independent of chunk boundaries up to the
        usual floating-point association of the merge tree.  The sealed
        prefix is folded once per ring change, so a read folds only the
        active chunk onto it (the same left-to-right order).
        """
        n = self._retained
        if n < 2:
            raise LearningError(
                f"sample variance needs >= 2 observations, got {n}"
            )
        totals = self._window_totals()
        return totals.mean, max(totals.m2 / (n - 1), 0.0), n

    @property
    def minimum(self) -> float:
        return self._window_totals().minimum if self._chunks else math.inf

    @property
    def maximum(self) -> float:
        return self._window_totals().maximum if self._chunks else -math.inf

    @property
    def value_range(self) -> float:
        """Spread of the retained observations (0 for empty/constant)."""
        if not self._chunks:
            return 0.0
        spread = self.maximum - self.minimum
        return spread if spread > 0.0 else 0.0

    def merged(self) -> object:
        """One synopsis summarising every retained observation.

        The sealed prefix (all chunks but the newest) is merged once and
        cached until the ring changes; a read merges that cache with the
        small active chunk, and the result is kept for the current ring
        state, so every read between two ring changes shares one merge.
        """
        chunks = self._chunks
        if not chunks:
            raise LearningError("merged synopsis of an empty window")
        self._sync_memo()
        if self._merged is None:
            if len(chunks) == 1:
                # Callers treat the result as read-only; with a single
                # chunk the live synopsis is returned without a
                # defensive merge.  The next add mutates it, so a
                # reader copies whatever it keeps past that (the
                # learners' emission snapshots do).
                self._merged = chunks[0].synopsis
            else:
                if self._frozen_version != self._version:
                    frozen = chunks[0].synopsis
                    for chunk in chunks[1:-1]:
                        frozen = frozen.merge(chunk.synopsis)
                    self._frozen = frozen
                    self._frozen_version = self._version
                self._merged = self._frozen.merge(chunks[-1].synopsis)
        return self._merged

    def _sync_memo(self) -> None:
        """Drop whole-ring reads cached for an earlier ring state.

        ``(version, retained)`` changes on every add, chunk drop and
        ring doubling, and not on an evict that only counts — which
        leaves every retained synopsis and statistic untouched.
        """
        key = (self._version, self._retained)
        if self._memo_key != key:
            self._memo_key = key
            self._totals = None
            self._merged = None

    def _window_totals(self) -> _Chunk:
        """Chan fold of every chunk's moments and extrema (no synopsis)."""
        self._sync_memo()
        if self._totals is None:
            chunks = self._chunks
            if len(chunks) == 1:
                self._totals = chunks[0]
            else:
                if self._sealed_version != self._version:
                    sealed = chunks[0]
                    for chunk in chunks[1:-1]:
                        sealed = _combine_moments(sealed, chunk)
                    self._sealed = sealed
                    self._sealed_version = self._version
                self._totals = _combine_moments(self._sealed, chunks[-1])
        return self._totals

    # -- operator plumbing ---------------------------------------------------

    def set_metrics(self, resums_counter, drift_histogram) -> None:
        """No drift guard to bind: all statistics here are add-only."""

    @property
    def nbytes(self) -> int:
        """Approximate retained bytes: synopses + per-chunk bookkeeping."""
        return sum(
            chunk.synopsis.nbytes + 6 * 8 for chunk in self._chunks
        ) + 7 * 8

    def __len__(self) -> int:
        return self.count


def _combine_moments(a: _Chunk, b: _Chunk) -> _Chunk:
    """Chan combine of the moment fields only (no synopsis merge)."""
    out = _Chunk.__new__(_Chunk)
    out.synopsis = None
    n = a.count + b.count
    out.count = n
    delta = b.mean - a.mean
    out.mean = a.mean + delta * b.count / n if n else 0.0
    out.m2 = a.m2 + b.m2 + (
        delta * delta * a.count * b.count / n if n else 0.0
    )
    out.minimum = min(a.minimum, b.minimum)
    out.maximum = max(a.maximum, b.maximum)
    return out
