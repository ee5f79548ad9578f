"""KLL-style mergeable quantile sketch with deterministic compaction.

The sketch keeps a hierarchy of level buffers: level ``l`` holds items
that each represent ``2**l`` stream elements.  When the total buffered
item count exceeds the capacity budget, the lowest over-full level is
*compacted*: its buffer is sorted and every second item is promoted to
the level above, halving the buffer at the cost of a bounded rank
error.  Capacities decay geometrically from the top level
(``k * (2/3)**depth``), which is what gives KLL its O(k) space for an
O(1/k) rank-error guarantee [Karnin, Lang & Liberty, FOCS'16].

Two departures from the textbook sketch, both in service of the repo's
determinism contract (``docs/PARALLELISM.md``):

* **Seed-stable compaction.**  The even/odd promotion choice is drawn
  from a splitmix64 counter chain seeded by a fixed constant, never
  from global randomness — the sketch of a given input sequence is a
  pure function of that sequence, so a keyed sharded run stays
  byte-identical to the batched one at any worker count.
* **A self-reported error bound.**  Every compaction at level ``l``
  adds at most ``2**(l-1)`` to the worst-case rank error; the sketch
  accumulates that bound exactly (an integer) and exposes it as
  :attr:`KllSketch.epsilon` — the *actual* certified bound for the
  stream seen so far, not the asymptotic constant.  Merging sums the
  operands' bounds, so a merged sketch's certificate is equally valid.

Merge semantics: :meth:`KllSketch.merge` combines the per-level item
multisets (sorted, so operand order cannot matter) and the coin states
symmetrically, then re-compacts — merges are deterministic and exactly
commutative at the byte level; associativity holds at the guarantee
level (every grouping's result certifies its own ``epsilon``).  The
count-based structures in :mod:`repro.learning.sketch.frequency` and
:mod:`repro.learning.sketch.histogram` are exactly associative too.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_right, insort
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from repro.errors import LearningError

__all__ = ["KllItems", "KllSketch", "read_quantiles", "splitmix64"]

#: Geometric capacity decay per level below the top (the classic KLL c).
_DECAY = 2.0 / 3.0
#: Minimum per-level buffer capacity.
_MIN_CAPACITY = 2
#: Fixed seed for the compaction coin chain.  Not configurable: the
#: sketch must be a pure function of its input sequence so that sharded
#: execution is reproducible without threading a seed through learners.
_COIN_SEED = 0x9E3779B97F4A7C15


@functools.lru_cache(maxsize=1024)
def _capacities(k: int, depth: int) -> tuple[int, ...]:
    """Per-level target capacities of a ``depth``-level sketch."""
    out = []
    for level in range(depth):
        raw = k * _DECAY ** (depth - 1 - level)
        out.append(
            max(int(raw) if raw == int(raw) else int(raw) + 1, _MIN_CAPACITY)
        )
    return tuple(out)


@functools.lru_cache(maxsize=1024)
def _total_budget(k: int, depth: int) -> int:
    """Total item budget of a ``depth``-level sketch: the capacity sum.

    Cached with :func:`_capacities` per ``(k, depth)``: every update and
    every compaction step checks the budget, and both depend on nothing
    else.
    """
    return sum(_capacities(k, depth))


def splitmix64(state: int) -> int:
    """One splitmix64 step: uint64 in, uint64 out.  Pure and portable."""
    state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


class KllItems(NamedTuple):
    """The retained items of a sketch, in level order, with their weights.

    ``weights`` sum to ``n``: an item at level ``l`` stands for ``2**l``
    stream elements.
    """

    values: np.ndarray
    weights: np.ndarray
    n: int
    minimum: float
    maximum: float


def read_quantiles(reads: Sequence[KllItems], qs: np.ndarray) -> np.ndarray:
    """Quantile reads of many sketches: row ``r`` answers ``reads[r]``.

    Row ``r`` holds, for each probability ``q`` of ``qs``, the smallest
    retained item whose cumulative weight reaches ``q * n`` (the sketch
    minimum at ``q == 0`` and maximum at ``q == 1``).  One stable sort
    orders every row's items: rows are padded to a common length with
    ``+inf`` items of weight 0, which sort last and add no weight.  The
    cumulative weights of all rows then run on in one integer array,
    and each row's targets are offset by the weight of the rows before
    it.  Targets are rounded up to integers first: an integer
    cumulative weight ``c`` reaches ``t`` exactly when ``c >=
    ceil(t)``, so the offset adds no rounding.
    """
    rows = len(reads)
    width = max(read.values.size for read in reads)
    values = np.full((rows, width), np.inf)
    weights = np.zeros((rows, width), dtype=np.int64)
    for r, read in enumerate(reads):
        values[r, : read.values.size] = read.values
        weights[r, : read.weights.size] = read.weights
    order = np.argsort(values, axis=1, kind="stable")
    values = np.take_along_axis(values, order, axis=1).ravel()
    cumulative = np.cumsum(
        np.take_along_axis(weights, order, axis=1).ravel()
    )
    sizes = np.asarray([read.n for read in reads], dtype=np.int64)
    before = np.cumsum(sizes) - sizes
    targets = np.ceil(qs[None, :] * sizes[:, None].astype(float))
    indices = np.searchsorted(
        cumulative,
        (targets.astype(np.int64) + before[:, None]).ravel(),
        side="left",
    ).reshape(rows, qs.size)
    out = values[np.minimum(indices, cumulative.size - 1)]
    lowest, highest = qs == 0.0, qs == 1.0
    if lowest.any():
        out[:, lowest] = np.asarray([r.minimum for r in reads])[:, None]
    if highest.any():
        out[:, highest] = np.asarray([r.maximum for r in reads])[:, None]
    return out


class KllSketch:
    """Mergeable streaming quantiles in O(k) space.

    Parameters
    ----------
    k:
        Capacity parameter: the top-level buffer size.  Total space is
        ~``3k`` items plus two per extra level; the certified rank
        error ``epsilon`` decays as O(1/k).
    """

    __slots__ = (
        "k",
        "_levels",
        "_size",
        "n",
        "_coin",
        "_rank_error",
        "minimum",
        "maximum",
    )

    def __init__(self, k: int = 200) -> None:
        if k < 8:
            raise LearningError(f"KLL capacity k must be >= 8, got {k}")
        self.k = int(k)
        #: Level buffers, kept individually sorted; ``_levels[l]`` items
        #: each stand for ``2**l`` stream elements.
        self._levels: list[list[float]] = [[]]
        self._size = 0
        #: Total stream elements summarised (sum of item weights).
        self.n = 0
        self._coin = _COIN_SEED
        #: Accumulated worst-case rank error, in stream elements.
        self._rank_error = 0
        self.minimum = np.inf
        self.maximum = -np.inf

    # -- maintenance ---------------------------------------------------------

    def _capacity(self, level: int) -> int:
        """Target buffer capacity of ``level`` given the current depth."""
        return _capacities(self.k, len(self._levels))[level]

    def _budget(self) -> int:
        return _total_budget(self.k, len(self._levels))

    def update(self, x: float) -> None:
        """Fold one observation into the sketch (amortized O(log k))."""
        if not math.isfinite(x):
            raise LearningError(f"sketch observations must be finite, got {x}")
        insort(self._levels[0], x)
        self._size += 1
        self.n += 1
        if x < self.minimum:
            self.minimum = x
        if x > self.maximum:
            self.maximum = x
        if self._size > self._budget():
            self._compress()

    def _compress(self) -> None:
        """Compact the lowest over-full level; repeat until within budget."""
        while self._size > self._budget():
            for level, buffer in enumerate(self._levels):
                if len(buffer) > self._capacity(level):
                    self._compact_level(level)
                    break
            else:
                # Every level is within its own capacity but the sum of
                # them exceeds the budget; growing a level is impossible
                # here because the budget is the sum of capacities.
                break

    def _compact_level(self, level: int) -> None:
        """Promote every second item of ``level`` to ``level + 1``."""
        buffer = self._levels[level]
        if len(buffer) < 2:
            return
        if level + 1 == len(self._levels):
            self._levels.append([])
        # Keep at most one (odd-count) leftover at this level, promote
        # the rest pairwise.  The buffer is maintained sorted.
        if len(buffer) % 2:
            self._coin = splitmix64(self._coin)
            if self._coin & 1:
                leftover, pairs = buffer[0], buffer[1:]
            else:
                leftover, pairs = buffer[-1], buffer[:-1]
            self._levels[level] = [leftover]
        else:
            pairs = buffer
            self._levels[level] = []
        self._coin = splitmix64(self._coin)
        offset = self._coin & 1
        promoted = pairs[offset::2]
        upper = self._levels[level + 1]
        if upper:
            for item in promoted:
                insort(upper, item)
        else:
            self._levels[level + 1] = list(promoted)
        removed = len(pairs) - len(promoted)
        self._size -= removed
        # Each compaction at level l perturbs ranks by at most one item
        # weight of the level above, i.e. 2**l; the standard analysis
        # charges w/2 = 2**(l-1) per surviving boundary.
        self._rank_error += 1 << level if level else 1

    # -- queries -------------------------------------------------------------

    @property
    def epsilon(self) -> float:
        """Certified relative rank error of every quantile/rank answer.

        ``|estimated_rank(x) - true_rank(x)| <= epsilon * n`` for all x,
        by construction: the bound accumulates the exact worst-case
        perturbation of each compaction performed so far.
        """
        if self.n == 0:
            return 0.0
        return min(self._rank_error / self.n, 1.0)

    def rank(self, x: float) -> float:
        """Estimated number of stream elements ``<= x``."""
        total = 0
        for level, buffer in enumerate(self._levels):
            if buffer:
                total += bisect_right(buffer, x) << level
        return float(total)

    def cdf(self, x: float) -> float:
        return self.rank(x) / self.n if self.n else 0.0

    def quantile(self, q: float) -> float:
        """Estimated value at quantile ``q`` in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise LearningError(f"quantile must be in [0, 1], got {q}")
        return float(self.quantiles([q])[0])

    def quantiles(self, qs: "np.ndarray | list[float]") -> np.ndarray:
        """Vectorized :meth:`quantile` over ascending probabilities."""
        probe = np.asarray(qs, dtype=float).ravel()
        if probe.size and (probe.min() < 0.0 or probe.max() > 1.0):
            raise LearningError("quantiles must be in [0, 1]")
        return read_quantiles([self.items()], probe)[0]

    def items(self) -> "KllItems":
        """A detached copy of what a quantile read needs.

        The copy does not alias the level buffers, so it stays valid
        while the sketch keeps absorbing updates.
        """
        if self.n == 0:
            raise LearningError("quantile of an empty sketch")
        levels = self._levels
        return KllItems(
            np.fromiter(
                itertools.chain.from_iterable(levels),
                dtype=np.float64,
                count=self._size,
            ),
            np.repeat(
                np.left_shift(1, np.arange(len(levels), dtype=np.int64)),
                [len(buffer) for buffer in levels],
            ),
            self.n,
            self.minimum,
            self.maximum,
        )

    # -- merge ---------------------------------------------------------------

    def merge(self, other: "KllSketch") -> "KllSketch":
        """A new sketch summarising both operands' streams.

        Deterministic and exactly commutative: per-level buffers are
        combined as sorted multisets and the coin states combine
        symmetrically, so ``a.merge(b)`` and ``b.merge(a)`` are
        byte-identical.  The result's :attr:`epsilon` certificate sums
        the operands' bounds plus any merge-time compaction error.
        """
        if not isinstance(other, KllSketch):
            raise LearningError(
                f"cannot merge KllSketch with {type(other).__name__}"
            )
        if self.k != other.k:
            raise LearningError(
                f"cannot merge KLL sketches with different k: "
                f"{self.k} vs {other.k}"
            )
        merged = KllSketch(self.k)
        depth = max(len(self._levels), len(other._levels))
        merged._levels = []
        for level in range(depth):
            a = self._levels[level] if level < len(self._levels) else []
            b = other._levels[level] if level < len(other._levels) else []
            merged._levels.append(sorted(a + b))
        merged._size = sum(len(buf) for buf in merged._levels)
        merged.n = self.n + other.n
        merged._coin = splitmix64(
            (self._coin + other._coin) & 0xFFFFFFFFFFFFFFFF
        )
        merged._rank_error = self._rank_error + other._rank_error
        merged.minimum = min(self.minimum, other.minimum)
        merged.maximum = max(self.maximum, other.maximum)
        merged._compress()
        return merged

    # -- transport -----------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Retained payload size: the flattened numeric blocks."""
        meta, items = self.to_arrays()
        return meta.nbytes + items.nbytes

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Flatten into two numeric blocks (ColumnarBatch-style).

        ``meta`` is int64: ``[k, n, coin_lo, coin_hi, rank_error,
        n_levels, len(level_0), ...]`` followed by the min/max as two
        float64 values reinterpreted; ``items`` is one float64 array of
        the level buffers concatenated bottom-up.  Suitable for
        shared-memory transport — no per-item Python objects cross.
        """
        lengths = [len(buf) for buf in self._levels]
        extrema = np.asarray(
            [self.minimum, self.maximum], dtype=np.float64
        ).view(np.int64)
        meta = np.asarray(
            [
                self.k,
                self.n,
                self._coin & 0xFFFFFFFF,
                self._coin >> 32,
                self._rank_error,
                len(self._levels),
                *lengths,
                *extrema.tolist(),
            ],
            dtype=np.int64,
        )
        items = np.asarray(
            [x for buf in self._levels for x in buf], dtype=np.float64
        )
        return meta, items

    @classmethod
    def from_arrays(
        cls, meta: np.ndarray, items: np.ndarray
    ) -> "KllSketch":
        meta_list = [int(v) for v in meta]
        sketch = cls(meta_list[0])
        sketch.n = meta_list[1]
        sketch._coin = meta_list[2] | (meta_list[3] << 32)
        sketch._rank_error = meta_list[4]
        n_levels = meta_list[5]
        lengths = meta_list[6 : 6 + n_levels]
        extrema = np.asarray(
            meta_list[6 + n_levels : 8 + n_levels], dtype=np.int64
        ).view(np.float64)
        sketch.minimum = float(extrema[0])
        sketch.maximum = float(extrema[1])
        levels: list[list[float]] = []
        offset = 0
        data = np.asarray(items, dtype=np.float64)
        for length in lengths:
            levels.append(data[offset : offset + length].tolist())
            offset += length
        sketch._levels = levels if levels else [[]]
        sketch._size = sum(lengths)
        return sketch

    def __reduce__(self):
        return (KllSketch.from_arrays, self.to_arrays())

    def __len__(self) -> int:
        """Retained item count (space), not the stream length ``n``."""
        return self._size

    def __repr__(self) -> str:
        return (
            f"KllSketch(k={self.k}, n={self.n}, items={self._size}, "
            f"eps={self.epsilon:.4g})"
        )
