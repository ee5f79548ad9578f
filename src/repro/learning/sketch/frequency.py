"""Count-Min and AMS sketches: frequency and moment estimation.

Both structures are arrays of integer counters updated by pairwise-
independent hashes of the observation, so ``merge`` is element-wise
integer addition — exactly associative *and* commutative, bit for bit.
That makes them the easy case of the determinism contract
(``docs/PARALLELISM.md``): any grouping or ordering of shard merges
yields the identical counter array.

Hashing floats deterministically is the only subtle point.  We hash the
IEEE-754 bit pattern of the float64 value via splitmix64, canonicalizing
``-0.0`` to ``+0.0`` first (``value + 0.0``) so the two zero encodings
count as one item.  The hash seeds derive from a fixed constant — no
per-instance randomness, so equal configurations always produce equal
sketches for equal inputs.

* :class:`CountMinSketch` — point frequency estimates with one-sided
  additive error ``epsilon * n`` where ``epsilon = e / width``, at
  failure probability ``exp(-depth)`` [Cormode & Muthukrishnan '05].
* :class:`AmsSketch` — the tug-of-war second-moment estimator
  [Alon, Matias & Szegedy '96]: F2 within relative error
  ``O(1/sqrt(width))``, medianed over ``depth`` rows.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import LearningError
from repro.learning.sketch.quantile import splitmix64

__all__ = ["AmsSketch", "CountMinSketch"]

_MASK = 0xFFFFFFFFFFFFFFFF


def _row_seeds(depth: int, salt: int) -> np.ndarray:
    """Fixed per-row hash seeds: a splitmix64 chain from a constant."""
    seeds = np.empty(depth, dtype=np.uint64)
    state = salt
    for row in range(depth):
        state = splitmix64(state)
        seeds[row] = state
    return seeds


def _value_bits(x: float) -> int:
    """Canonical uint64 encoding of a finite float64 observation."""
    if not math.isfinite(x):
        raise LearningError(f"sketch observations must be finite, got {x}")
    # ``+ 0.0`` folds -0.0 into +0.0.
    return int(np.float64(x + 0.0).view(np.uint64))


class CountMinSketch:
    """Approximate item frequencies in O(depth * width) integer space.

    ``estimate(x)`` never under-counts and over-counts by at most
    ``epsilon * n`` (``epsilon = e / width``) except with probability
    ``exp(-depth)``.
    """

    __slots__ = ("depth", "width", "_seeds", "counts", "n")

    _SALT = 0xC0554D1E_5EED

    def __init__(self, width: int = 1024, depth: int = 5) -> None:
        if width < 8:
            raise LearningError(f"count-min width must be >= 8, got {width}")
        if depth < 1:
            raise LearningError(f"count-min depth must be >= 1, got {depth}")
        self.depth = int(depth)
        self.width = int(width)
        self._seeds = _row_seeds(self.depth, self._SALT)
        self.counts = np.zeros((self.depth, self.width), dtype=np.int64)
        self.n = 0

    @property
    def epsilon(self) -> float:
        """Additive frequency error as a fraction of the stream length."""
        return math.e / self.width

    @property
    def delta(self) -> float:
        """Probability that :meth:`estimate` exceeds the epsilon bound."""
        return math.exp(-self.depth)

    def _columns(self, x: float) -> np.ndarray:
        bits = _value_bits(x)
        cols = np.empty(self.depth, dtype=np.int64)
        for row in range(self.depth):
            cols[row] = splitmix64((bits ^ int(self._seeds[row])) & _MASK) \
                % self.width
        return cols

    def update(self, x: float, count: int = 1) -> None:
        cols = self._columns(x)
        self.counts[np.arange(self.depth), cols] += count
        self.n += count

    def estimate(self, x: float) -> int:
        """Upper-biased frequency estimate: min over rows."""
        cols = self._columns(x)
        return int(self.counts[np.arange(self.depth), cols].min())

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        """Element-wise sum: exactly associative and commutative."""
        if not isinstance(other, CountMinSketch):
            raise LearningError(
                f"cannot merge CountMinSketch with {type(other).__name__}"
            )
        if (self.width, self.depth) != (other.width, other.depth):
            raise LearningError(
                "cannot merge count-min sketches of different shapes: "
                f"{self.depth}x{self.width} vs {other.depth}x{other.width}"
            )
        merged = CountMinSketch(self.width, self.depth)
        np.add(self.counts, other.counts, out=merged.counts)
        merged.n = self.n + other.n
        return merged

    @property
    def nbytes(self) -> int:
        return self.counts.nbytes + self._seeds.nbytes

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        meta = np.asarray([self.width, self.depth, self.n], dtype=np.int64)
        return meta, self.counts.ravel().copy()

    @classmethod
    def from_arrays(
        cls, meta: np.ndarray, counts: np.ndarray
    ) -> "CountMinSketch":
        width, depth, n = (int(v) for v in meta)
        sketch = cls(width, depth)
        sketch.counts = (
            np.asarray(counts, dtype=np.int64).reshape(depth, width).copy()
        )
        sketch.n = n
        return sketch

    def __reduce__(self):
        return (CountMinSketch.from_arrays, self.to_arrays())

    def __repr__(self) -> str:
        return (
            f"CountMinSketch({self.depth}x{self.width}, n={self.n}, "
            f"eps={self.epsilon:.4g})"
        )


class AmsSketch:
    """Tug-of-war estimator of the second frequency moment (F2).

    Each counter accumulates ``sign(x) * count`` for a 4-wise-style hash
    sign; ``second_moment`` averages squared counters within a row and
    medians across rows, giving F2 within relative error
    ``O(1/sqrt(width))`` with failure probability shrinking in depth.
    """

    __slots__ = ("depth", "width", "_seeds", "counts", "n")

    _SALT = 0xA5A5_70F5_EED5

    def __init__(self, width: int = 256, depth: int = 5) -> None:
        if width < 8:
            raise LearningError(f"AMS width must be >= 8, got {width}")
        if depth < 1:
            raise LearningError(f"AMS depth must be >= 1, got {depth}")
        self.depth = int(depth)
        self.width = int(width)
        self._seeds = _row_seeds(self.depth, self._SALT)
        self.counts = np.zeros((self.depth, self.width), dtype=np.int64)
        self.n = 0

    @property
    def relative_error(self) -> float:
        """Standard-error scale of :meth:`second_moment`."""
        return 1.0 / math.sqrt(self.width)

    def update(self, x: float, count: int = 1) -> None:
        bits = _value_bits(x)
        for row in range(self.depth):
            h = splitmix64((bits ^ int(self._seeds[row])) & _MASK)
            col = h % self.width
            sign = 1 if (h >> 32) & 1 else -1
            self.counts[row, col] += sign * count
        self.n += count

    def second_moment(self) -> float:
        """Estimated F2 = sum over items of frequency**2."""
        if self.n == 0:
            return 0.0
        row_estimates = np.mean(
            self.counts.astype(np.float64) ** 2, axis=1
        ) * self.width
        return float(np.median(row_estimates))

    def merge(self, other: "AmsSketch") -> "AmsSketch":
        """Element-wise sum: exactly associative and commutative."""
        if not isinstance(other, AmsSketch):
            raise LearningError(
                f"cannot merge AmsSketch with {type(other).__name__}"
            )
        if (self.width, self.depth) != (other.width, other.depth):
            raise LearningError(
                "cannot merge AMS sketches of different shapes: "
                f"{self.depth}x{self.width} vs {other.depth}x{other.width}"
            )
        merged = AmsSketch(self.width, self.depth)
        np.add(self.counts, other.counts, out=merged.counts)
        merged.n = self.n + other.n
        return merged

    @property
    def nbytes(self) -> int:
        return self.counts.nbytes + self._seeds.nbytes

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        meta = np.asarray([self.width, self.depth, self.n], dtype=np.int64)
        return meta, self.counts.ravel().copy()

    @classmethod
    def from_arrays(cls, meta: np.ndarray, counts: np.ndarray) -> "AmsSketch":
        width, depth, n = (int(v) for v in meta)
        sketch = cls(width, depth)
        sketch.counts = (
            np.asarray(counts, dtype=np.int64).reshape(depth, width).copy()
        )
        sketch.n = n
        return sketch

    def __reduce__(self):
        return (AmsSketch.from_arrays, self.to_arrays())

    def __repr__(self) -> str:
        return (
            f"AmsSketch({self.depth}x{self.width}, n={self.n}, "
            f"rel_err~{self.relative_error:.4g})"
        )
