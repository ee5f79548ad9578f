"""Struct-of-arrays tuple batches: the columnar currency of the batch path.

The vectorized kernels (PR 1) made the *math* array-shaped, but the
operator pipeline still moved one Python :class:`UncertainTuple` object
per stream element — and the sharded path pickled every one of them over
IPC, which is exactly the per-event-object overhead Diao et al. warn
against at high volume.  A :class:`ColumnarBatch` stores one batch of
tuples as NumPy columns instead:

* ``float`` / ``int`` attributes become ``float64`` / ``int64`` columns;
* ``DfSized(GaussianDistribution, n)`` attributes — the accuracy-carrying
  workhorse of the paper's pipelines — become three parallel columns
  ``(mu, sigma2, n)`` with ``-1`` marking an exact (``None``) sample
  size;
* equal-length 1-D ``float64`` arrays (raw per-item data points) become
  one ``(batch, k)`` matrix;
* anything else falls back to a narrow *object column* (a plain list)
  for truly opaque payloads.

Membership probabilities and timestamps get their own columns.  The
batch implements the ``Sequence[UncertainTuple]`` protocol, so any
operator that only knows about tuples keeps working — ``batch[i]``
materializes one tuple on demand — while batch-aware operators read and
write columns directly and never materialize at all.

Boundary adapters are exact: ``from_tuples(to_tuples(batch)) == batch``,
and materialized tuples are *byte-identical* (per-element
``pickle.dumps``) to the tuples a tuple-list batch would have carried,
which is what lets the sharded determinism contract survive the
columnar refactor.  Exactness is why inference is deliberately strict:
a value only lands in a typed column when its round trip is the
identity (``type(x) is float``, not ``isinstance`` — a ``np.float64``
would come back as a different pickle).

Transport (:meth:`ColumnarBatch.to_payload` /
:meth:`ColumnarBatch.from_payload`) flattens a batch into its numeric
blocks so the sharded executor can ship them through the
:mod:`repro.parallel.shm` shared-memory transport as
:class:`~repro.parallel.shm.SharedSpec` handles instead of pickled
tuple lists.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.core.dfsample import DfSized
from repro.distributions.gaussian import GaussianDistribution
from repro.errors import StreamError
from repro.streams.tuples import UncertainTuple

__all__ = [
    "ColumnarBatch",
    "ColumnarPayload",
    "FloatColumn",
    "IntColumn",
    "GaussianDfColumn",
    "ArrayColumn",
    "ObjectColumn",
    "EXACT_SIZE",
    "as_columnar",
]

#: Numeric blocks smaller than this are pickled directly; shared-memory
#: segments only pay off once the copy they avoid is non-trivial.
SHM_MIN_BYTES = 4096

#: Sentinel in a :class:`GaussianDfColumn` size column for a ``None``
#: (exact / effectively infinite) sample size.
EXACT_SIZE = -1


def _as_f8(values: Sequence[float]) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


class FloatColumn:
    """A column of Python ``float`` values, stored as one f8 array."""

    kind = "f8"
    __slots__ = ("data",)

    def __init__(self, data: np.ndarray) -> None:
        self.data = data

    def __len__(self) -> int:
        return len(self.data)

    def get(self, i: int) -> float:
        return float(self.data[i])

    def values(self) -> list:
        """Materialized Python values, one per row."""
        return self.data.tolist()

    def take(self, indices: np.ndarray) -> "FloatColumn":
        return FloatColumn(self.data[indices])

    def slice(self, a: int, b: int) -> "FloatColumn":
        return FloatColumn(self.data[a:b])

    def export(self) -> tuple[object, list[np.ndarray], object]:
        return None, [self.data], None

    @staticmethod
    def restore(meta: object, arrays: list[np.ndarray], objects: object):
        return FloatColumn(arrays[0])

    @staticmethod
    def concat(parts: "list[FloatColumn]") -> "FloatColumn":
        return FloatColumn(np.concatenate([p.data for p in parts]))

    @staticmethod
    def allocate(total: int, template: "FloatColumn") -> "FloatColumn":
        return FloatColumn(np.empty(total, dtype=np.float64))

    def scatter(self, target: "FloatColumn", indices: np.ndarray) -> None:
        target.data[indices] = self.data

    def equal(self, other: "FloatColumn") -> bool:
        # Bitwise, so NaN == NaN and the round-trip property is exact.
        return (
            self.data.shape == other.data.shape
            and self.data.tobytes() == other.data.tobytes()
        )


class IntColumn:
    """A column of Python ``int`` values (int64 range), as one i8 array."""

    kind = "i8"
    __slots__ = ("data",)

    def __init__(self, data: np.ndarray) -> None:
        self.data = data

    def __len__(self) -> int:
        return len(self.data)

    def get(self, i: int) -> int:
        return int(self.data[i])

    def values(self) -> list:
        return self.data.tolist()

    def take(self, indices: np.ndarray) -> "IntColumn":
        return IntColumn(self.data[indices])

    def slice(self, a: int, b: int) -> "IntColumn":
        return IntColumn(self.data[a:b])

    def export(self) -> tuple[object, list[np.ndarray], object]:
        return None, [self.data], None

    @staticmethod
    def restore(meta: object, arrays: list[np.ndarray], objects: object):
        return IntColumn(arrays[0])

    @staticmethod
    def concat(parts: "list[IntColumn]") -> "IntColumn":
        return IntColumn(np.concatenate([p.data for p in parts]))

    @staticmethod
    def allocate(total: int, template: "IntColumn") -> "IntColumn":
        return IntColumn(np.empty(total, dtype=np.int64))

    def scatter(self, target: "IntColumn", indices: np.ndarray) -> None:
        target.data[indices] = self.data

    def equal(self, other: "IntColumn") -> bool:
        return (
            self.data.shape == other.data.shape
            and self.data.tobytes() == other.data.tobytes()
        )


class GaussianDfColumn:
    """``DfSized(GaussianDistribution(mu, sigma2), n)`` as three columns.

    This is the accuracy-carrying value of the paper's pipelines —
    learned Gaussians plus their Lemma-3 sample size — so it gets a
    first-class decomposition instead of the object-column fallback.
    ``sizes`` uses ``-1`` for an exact (``None``) sample size.
    """

    kind = "gaussian-df"
    __slots__ = ("mu", "sigma2", "sizes")

    def __init__(
        self, mu: np.ndarray, sigma2: np.ndarray, sizes: np.ndarray
    ) -> None:
        self.mu = mu
        self.sigma2 = sigma2
        self.sizes = sizes

    def __len__(self) -> int:
        return len(self.mu)

    def get(self, i: int) -> DfSized:
        size = int(self.sizes[i])
        return DfSized(
            GaussianDistribution(float(self.mu[i]), float(self.sigma2[i])),
            None if size == EXACT_SIZE else size,
        )

    def values(self) -> list:
        return [self.get(i) for i in range(len(self.mu))]

    def take(self, indices: np.ndarray) -> "GaussianDfColumn":
        return GaussianDfColumn(
            self.mu[indices], self.sigma2[indices], self.sizes[indices]
        )

    def slice(self, a: int, b: int) -> "GaussianDfColumn":
        return GaussianDfColumn(
            self.mu[a:b], self.sigma2[a:b], self.sizes[a:b]
        )

    def export(self) -> tuple[object, list[np.ndarray], object]:
        return None, [self.mu, self.sigma2, self.sizes], None

    @staticmethod
    def restore(meta: object, arrays: list[np.ndarray], objects: object):
        return GaussianDfColumn(arrays[0], arrays[1], arrays[2])

    @staticmethod
    def concat(parts: "list[GaussianDfColumn]") -> "GaussianDfColumn":
        return GaussianDfColumn(
            np.concatenate([p.mu for p in parts]),
            np.concatenate([p.sigma2 for p in parts]),
            np.concatenate([p.sizes for p in parts]),
        )

    @staticmethod
    def allocate(
        total: int, template: "GaussianDfColumn"
    ) -> "GaussianDfColumn":
        return GaussianDfColumn(
            np.empty(total, dtype=np.float64),
            np.empty(total, dtype=np.float64),
            np.empty(total, dtype=np.int64),
        )

    def scatter(
        self, target: "GaussianDfColumn", indices: np.ndarray
    ) -> None:
        target.mu[indices] = self.mu
        target.sigma2[indices] = self.sigma2
        target.sizes[indices] = self.sizes

    def equal(self, other: "GaussianDfColumn") -> bool:
        return (
            self.mu.shape == other.mu.shape
            and self.mu.tobytes() == other.mu.tobytes()
            and self.sigma2.tobytes() == other.sigma2.tobytes()
            and self.sizes.tobytes() == other.sizes.tobytes()
        )


class ArrayColumn:
    """Equal-length 1-D float64 payloads as one ``(batch, k)`` matrix.

    The Fig 5 workload's 20 raw data points per item travel here: one
    contiguous block instead of ``batch`` small array objects.
    """

    kind = "f8-matrix"
    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray) -> None:
        self.matrix = matrix

    def __len__(self) -> int:
        return len(self.matrix)

    def get(self, i: int) -> np.ndarray:
        return self.matrix[i]

    def values(self) -> list:
        return list(self.matrix)

    def take(self, indices: np.ndarray) -> "ArrayColumn":
        return ArrayColumn(self.matrix[indices])

    def slice(self, a: int, b: int) -> "ArrayColumn":
        return ArrayColumn(self.matrix[a:b])

    def export(self) -> tuple[object, list[np.ndarray], object]:
        return None, [self.matrix], None

    @staticmethod
    def restore(meta: object, arrays: list[np.ndarray], objects: object):
        return ArrayColumn(arrays[0])

    @staticmethod
    def concat(parts: "list[ArrayColumn]") -> "ArrayColumn":
        widths = {p.matrix.shape[1] for p in parts}
        if len(widths) != 1:
            raise StreamError(
                f"cannot concatenate array columns of widths {sorted(widths)}"
            )
        return ArrayColumn(np.concatenate([p.matrix for p in parts]))

    @staticmethod
    def allocate(total: int, template: "ArrayColumn") -> "ArrayColumn":
        return ArrayColumn(
            np.empty((total, template.matrix.shape[1]), dtype=np.float64)
        )

    def scatter(self, target: "ArrayColumn", indices: np.ndarray) -> None:
        target.matrix[indices] = self.matrix

    def equal(self, other: "ArrayColumn") -> bool:
        return (
            self.matrix.shape == other.matrix.shape
            and self.matrix.tobytes() == other.matrix.tobytes()
        )


class ObjectColumn:
    """Fallback column for truly opaque payloads (a plain list).

    Whatever does not decompose into numeric columns — strings, mixed
    types, non-Gaussian distributions, :class:`~repro.core.accuracy.
    AccuracyInfo` results — rides here and is pickled as-is at the IPC
    boundary.  Keeping this column *narrow* (few attributes, small
    values) is what keeps the transport fast.
    """

    kind = "object"
    __slots__ = ("data",)

    def __init__(self, data: list) -> None:
        self.data = data

    def __len__(self) -> int:
        return len(self.data)

    def get(self, i: int) -> object:
        return self.data[i]

    def values(self) -> list:
        return self.data

    def take(self, indices: np.ndarray) -> "ObjectColumn":
        data = self.data
        return ObjectColumn([data[i] for i in indices])

    def slice(self, a: int, b: int) -> "ObjectColumn":
        return ObjectColumn(self.data[a:b])

    def export(self) -> tuple[object, list[np.ndarray], object]:
        return None, [], self.data

    @staticmethod
    def restore(meta: object, arrays: list[np.ndarray], objects: object):
        return ObjectColumn(objects)

    @staticmethod
    def concat(parts: "list[ObjectColumn]") -> "ObjectColumn":
        data: list = []
        for p in parts:
            data.extend(p.data)
        return ObjectColumn(data)

    @staticmethod
    def allocate(total: int, template: "ObjectColumn") -> "ObjectColumn":
        return ObjectColumn([None] * total)

    def scatter(self, target: "ObjectColumn", indices: np.ndarray) -> None:
        data = target.data
        for value, i in zip(self.data, indices):
            data[i] = value

    def equal(self, other: "ObjectColumn") -> bool:
        if len(self.data) != len(other.data):
            return False
        return all(
            a is b or _values_equal(a, b)
            for a, b in zip(self.data, other.data)
        )


_COLUMN_TYPES = {
    cls.kind: cls
    for cls in (FloatColumn, IntColumn, GaussianDfColumn, ArrayColumn,
                ObjectColumn)
}

Column = (
    FloatColumn | IntColumn | GaussianDfColumn | ArrayColumn | ObjectColumn
)


def _values_equal(a: object, b: object) -> bool:
    """Equality that treats NaN as equal to itself (for object columns)."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (a != a and b != b)
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return (
            a.shape == b.shape
            and a.dtype == b.dtype
            and a.tobytes() == b.tobytes()
        )
    try:
        return bool(a == b)
    except Exception:  # noqa: BLE001 - arbitrary payload comparison
        return False


def _infer_column(values: list) -> Column:
    """Pick the narrowest exact representation for one attribute.

    Strictness is deliberate: a value joins a typed column only when its
    round trip is the *identity* under ``pickle`` — ``type(x) is float``
    rather than ``isinstance`` — so materialized tuples stay
    byte-identical to what a tuple-list batch would carry.
    """
    if all(type(v) is float for v in values):
        return FloatColumn(_as_f8(values))
    if all(type(v) is int for v in values):
        try:
            return IntColumn(np.array(values, dtype=np.int64))
        except OverflowError:
            return ObjectColumn(values)
    if all(
        type(v) is DfSized
        and type(v.distribution) is GaussianDistribution
        and (v.sample_size is None or type(v.sample_size) is int)
        for v in values
    ):
        try:
            sizes = np.array(
                [
                    EXACT_SIZE if v.sample_size is None else v.sample_size
                    for v in values
                ],
                dtype=np.int64,
            )
        except OverflowError:
            return ObjectColumn(values)
        return GaussianDfColumn(
            _as_f8([v.distribution.mu for v in values]),
            _as_f8([v.distribution.sigma2 for v in values]),
            sizes,
        )
    if all(
        type(v) is np.ndarray and v.ndim == 1 and v.dtype == np.float64
        for v in values
    ):
        widths = {len(v) for v in values}
        if len(widths) == 1:
            return ArrayColumn(np.array(values, dtype=np.float64))
    return ObjectColumn(values)


def _scalar_column(values: list) -> "np.ndarray | list":
    """Probability/timestamp storage: f8 array when exactly representable."""
    if all(type(v) is float for v in values):
        return _as_f8(values)
    return values


class ColumnarPayload:
    """Flattened, picklable form of a batch for the IPC boundary.

    Numeric blocks are either ndarrays (pickled — one buffer copy each)
    or :class:`~repro.parallel.shm.SharedSpec` handles into shared
    memory; object columns and non-float probability/timestamp lists
    ride as pickled Python objects.  Build with
    :meth:`ColumnarBatch.to_payload`, rebuild with
    :meth:`ColumnarBatch.from_payload`.
    """

    __slots__ = (
        "length", "names", "kinds", "metas", "counts", "blocks",
        "objects", "prob", "ts",
    )

    def __init__(
        self,
        length: int,
        names: tuple[str, ...],
        kinds: tuple[str, ...],
        metas: tuple[object, ...],
        counts: tuple[int, ...],
        blocks: list,
        objects: dict[str, object],
        prob: object,
        ts: object,
    ) -> None:
        self.length = length
        self.names = names
        self.kinds = kinds
        self.metas = metas
        self.counts = counts
        self.blocks = blocks
        self.objects = objects
        self.prob = prob
        self.ts = ts


class ColumnarBatch(Sequence):
    """One batch of uncertain tuples in struct-of-arrays layout.

    Construct with :meth:`from_tuples` (strict exact inference) or
    directly from columns (batch-aware operators building outputs).
    Behaves as an immutable ``Sequence[UncertainTuple]``; treat the
    underlying arrays as frozen — slices and ``take`` share buffers.
    """

    __slots__ = ("_length", "_names", "_columns", "_prob", "_ts")

    def __init__(
        self,
        length: int,
        names: tuple[str, ...],
        columns: dict[str, Column],
        probabilities: "np.ndarray | list | None" = None,
        timestamps: "np.ndarray | list | None" = None,
    ) -> None:
        self._length = length
        self._names = tuple(names)
        self._columns = columns
        if probabilities is None:
            probabilities = np.ones(length, dtype=np.float64)
        self._prob = probabilities
        self._ts = timestamps
        for name in self._names:
            if len(columns[name]) != length:
                raise StreamError(
                    f"column {name!r} has {len(columns[name])} rows, "
                    f"batch has {length}"
                )

    # -- boundary adapters ---------------------------------------------------

    @classmethod
    def from_tuples(
        cls, tuples: "Sequence[UncertainTuple]"
    ) -> "ColumnarBatch":
        """Columnarize a uniform tuple batch (exact round trip).

        Every tuple must carry the same attribute names in the same
        order — the layout of a stream, not of an arbitrary bag of
        tuples.  Raises :class:`StreamError` otherwise; use
        :func:`as_columnar` for a fallible conversion.
        """
        if isinstance(tuples, ColumnarBatch):
            return tuples
        tuples = list(tuples)
        if not tuples:
            return cls.empty()
        names = tuple(tuples[0].attributes.keys())
        for tup in tuples:
            if tuple(tup.attributes.keys()) != names:
                raise StreamError(
                    "columnar batches need a uniform attribute layout; got "
                    f"{tuple(tup.attributes.keys())} after {names}"
                )
        columns = {
            name: _infer_column([tup.attributes[name] for tup in tuples])
            for name in names
        }
        probabilities = _scalar_column([tup.probability for tup in tuples])
        ts_values = [tup.timestamp for tup in tuples]
        timestamps: np.ndarray | list | None
        if all(v is None for v in ts_values):
            timestamps = None
        else:
            timestamps = _scalar_column(ts_values)
        return cls(len(tuples), names, columns, probabilities, timestamps)

    @classmethod
    def empty(cls) -> "ColumnarBatch":
        return cls(0, (), {}, np.empty(0, dtype=np.float64), None)

    def to_tuples(self) -> list[UncertainTuple]:
        """Materialize every row as an :class:`UncertainTuple`."""
        return list(self)

    # -- sequence protocol ---------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def probability(self, i: int) -> float:
        value = self._prob[i]
        return float(value) if type(value) is np.float64 else value

    def timestamp(self, i: int) -> "float | None":
        if self._ts is None:
            return None
        value = self._ts[i]
        return float(value) if type(value) is np.float64 else value

    def __getitem__(self, index):
        if isinstance(index, slice):
            a, b, step = index.indices(self._length)
            if step != 1:
                raise StreamError("columnar batches support step-1 slices")
            return self.slice(a, b)
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError(index)
        attributes = {
            name: self._columns[name].get(index) for name in self._names
        }
        return UncertainTuple(
            attributes, self.probability(index), self.timestamp(index)
        )

    def __iter__(self) -> Iterator[UncertainTuple]:
        getters = [
            (name, self._columns[name].get) for name in self._names
        ]
        for i in range(self._length):
            yield UncertainTuple(
                {name: get(i) for name, get in getters},
                self.probability(i),
                self.timestamp(i),
            )

    # -- column access for batch-aware operators -----------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def probabilities(self) -> "np.ndarray | list":
        return self._prob

    @property
    def timestamps(self) -> "np.ndarray | list | None":
        return self._ts

    def column(self, name: str) -> "Column | None":
        """The named column, or ``None`` when the batch lacks it."""
        return self._columns.get(name)

    def gaussian_column(self, name: str) -> "GaussianDfColumn | None":
        """The named column if it is Gaussian-with-sample-size, else None.

        The common gate of the columnar operator fast paths: accuracy
        kernels consume ``(mu, sigma2, n)`` directly when this hits.
        """
        column = self._columns.get(name)
        return column if isinstance(column, GaussianDfColumn) else None

    def with_column(self, name: str, column: Column) -> "ColumnarBatch":
        """A new batch with ``column`` appended (or replaced) as ``name``.

        Mirrors ``UncertainTuple.with_attributes`` for whole batches:
        untouched columns are shared, not copied.
        """
        if len(column) != self._length:
            raise StreamError(
                f"column {name!r} has {len(column)} rows, "
                f"batch has {self._length}"
            )
        columns = dict(self._columns)
        columns[name] = column
        names = (
            self._names if name in self._columns else self._names + (name,)
        )
        return ColumnarBatch(
            self._length, names, columns, self._prob, self._ts
        )

    def project(self, names: Sequence[str]) -> "ColumnarBatch":
        """Keep only the named columns (shared, not copied)."""
        missing = [n for n in names if n not in self._columns]
        if missing:
            raise StreamError(f"batch has no columns {missing}")
        return ColumnarBatch(
            self._length,
            tuple(names),
            {n: self._columns[n] for n in names},
            self._prob,
            self._ts,
        )

    # -- reshaping -----------------------------------------------------------

    def slice(self, a: int, b: int) -> "ColumnarBatch":
        """Zero-copy contiguous sub-batch (the run_batched fast path)."""
        columns = {
            name: col.slice(a, b) for name, col in self._columns.items()
        }
        prob = self._prob[a:b]
        ts = self._ts[a:b] if self._ts is not None else None
        return ColumnarBatch(b - a, self._names, columns, prob, ts)

    def take(self, indices: Sequence[int]) -> "ColumnarBatch":
        """Row subset in the given order (shard partitioning)."""
        idx = np.asarray(indices, dtype=np.intp)
        columns = {
            name: col.take(idx) for name, col in self._columns.items()
        }
        if isinstance(self._prob, np.ndarray):
            prob = self._prob[idx]
        else:
            prob = [self._prob[i] for i in indices]
        ts: np.ndarray | list | None
        if self._ts is None:
            ts = None
        elif isinstance(self._ts, np.ndarray):
            ts = self._ts[idx]
        else:
            ts = [self._ts[i] for i in indices]
        return ColumnarBatch(len(idx), self._names, columns, prob, ts)

    def schema_signature(self) -> tuple:
        """Names + column kinds; two batches merge iff these match."""
        return (
            self._names,
            tuple(type(self._columns[n]).kind for n in self._names),
            isinstance(self._prob, np.ndarray),
            None if self._ts is None else isinstance(self._ts, np.ndarray),
        )

    @classmethod
    def concat(cls, batches: "Sequence[ColumnarBatch]") -> "ColumnarBatch":
        """Concatenate batches in order (``CollectSink`` chunks)."""
        parts = [b for b in batches if len(b)]
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        signature = parts[0].schema_signature()
        if any(p.schema_signature() != signature for p in parts[1:]):
            raise StreamError(
                "cannot concatenate columnar batches with different schemas"
            )
        first = parts[0]
        columns = {
            name: type(first._columns[name]).concat(
                [p._columns[name] for p in parts]
            )
            for name in first._names
        }
        if isinstance(first._prob, np.ndarray):
            prob: np.ndarray | list = np.concatenate(
                [p._prob for p in parts]
            )
        else:
            prob = [x for p in parts for x in p._prob]
        ts: np.ndarray | list | None
        if first._ts is None:
            ts = None
        elif isinstance(first._ts, np.ndarray):
            ts = np.concatenate([p._ts for p in parts])
        else:
            ts = [x for p in parts for x in p._ts]
        return cls(
            sum(len(p) for p in parts), first._names, columns, prob, ts
        )

    @classmethod
    def interleave(
        cls,
        batches: "Sequence[ColumnarBatch]",
        positions: Sequence[Sequence[int]],
        total: int,
    ) -> "ColumnarBatch":
        """Scatter shard outputs back to their global input positions.

        The columnar form of the sharded merge: each shard's rows land
        at the input indices they were computed from, reproducing the
        serial order exactly.  Requires one output per input position
        (callers verify first).
        """
        parts = [
            (batch, np.asarray(pos, dtype=np.intp))
            for batch, pos in zip(batches, positions)
            if len(batch)
        ]
        if not parts:
            return cls.empty()
        signature = parts[0][0].schema_signature()
        if any(p.schema_signature() != signature for p, _ in parts[1:]):
            raise StreamError(
                "cannot interleave columnar batches with different schemas"
            )
        first = parts[0][0]
        columns: dict[str, Column] = {}
        for name in first._names:
            kind = type(first._columns[name])
            target = kind.allocate(total, first._columns[name])
            for batch, pos in parts:
                batch._columns[name].scatter(target, pos)
            columns[name] = target
        if isinstance(first._prob, np.ndarray):
            prob: np.ndarray | list = np.empty(total, dtype=np.float64)
            for batch, pos in parts:
                prob[pos] = batch._prob
        else:
            prob = [None] * total
            for batch, pos in parts:
                for value, i in zip(batch._prob, pos):
                    prob[i] = value
        ts: np.ndarray | list | None
        if first._ts is None:
            ts = None
        elif isinstance(first._ts, np.ndarray):
            ts = np.empty(total, dtype=np.float64)
            for batch, pos in parts:
                ts[pos] = batch._ts
        else:
            ts = [None] * total
            for batch, pos in parts:
                for value, i in zip(batch._ts, pos):
                    ts[i] = value
        return cls(total, first._names, columns, prob, ts)

    # -- equality ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnarBatch):
            return NotImplemented
        if self._length != other._length or self._names != other._names:
            return False
        if self.schema_signature() != other.schema_signature():
            return False
        for name in self._names:
            if not self._columns[name].equal(other._columns[name]):
                return False
        if isinstance(self._prob, np.ndarray):
            if self._prob.tobytes() != other._prob.tobytes():
                return False
        elif not all(
            _values_equal(a, b) for a, b in zip(self._prob, other._prob)
        ):
            return False
        if self._ts is None:
            return other._ts is None
        if isinstance(self._ts, np.ndarray):
            return self._ts.tobytes() == other._ts.tobytes()
        return all(
            _values_equal(a, b) for a, b in zip(self._ts, other._ts)
        )

    __hash__ = None  # type: ignore[assignment] - mutable buffers

    def __repr__(self) -> str:
        kinds = ", ".join(
            f"{n}:{type(self._columns[n]).kind}" for n in self._names
        )
        return f"ColumnarBatch({self._length} rows; {kinds})"

    # -- IPC transport -------------------------------------------------------

    def to_payload(
        self, use_shm: bool = True
    ) -> "tuple[ColumnarPayload, list]":
        """Flatten for the IPC boundary.

        Numeric blocks of at least :data:`SHM_MIN_BYTES` are published
        as shared-memory segments (:class:`SharedSpec` handles) when
        ``use_shm``; smaller blocks and object columns pickle directly.
        Returns ``(payload, owners)`` — the caller must ``release()``
        every owner after the consuming tasks have finished (the parent
        owns segment lifetimes; see :mod:`repro.parallel.shm`).
        """
        from repro.parallel.shm import share_array

        owners: list = []
        blocks: list = []
        kinds: list[str] = []
        metas: list[object] = []
        counts: list[int] = []
        objects: dict[str, object] = {}

        def ship(array: np.ndarray) -> object:
            if use_shm and array.nbytes >= SHM_MIN_BYTES:
                shared = share_array(array)
                if shared is not None:
                    owners.append(shared)
                    return shared.spec
            return array

        for name in self._names:
            column = self._columns[name]
            meta, arrays, obj = column.export()
            kinds.append(type(column).kind)
            metas.append(meta)
            counts.append(len(arrays))
            blocks.extend(ship(a) for a in arrays)
            if obj is not None:
                objects[name] = obj
        prob = (
            ship(self._prob)
            if isinstance(self._prob, np.ndarray)
            else self._prob
        )
        ts = (
            ship(self._ts) if isinstance(self._ts, np.ndarray) else self._ts
        )
        payload = ColumnarPayload(
            self._length,
            self._names,
            tuple(kinds),
            tuple(metas),
            tuple(counts),
            blocks,
            objects,
            prob,
            ts,
        )
        return payload, owners

    @classmethod
    def from_payload(cls, payload: ColumnarPayload) -> "ColumnarBatch":
        """Rebuild a batch on the worker side of the IPC boundary.

        Shared-memory blocks are copied out (one ``memcpy`` per column)
        and the segments closed immediately, so the parent can unlink
        them as soon as every task has completed.
        """
        from repro.parallel.shm import SharedSpec, attach_array

        def load(block: object) -> np.ndarray:
            if isinstance(block, SharedSpec):
                view, segment = attach_array(block)
                array = np.array(view, copy=True)
                del view
                segment.close()
                return array
            return block  # a plain (pickled) ndarray

        blocks = iter(payload.blocks)
        columns: dict[str, Column] = {}
        for name, kind, meta, count in zip(
            payload.names, payload.kinds, payload.metas, payload.counts
        ):
            arrays = [load(next(blocks)) for _ in range(count)]
            columns[name] = _COLUMN_TYPES[kind].restore(
                meta, arrays, payload.objects.get(name)
            )
        prob = (
            load(payload.prob)
            if isinstance(payload.prob, (SharedSpec, np.ndarray))
            else payload.prob
        )
        ts = (
            load(payload.ts)
            if isinstance(payload.ts, (SharedSpec, np.ndarray))
            else payload.ts
        )
        return cls(payload.length, payload.names, columns, prob, ts)


def as_columnar(
    source: "Sequence[UncertainTuple]",
) -> "ColumnarBatch | None":
    """Columnarize when possible; ``None`` for non-uniform tuple layouts.

    The fallible twin of :meth:`ColumnarBatch.from_tuples` for callers
    with a tuple-list fallback (the sharded executor).
    """
    if isinstance(source, ColumnarBatch):
        return source
    try:
        return ColumnarBatch.from_tuples(source)
    except StreamError:
        return None
