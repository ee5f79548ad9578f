"""JSON persistence for distributions, tuples, and database streams.

A stream database restarts; its learned state should survive.  This
module round-trips every distribution type, :class:`DfSized` values,
uncertain tuples, and whole :class:`StreamDatabase` instances through a
plain-JSON representation (human-inspectable, versioned with a format
tag so future layouts can migrate).
"""

from __future__ import annotations

import json
import math
import pathlib
from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.dfsample import DfSized
from repro.db import StreamDatabase
from repro.distributions.base import Deterministic, Distribution
from repro.distributions.discrete import DiscreteDistribution
from repro.distributions.empirical import EmpiricalDistribution
from repro.distributions.gaussian import GaussianDistribution
from repro.distributions.histogram import HistogramDistribution
from repro.distributions.mixture import MixtureDistribution
from repro.distributions.parametric import (
    ExponentialDistribution,
    GammaDistribution,
    UniformDistribution,
    WeibullDistribution,
)
from repro.errors import ReproError
from repro.learning.kde_learner import KdeDistribution
from repro.streams.tuples import UncertainTuple

__all__ = [
    "distribution_to_dict",
    "distribution_from_dict",
    "tuple_to_dict",
    "tuple_from_dict",
    "save_database",
    "load_database",
]

FORMAT_VERSION = 1

# RFC 8259 JSON has no NaN/Infinity literals; json.dumps would emit the
# non-standard tokens ``NaN``/``Infinity`` (unreadable by strict parsers,
# and NaN breaks round-trip equality checks).  Non-finite floats are
# persisted as these sentinel strings instead, and ``save_database``
# passes ``allow_nan=False`` so any non-finite value that slips past the
# encoders raises instead of silently producing invalid JSON.
_FLOAT_SENTINELS = {"NaN": math.nan, "Infinity": math.inf,
                    "-Infinity": -math.inf}


def _encode_float(value: float) -> "float | str":
    """A float as a JSON-safe value (sentinel string when non-finite)."""
    value = float(value)
    if math.isfinite(value):
        return value
    if math.isnan(value):
        return "NaN"
    return "Infinity" if value > 0 else "-Infinity"


def _decode_float(value: object) -> float:
    """Inverse of :func:`_encode_float`."""
    if isinstance(value, str):
        try:
            return _FLOAT_SENTINELS[value]
        except KeyError:
            raise ReproError(
                f"invalid serialised float {value!r}; expected a number or "
                f"one of {sorted(_FLOAT_SENTINELS)}"
            ) from None
    return float(value)  # type: ignore[arg-type]


def _encode_floats(values: "Sequence[float] | np.ndarray") -> list:
    return [_encode_float(v) for v in values]


def _decode_floats(values: object) -> list[float]:
    return [_decode_float(v) for v in values]  # type: ignore[union-attr]


def distribution_to_dict(dist: Distribution) -> dict[str, object]:
    """Serialise any built-in distribution to plain JSON types."""
    if isinstance(dist, Deterministic):
        return {"type": "deterministic", "value": _encode_float(dist.value)}
    if isinstance(dist, GaussianDistribution):
        return {
            "type": "gaussian",
            "mu": _encode_float(dist.mu),
            "sigma2": _encode_float(dist.sigma2),
        }
    if isinstance(dist, HistogramDistribution):
        return {
            "type": "histogram",
            "edges": _encode_floats(dist.edges),
            "probabilities": _encode_floats(dist.probabilities),
        }
    if isinstance(dist, EmpiricalDistribution):
        return {"type": "empirical", "values": _encode_floats(dist.values)}
    if isinstance(dist, DiscreteDistribution):
        return {
            "type": "discrete",
            "support": _encode_floats(dist.support),
            "probabilities": _encode_floats(dist.probabilities),
        }
    if isinstance(dist, UniformDistribution):
        return {
            "type": "uniform",
            "low": _encode_float(dist.low),
            "high": _encode_float(dist.high),
        }
    if isinstance(dist, ExponentialDistribution):
        return {"type": "exponential", "lam": _encode_float(dist.lam)}
    if isinstance(dist, GammaDistribution):
        return {
            "type": "gamma",
            "k": _encode_float(dist.k),
            "theta": _encode_float(dist.theta),
        }
    if isinstance(dist, WeibullDistribution):
        return {
            "type": "weibull",
            "lam": _encode_float(dist.lam),
            "k": _encode_float(dist.k),
        }
    if isinstance(dist, KdeDistribution):
        return {
            "type": "kde",
            "points": _encode_floats(dist.points),
            "bandwidth": _encode_float(dist.bandwidth),
        }
    if isinstance(dist, MixtureDistribution):
        return {
            "type": "mixture",
            "components": [
                distribution_to_dict(c) for c in dist.components
            ],
            "weights": _encode_floats(dist.weights),
        }
    raise ReproError(
        f"cannot serialise distribution type {type(dist).__name__}"
    )


def distribution_from_dict(data: Mapping[str, object]) -> Distribution:
    """Inverse of :func:`distribution_to_dict`."""
    kind = data.get("type")
    if kind == "deterministic":
        return Deterministic(_decode_float(data["value"]))
    if kind == "gaussian":
        return GaussianDistribution(
            _decode_float(data["mu"]), _decode_float(data["sigma2"])
        )
    if kind == "histogram":
        return HistogramDistribution(
            _decode_floats(data["edges"]),
            _decode_floats(data["probabilities"]),
        )
    if kind == "empirical":
        return EmpiricalDistribution(_decode_floats(data["values"]))
    if kind == "discrete":
        return DiscreteDistribution(
            _decode_floats(data["support"]),
            _decode_floats(data["probabilities"]),
        )
    if kind == "uniform":
        return UniformDistribution(
            _decode_float(data["low"]), _decode_float(data["high"])
        )
    if kind == "exponential":
        return ExponentialDistribution(_decode_float(data["lam"]))
    if kind == "gamma":
        return GammaDistribution(
            _decode_float(data["k"]), _decode_float(data["theta"])
        )
    if kind == "weibull":
        return WeibullDistribution(
            _decode_float(data["lam"]), _decode_float(data["k"])
        )
    if kind == "kde":
        return KdeDistribution(
            np.asarray(_decode_floats(data["points"]), dtype=float),
            _decode_float(data["bandwidth"]),
        )
    if kind == "mixture":
        return MixtureDistribution(
            [distribution_from_dict(c) for c in data["components"]],  # type: ignore[union-attr]
            _decode_floats(data["weights"]),
        )
    raise ReproError(f"unknown serialised distribution type {kind!r}")


def _value_to_dict(value: object) -> dict[str, object]:
    if isinstance(value, DfSized):
        return {
            "kind": "dfsized",
            "distribution": distribution_to_dict(value.distribution),
            "sample_size": value.sample_size,
        }
    if isinstance(value, Distribution):
        return {
            "kind": "distribution",
            "distribution": distribution_to_dict(value),
        }
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return {"kind": "number", "value": _encode_float(value)}
    if isinstance(value, str):
        return {"kind": "text", "value": value}
    raise ReproError(
        f"cannot serialise attribute of type {type(value).__name__}"
    )


def _value_from_dict(data: Mapping[str, object]) -> object:
    kind = data.get("kind")
    if kind == "dfsized":
        size = data["sample_size"]
        return DfSized(
            distribution_from_dict(data["distribution"]),  # type: ignore[arg-type]
            None if size is None else int(size),  # type: ignore[arg-type]
        )
    if kind == "distribution":
        return distribution_from_dict(data["distribution"])  # type: ignore[arg-type]
    if kind == "number":
        return _decode_float(data["value"])
    if kind == "text":
        return str(data["value"])
    raise ReproError(f"unknown serialised value kind {kind!r}")


def tuple_to_dict(tup: UncertainTuple) -> dict[str, object]:
    """Serialise one uncertain tuple."""
    return {
        "attributes": {
            name: _value_to_dict(value)
            for name, value in tup.attributes.items()
        },
        "probability": tup.probability,
        "timestamp": (
            None if tup.timestamp is None else _encode_float(tup.timestamp)
        ),
    }


def tuple_from_dict(data: Mapping[str, object]) -> UncertainTuple:
    """Inverse of :func:`tuple_to_dict`."""
    attributes = {
        name: _value_from_dict(value)
        for name, value in data["attributes"].items()  # type: ignore[union-attr]
    }
    timestamp = data.get("timestamp")
    return UncertainTuple(
        attributes,
        probability=float(data.get("probability", 1.0)),  # type: ignore[arg-type]
        timestamp=None if timestamp is None else _decode_float(timestamp),
    )


def save_database(db: StreamDatabase, path: "str | pathlib.Path") -> None:
    """Write every stream's buffered tuples to a JSON file.

    Continuous queries are runtime registrations (they hold callbacks)
    and are intentionally not persisted.
    """
    payload = {
        "format": FORMAT_VERSION,
        "streams": {
            name: [tuple_to_dict(t) for t in db._streams[name].tuples]
            for name in db.streams()
        },
    }
    # allow_nan=False: every non-finite float must have gone through the
    # sentinel encoding above; a raw NaN/Infinity reaching the serialiser
    # is a bug and raises here instead of writing non-standard JSON.
    pathlib.Path(path).write_text(json.dumps(payload, allow_nan=False))


def load_database(
    path: "str | pathlib.Path",
    db: StreamDatabase | None = None,
) -> StreamDatabase:
    """Rebuild a database (or populate an existing one) from a JSON file.

    The whole file is parsed and validated into memory *before* any
    stream is created or any tuple inserted, so a malformed or truncated
    file never leaves a passed-in ``db`` half-populated: either the load
    succeeds completely or the target database is untouched.
    """
    text = pathlib.Path(path).read_text()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReproError(
            f"database file {str(path)!r} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(payload, Mapping):
        raise ReproError(
            f"database file must hold a JSON object, got "
            f"{type(payload).__name__}"
        )
    if payload.get("format") != FORMAT_VERSION:
        raise ReproError(
            f"unsupported database file format {payload.get('format')!r}"
        )
    streams = payload.get("streams")
    if not isinstance(streams, Mapping):
        raise ReproError("database file has no 'streams' object")

    # Phase 1: parse everything (no mutation of the target database).
    parsed: list[tuple[str, list[UncertainTuple]]] = []
    for name, tuples in streams.items():
        if not isinstance(tuples, list):
            raise ReproError(
                f"stream {name!r} must hold a list of tuples, got "
                f"{type(tuples).__name__}"
            )
        decoded: list[UncertainTuple] = []
        for index, data in enumerate(tuples):
            try:
                decoded.append(tuple_from_dict(data))
            except ReproError as exc:
                raise ReproError(
                    f"invalid tuple #{index} in stream {name!r}: {exc}"
                ) from exc
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                raise ReproError(
                    f"malformed tuple #{index} in stream {name!r}: {exc!r}"
                ) from exc
        parsed.append((name, decoded))

    if db is None:
        db = StreamDatabase()
    # Phase 2: validate against any declared schemas of existing streams,
    # still before mutating anything.
    for name, decoded in parsed:
        state = db._streams.get(name)
        if state is not None and state.schema is not None:
            for tup in decoded:
                state.schema.validate(tup)
    # Phase 3: commit.
    for name, decoded in parsed:
        if name not in db.streams():
            db.create_stream(name)
        db.insert_many(name, decoded)
    return db
