"""Window joins over uncertain streams.

A symmetric count-window equi-join: tuples from two logical inputs are
buffered in per-side sliding windows; each arrival probes the opposite
window and emits one output tuple per key match.  Under tuple-level
uncertainty and independence across streams, the joined tuple's
membership probability is the product of the inputs' probabilities —
standard possible-world semantics for joins.

Because the engine's pipelines are linear, the join is fed through one
upstream operator with a ``side`` tag per tuple (see :class:`TagSide`),
which keeps arrival order global and deterministic.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Sequence

from repro.errors import StreamError
from repro.streams.operators import ANY_PARTITION, Operator
from repro.streams.tuples import UncertainTuple

__all__ = ["TagSide", "WindowJoin"]

_SIDE_ATTR = "__join_side__"


class TagSide(Operator):
    """Tags every tuple with a join side ('left' or 'right').

    Use two of these when merging two physical sources into the single
    stream a :class:`WindowJoin` consumes.
    """

    partition_key = ANY_PARTITION
    one_output_per_input = True

    def __init__(self, side: str) -> None:
        super().__init__()
        if side not in ("left", "right"):
            raise StreamError(f"join side must be 'left' or 'right', got {side!r}")
        self.side = side

    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        out = []
        for tup in tuples:
            attributes = dict(tup.attributes)
            attributes[_SIDE_ATTR] = self.side
            out.append(tup.with_attributes(attributes))
        self.emit_many(out)


class WindowJoin(Operator):
    """Symmetric sliding-window equi-join of a side-tagged stream.

    Parameters
    ----------
    key:
        Attribute name both sides join on (compared with ``==``).
    window_size:
        Per-side count window: each side retains its most recent
        ``window_size`` tuples.
    prefix_left / prefix_right:
        Output attribute prefixes; every non-key attribute is emitted as
        ``<prefix><name>`` so same-named attributes from the two sides
        never collide.  The key is emitted once, unprefixed.
    side_of:
        Optional override: a callable mapping a tuple to 'left'/'right'.
        Defaults to reading the tag set by :class:`TagSide`.
    """

    def __init__(
        self,
        key: str,
        window_size: int,
        prefix_left: str = "l_",
        prefix_right: str = "r_",
        side_of: Callable[[UncertainTuple], str] | None = None,
    ) -> None:
        super().__init__()
        if window_size < 1:
            raise StreamError(
                f"window size must be >= 1, got {window_size}"
            )
        if prefix_left == prefix_right:
            raise StreamError("join prefixes must differ")
        self.key = key
        self.window_size = window_size
        self.prefix_left = prefix_left
        self.prefix_right = prefix_right
        self.side_of = side_of
        self._windows: dict[str, deque[UncertainTuple]] = {
            "left": deque(), "right": deque(),
        }
        self.matches = 0

    def _side(self, tup: UncertainTuple) -> str:
        if self.side_of is not None:
            side = self.side_of(tup)
        else:
            side = tup.attributes.get(_SIDE_ATTR)  # type: ignore[assignment]
        if side not in ("left", "right"):
            raise StreamError(
                "WindowJoin received an untagged tuple; route sources "
                "through TagSide or pass side_of"
            )
        return side

    def _strip(self, tup: UncertainTuple) -> dict[str, object]:
        return {
            name: value
            for name, value in tup.attributes.items()
            if name != _SIDE_ATTR
        }

    def _merge(
        self, left: UncertainTuple, right: UncertainTuple
    ) -> UncertainTuple:
        attributes: dict[str, object] = {self.key: left.value(self.key)}
        for name, value in self._strip(left).items():
            if name != self.key:
                attributes[self.prefix_left + name] = value
        for name, value in self._strip(right).items():
            if name != self.key:
                attributes[self.prefix_right + name] = value
        return UncertainTuple(
            attributes,
            probability=left.probability * right.probability,
            timestamp=left.timestamp
            if right.timestamp is None else right.timestamp,
        )

    def process_many(self, tuples: Sequence[UncertainTuple]) -> None:
        out = []
        for tup in tuples:
            side = self._side(tup)
            other = "right" if side == "left" else "left"
            key_value = tup.value(self.key)

            for candidate in self._windows[other]:
                if candidate.value(self.key) == key_value:
                    self.matches += 1
                    if side == "left":
                        out.append(self._merge(tup, candidate))
                    else:
                        out.append(self._merge(candidate, tup))

            window = self._windows[side]
            window.append(tup)
            if len(window) > self.window_size:
                window.popleft()
        self.emit_many(out)
