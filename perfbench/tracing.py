"""Span tracing from outside the program: wrap public entry points.

The benchmark's traced run replaces public functions and methods of the
``repro`` layers with thin wrappers that record one span per call —
name, start, end, parent span and batch id — into an in-memory
:class:`SpanRecorder`.  :func:`traced` installs the wrappers and always
restores the original objects, also when the run raises.  The untraced
runs never import this module's wrappers, so they execute unmodified
code.

Names bound with ``from ... import`` are wrapped where they are looked
up (e.g. ``repro.query.executor.coupled_tests``, not only
``repro.core.coupled.coupled_tests``), because the caller's module holds
its own reference.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter
from collections.abc import Callable, Iterator
from pathlib import Path

import numpy as np

NO_PARENT = -1


class SpanRecorder:
    """In-memory span log plus counters recorded at the same boundaries.

    Spans are stored column-wise (name id, start, end, parent index,
    batch id) so that recording one costs a few list appends.  Calls are
    synchronous in one thread, so open spans form a stack and each
    span's parent is the span open when it began.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.batch: list[int] = []
        self._stack: list[int] = []
        #: Identifier shared by every span of one ingest or read call.
        self.batch_id = -1
        self.counts: Counter[str] = Counter()
        #: Scratch space for observers (e.g. per-executor facts).
        self.memo: dict = {}

    def begin(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.batch.append(self.batch_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(
                f"span {self.names[self.name_id[index]]!r} closed out of "
                "order"
            )

    def __len__(self) -> int:
        return len(self.start)

    def open_name(self) -> "str | None":
        """Name of the innermost open span, if any."""
        if not self._stack:
            return None
        return self.names[self.name_id[self._stack[-1]]]

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds.

        Self time is a span's duration minus the time its child spans
        cover; children of one span never overlap because calls are
        synchronous.
        """
        if not self.start:
            return {}
        names = np.asarray(self.name_id, dtype=np.intp)
        duration = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.intp)
        has_parent = parent != NO_PARENT
        child_time = np.bincount(
            parent[has_parent],
            weights=duration[has_parent],
            minlength=len(duration),
        )
        self_time = duration - child_time
        n_names = len(self.names)
        calls = np.bincount(names, minlength=n_names)
        total = np.bincount(names, weights=duration, minlength=n_names)
        own = np.bincount(names, weights=self_time, minlength=n_names)
        return {
            name: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(own[i]),
            }
            for i, name in enumerate(self.names)
        }

    def root_seconds(self) -> float:
        """Wall time covered by spans that have no parent."""
        if not self.start:
            return 0.0
        parent = np.asarray(self.parent, dtype=np.intp)
        duration = np.asarray(self.end) - np.asarray(self.start)
        return float(duration[parent == NO_PARENT].sum())

    def write(self, path: Path) -> None:
        """Write the span log (compressed NumPy arrays + a name index)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            name_id=np.asarray(self.name_id, dtype=np.int32),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            parent=np.asarray(self.parent, dtype=np.int64),
            batch=np.asarray(self.batch, dtype=np.int64),
            names=np.asarray(json.dumps(self.names)),
        )


class _SpanIterator:
    """Times each step of a lazy generator as its own span."""

    __slots__ = ("_recorder", "_name", "_inner")

    def __init__(self, recorder: SpanRecorder, name: str, inner) -> None:
        self._recorder = recorder
        self._name = name
        self._inner = inner

    def __iter__(self) -> "_SpanIterator":
        return self

    def __next__(self):
        recorder = self._recorder
        index = recorder.begin(self._name)
        try:
            return next(self._inner)
        finally:
            recorder.finish(index)


def span_wrapper(
    recorder: SpanRecorder,
    name: "str | Callable[[tuple], str]",
    fn: Callable,
    observe: "Callable[[SpanRecorder, object, tuple], None] | None" = None,
    lazy: bool = False,
) -> Callable:
    """``fn`` recording one span per call.

    ``name`` may be a function of the call's positional arguments (for
    per-class operator spans).  ``observe(recorder, result, args)`` runs
    after the span closes and records counts.  ``lazy`` marks a
    generator function whose steps are timed one by one.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name if isinstance(name, str) else name(args)
        if lazy:
            return _SpanIterator(recorder, label, fn(*args, **kwargs))
        index = recorder.begin(label)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.finish(index)
        if observe is not None:
            observe(recorder, result, args)
        return result

    return wrapper


class Patches:
    """Attribute replacements that can always be undone exactly."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, bool, object]] = []

    def replace(self, owner: object, attribute: str, new: object) -> None:
        own = vars(owner)
        had_own = attribute in own
        original = own[attribute] if had_own else getattr(owner, attribute)
        self._saved.append((owner, attribute, had_own, original))
        setattr(owner, attribute, new)

    def restore(self) -> None:
        while self._saved:
            owner, attribute, had_own, original = self._saved.pop()
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)


@contextlib.contextmanager
def traced(recorder: SpanRecorder, targets) -> Iterator[list[str]]:
    """Install span wrappers on ``targets`` for the ``with`` body.

    ``targets`` holds ``(owner, attribute, name, observe, lazy)`` rows.
    Rows whose attribute no longer exists are skipped and their
    ``owner.attribute`` labels yielded, so the record can name layers a
    later refactor removed.  Every wrapper is removed on exit, error or
    not.
    """
    patches = Patches()
    missing: list[str] = []
    try:
        for owner, attribute, name, observe, lazy in targets:
            if not hasattr(owner, attribute):
                missing.append(f"{owner.__name__}.{attribute}")
                continue
            original = getattr(owner, attribute)
            patches.replace(
                owner,
                attribute,
                span_wrapper(recorder, name, original, observe, lazy),
            )
        yield missing
    finally:
        patches.restore()
