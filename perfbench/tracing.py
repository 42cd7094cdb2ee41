"""Per-layer timing taken from outside the program.

The benchmark never edits ``src/``: for a traced run it replaces public
methods of the program's classes with timing wrappers, and puts the
originals back afterwards.  Each wrapper opens a span on a per-thread call
stack.  A span's *self* time is its duration minus the time of the spans
opened inside it on the same thread, so the self times of all layers add up
to at most the traced wall time of each thread and nested calls are never
counted twice.  A call into a layer whose span is already innermost on the
thread (``GradientBoostingClassifier.fit`` calling ``DecisionTreeRegressor.fit``,
``execute_batch`` calling ``execute_plans``) opens no span of its own: it is
part of the outer call, which keeps call counts at the layer's entry points.

Spans are kept in memory and written out once, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

#: Marks an attribute the patched class did not define itself (it was
#: inherited), so uninstalling deletes the override instead of restoring one.
_ABSENT = object()


@dataclass
class LayerTotal:
    """Time and calls booked to one span name."""

    self_s: float = 0.0
    inclusive_s: float = 0.0
    calls: int = 0


class _Frame:
    __slots__ = ("name", "layer", "span_id", "start", "child_s")

    def __init__(self, name: str, span_id: int, start: float):
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.span_id = span_id
        self.start = start
        self.child_s = 0.0


class Tracer:
    """Spans, self times and method patches of one traced run."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patches: List[Tuple[object, str, object]] = []
        self.totals: Dict[str, LayerTotal] = {}
        #: ``(span id, parent span id or 0, thread ident, name, start, end)``.
        self.spans: List[Tuple[int, int, int, str, float, float]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the enclosed block as one call of *name* (``layer.op``)."""
        stack = self._stack()
        if stack and stack[-1].layer == name.split(".", 1)[0]:
            yield
            return
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        frame = _Frame(name, span_id, time.perf_counter())
        stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - frame.start
            parent_id = 0
            if stack:
                stack[-1].child_s += duration
                parent_id = stack[-1].span_id
            with self._lock:
                total = self.totals.setdefault(name, LayerTotal())
                total.self_s += duration - frame.child_s
                total.inclusive_s += duration
                total.calls += 1
                self.spans.append(
                    (span_id, parent_id, threading.get_ident(), name, frame.start, end)
                )

    def timed(self, fn: Callable, name: str) -> Callable:
        """*fn* wrapped so that every call is a span named *name*."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def replace(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Set ``owner.attr`` (a class or module attribute) to
        ``make(current attribute)`` until :meth:`uninstall`."""
        original = owner.__dict__.get(attr, _ABSENT)
        current = getattr(owner, attr)
        if not callable(current) or isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{owner.__name__}.{attr} is not a plain method")
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(current))

    def time_methods(self, targets: Iterable[Tuple[type, str, str]]) -> None:
        """Time each ``(class, method, span name)`` target."""
        for owner, attr, name in targets:
            self.replace(owner, attr, lambda fn, name=name: self.timed(fn, name))

    def uninstall(self) -> None:
        """Put every patched attribute back as it was, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @contextmanager
    def installed(self, install: Callable[["Tracer"], None]) -> Iterator["Tracer"]:
        """Run ``install(self)`` and undo every patch on exit, even on error."""
        try:
            install(self)
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def self_seconds(self, name: str) -> float:
        total = self.totals.get(name)
        return total.self_s if total else 0.0

    def calls(self, name: str) -> int:
        total = self.totals.get(name)
        return total.calls if total else 0

    def covered_seconds(self) -> float:
        """Sum of the self times of every span name."""
        return sum(total.self_s for total in self.totals.values())

    def dump(self, path: str) -> None:
        """Write the spans and totals as one JSON document."""
        with self._lock:
            document = {
                "fields": ["id", "parent", "thread", "name", "start", "end"],
                "spans": list(self.spans),
                "totals": {
                    name: {"self_s": t.self_s, "inclusive_s": t.inclusive_s, "calls": t.calls}
                    for name, t in sorted(self.totals.items())
                },
            }
        with open(path, "w") as handle:
            json.dump(document, handle)
