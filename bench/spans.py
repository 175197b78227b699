"""In-memory spans and per-call counters for the traced benchmark run.

A span records its name, its parent, the thread it ran on, and its start and
end on two clocks: wall time (``perf_counter``) and the thread's CPU time
(``thread_time``). Self time is measured on the CPU clock, so spans that run
concurrently on pool threads and take turns on the interpreter lock are not
charged for each other's turns, and the layer self times of a run add up to
the CPU time its threads spent inside spans.

Functions called once per panel row get a count and a summed CPU time
instead of a span each. They are charged to the innermost open span of the
calling thread, whose self time excludes them.

Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter, thread_time


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    cpu_start: float
    end: float = 0.0
    cpu_end: float = 0.0
    counted: dict[str, list[float]] = field(default_factory=dict)  # name -> [calls, cpu s]
    notes: dict[str, float] = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root: int | None = None  # parent for spans opened on other threads
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, root: bool = False):
        stack = self._stack()
        parent = stack[-1].id if stack else self._root
        span = Span(next(self._ids), name, parent, threading.get_ident(), perf_counter(), thread_time())
        if root:
            self._root = span.id
        self.spans.append(span)  # list.append is atomic under the interpreter lock
        stack.append(span)
        try:
            yield span
        finally:
            span.cpu_end = thread_time()
            span.end = perf_counter()
            stack.pop()
            if root:
                self._root = None

    def spanned(self, name, fn, note=None):
        """Wrap ``fn`` in a span; ``name`` may be a callable of the arguments,
        and ``note(args, kwargs, result)`` returns numbers to sum per layer."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label) as span:
                result = fn(*args, **kwargs)
            if note is not None:  # outside the span: not charged to the layer
                span.notes.update(note(args, kwargs, result))
            return result

        return wrapper

    def counted(self, name: str, fn):
        """Wrap a per-row function: one call count and summed CPU time."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = thread_time() - t0
                stack = self._stack()
                if stack:
                    entry = stack[-1].counted.setdefault(name, [0, 0.0])
                    entry[0] += 1
                    entry[1] += elapsed

        return wrapper

    def patch(self, owner, attr: str, wrapper) -> None:
        """Replace ``owner.attr`` (the name callers look up) until ``restore``."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]), encoding="utf-8")


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """CPU self time per span id.

    A span's CPU duration, minus the part of it covered by child spans on the
    same thread (children on other threads run on another CPU clock), minus
    the per-call time charged to it.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        parent = by_id.get(s.parent) if s.parent is not None else None
        if parent is not None and parent.thread == s.thread:
            children.setdefault(parent.id, []).append((s.cpu_start, s.cpu_end))
    out = {}
    for s in spans:
        covered = _covered(s.cpu_start, s.cpu_end, children.get(s.id, []))
        charged = sum(cpu for _, cpu in s.counted.values())
        out[s.id] = (s.cpu_end - s.cpu_start) - covered - charged
    return out


@dataclass
class Layer:
    spans: int = 0
    self_s: float = 0.0
    total_s: float = 0.0  # CPU duration including children
    notes: dict[str, float] = field(default_factory=dict)


def summarize(spans: list[Span]) -> tuple[dict[str, Layer], dict[str, list[float]]]:
    """Per span name: count, self and total CPU time, summed notes; and the
    per-call counters summed over all spans."""
    selfs = self_times(spans)
    layers: dict[str, Layer] = {}
    counted: dict[str, list[float]] = {}
    for s in spans:
        layer = layers.setdefault(s.name, Layer())
        layer.spans += 1
        layer.self_s += selfs[s.id]
        layer.total_s += s.cpu_end - s.cpu_start
        for key, value in s.notes.items():
            layer.notes[key] = layer.notes.get(key, 0.0) + value
        for key, (calls, cpu) in s.counted.items():
            entry = counted.setdefault(key, [0, 0.0])
            entry[0] += calls
            entry[1] += cpu
    return layers, counted
