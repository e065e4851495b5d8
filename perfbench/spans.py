"""In-memory spans recorded around the program's public functions.

The benchmark never edits the program.  In a traced run it replaces
functions and methods of the program, from the benchmark's own files,
with wrappers that time each call and note who called it.  Spans stay
in memory until the run ends; :func:`self_times` reduces them to the
time each span spent outside its children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

clock = time.perf_counter


class Span:
    """One timed call: name, start, end, parent span id and operation id.

    ``op`` is the id of the outermost span open on the same thread when
    this one started, so every span of one request or statement shares
    it.  ``attrs`` holds counts read from the call's arguments or result.
    """

    __slots__ = ("id", "name", "start", "end", "parent", "op", "attrs")

    def __init__(
        self,
        span_id: int,
        name: str,
        start: float,
        parent: Optional[int],
        op: int,
    ) -> None:
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.attrs: Dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_list(self) -> list:
        return [
            self.id,
            self.name,
            self.start,
            self.end,
            self.parent,
            self.op,
            self.attrs,
        ]

    @classmethod
    def from_list(cls, row: list) -> "Span":
        span = cls(row[0], row[1], row[2], row[4], row[5])
        span.end = row[3]
        span.attrs = dict(row[6])
        return span


class SpanRecorder:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent = stack[-1]
            span = Span(span_id, name, clock(), parent.id, parent.op)
        else:
            span = Span(span_id, name, clock(), None, span_id)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def add(self, name: str, start: float, end: float) -> Span:
        """Record an already-timed interval as a child of the open span."""
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            span = Span(span_id, name, start, stack[-1].id, stack[-1].op)
        else:
            span = Span(span_id, name, start, None, span_id)
        span.end = end
        self.spans.append(span)
        return span


@contextlib.contextmanager
def operation(recorder: Optional[SpanRecorder]) -> Iterator[None]:
    """Mark one measured operation (a root ``bench.op`` span) when tracing."""
    if recorder is None:
        yield
        return
    span = recorder.open("bench.op")
    try:
        yield
    finally:
        recorder.close(span)


# -- reducing spans --------------------------------------------------------


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_lo: Optional[float] = None
    cur_hi = 0.0
    for a, b in clipped:
        if cur_lo is None or a > cur_hi:
            if cur_lo is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_lo is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> its duration minus the part its children cover."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration
        - covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def has_ancestor(span: Span, name: str, by_id: Dict[int, Span]) -> bool:
    parent = by_id.get(span.parent) if span.parent is not None else None
    while parent is not None:
        if parent.name == name:
            return True
        parent = by_id.get(parent.parent) if parent.parent is not None else None
    return False


# -- wrapping the program --------------------------------------------------


def rebind_everywhere(original: Callable, replacement: Callable) -> int:
    """Rebind every module-level alias of ``original`` in the program.

    ``from x import f`` copies the function into the importer, so each
    loaded ``repro`` module that holds it is rebound, whatever the name.
    """
    count = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    return count


OnResult = Callable[[Span, tuple, dict, Any], None]


def _timed(
    recorder: SpanRecorder,
    original: Callable,
    name: str,
    on_result: Optional[OnResult],
) -> Callable:
    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span = recorder.open(name)
        try:
            out = original(*args, **kwargs)
        finally:
            recorder.close(span)
        if on_result is not None:
            on_result(span, args, kwargs, out)
        return out

    return wrapper


def wrap_function(
    recorder: SpanRecorder,
    module: str,
    attr: str,
    name: str,
    on_result: Optional[OnResult] = None,
) -> None:
    """Record a span around every call of the function ``module.attr``."""
    original = getattr(importlib.import_module(module), attr)
    rebind_everywhere(original, _timed(recorder, original, name, on_result))


def wrap_method(
    recorder: SpanRecorder,
    cls: type,
    attr: str,
    name: str,
    on_result: Optional[OnResult] = None,
) -> None:
    """Record a span around every call of method ``cls.attr``."""
    setattr(cls, attr, _timed(recorder, getattr(cls, attr), name, on_result))


class _TimedContext:
    """Times entering (and optionally leaving) a wrapped context manager."""

    def __init__(
        self, recorder: SpanRecorder, name: str, inner: Any, time_exit: bool
    ) -> None:
        self.recorder = recorder
        self.name = name
        self.inner = inner
        self.time_exit = time_exit

    def __enter__(self) -> Any:
        t0 = clock()
        try:
            return self.inner.__enter__()
        finally:
            self.recorder.add(self.name, t0, clock())

    def __exit__(self, *exc: Any) -> Any:
        if not self.time_exit:
            return self.inner.__exit__(*exc)
        t0 = clock()
        try:
            return self.inner.__exit__(*exc)
        finally:
            self.recorder.add(self.name, t0, clock())


def wrap_context_method(
    recorder: SpanRecorder, cls: type, attr: str, name: str, time_exit: bool
) -> None:
    """Record the enter (and with ``time_exit`` the exit) of ``cls.attr``,
    a method returning a context manager, as spans named ``name``."""
    original = getattr(cls, attr)

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> _TimedContext:
        return _TimedContext(recorder, name, original(*args, **kwargs), time_exit)

    setattr(cls, attr, wrapper)
