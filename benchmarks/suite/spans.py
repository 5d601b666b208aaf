"""Benchmark-owned spans: name, start, end and the span that caused
it, kept in memory.  Wrappers are put around the layers' public
functions from outside (the table is in ``boundaries.py``), so the
program under test carries no benchmark code.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, parent: Optional["Span"]):
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent
        self.attrs: Dict[str, Any] = {}

    @property
    def seconds(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


class SpanRecorder:
    """In-memory span sink; each thread keeps its own open-span stack,
    so spans of concurrent job workers never adopt each other."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._local = threading.local()

    def open(self, name: str) -> Span:
        stack = self._local.__dict__.setdefault("stack", [])
        span = Span(name, self.clock(), stack[-1] if stack else None)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._local.stack
        while stack and stack.pop() is not span:
            pass

    def drain(self) -> List[Span]:
        """Hand over the recorded spans and start afresh."""
        spans, self.spans = self.spans, []
        return spans


def children_of(spans: Iterable[Span]) -> Dict[int, List[Span]]:
    """``id(parent) -> direct children`` over *spans*."""
    index: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            index.setdefault(id(span.parent), []).append(span)
    return index


def self_seconds(span: Span, children: Iterable[Span]) -> float:
    """The span's duration minus the part of that interval its child
    spans cover (overlapping children are counted once)."""
    intervals: List[Tuple[float, float]] = sorted(
        (max(child.start, span.start), min(child.end, span.end))
        for child in children
        if child.end is not None
    )
    covered = 0.0
    cursor = span.start
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return span.seconds - covered


def descendants(span: Span, index: Dict[int, List[Span]]) -> List[Span]:
    found: List[Span] = []
    pending = list(index.get(id(span), ()))
    while pending:
        child = pending.pop()
        found.append(child)
        pending.extend(index.get(id(child), ()))
    return found


Hook = Callable[[Span, tuple, dict, Any], None]


def wrap(
    recorder: SpanRecorder,
    name: str,
    function: Callable,
    before: Optional[Hook] = None,
    after: Optional[Hook] = None,
) -> Callable:
    """*function* inside a span.  ``before(span, args, kwargs, None)``
    runs once the span is open, ``after(span, args, kwargs, result)``
    once it closed without raising; both only fill ``span.attrs``."""

    @functools.wraps(function)
    def traced(*args, **kwargs):
        span = recorder.open(name)
        if before is not None:
            before(span, args, kwargs, None)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.close(span)
        if after is not None:
            after(span, args, kwargs, result)
        return result

    traced.__wrapped_by_suite__ = True
    return traced
