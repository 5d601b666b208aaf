"""Trace context: correlation ids threaded through runs, jobs, workers.

Every run (or job) gets a :class:`TraceContext` carrying a
``trace_id`` — a 16-hex-digit random id minted once at the outermost
entry point (``JobService._execute`` for HTTP jobs,
``MiningSystem.run``/``refresh`` for direct calls) — plus the optional
``job_id``/``run_id`` correlators.  The context is installed in a
thread-local (:func:`activated`), so everything downstream — spans,
JSON log lines, slow-query entries, run-history records — picks the
ids up without plumbing them through every signature.  Threads are the
right scope: concurrent job workers each activate their own context,
while the engine work a job performs stays on the worker's thread.

Child shard processes cannot see the parent's thread-local.  The
trace id travels to them through the pool initializer
(:mod:`repro.parallel`), and each worker records its spans into a
:class:`ChildTracer` — a dependency-free event list with the worker's
pid and a *wall-clock origin*.  The parent cannot compare
``time.perf_counter()`` values across processes (the epoch is
per-process on some platforms), so child events carry offsets relative
to the child's own perf origin, and the export bundle pins that origin
to ``time.time()``; the parent tracer aligns the bundle into its own
timeline through the wall-clock delta (:meth:`Tracer.splice
<repro.obs.spans.Tracer.splice>`).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id (random, collision-negligible)."""
    return uuid.uuid4().hex[:16]


@dataclass
class TraceContext:
    """The correlation ids of one logical run."""

    trace_id: str
    #: job id when the run executes inside the job service
    job_id: Optional[str] = None
    #: the system's 1-based execution number, set once the run starts
    run_id: Optional[int] = None

    def fields(self) -> Dict[str, Any]:
        """The non-None ids, ready to merge into a log record."""
        out: Dict[str, Any] = {"trace_id": self.trace_id}
        if self.job_id is not None:
            out["job_id"] = self.job_id
        if self.run_id is not None:
            out["run_id"] = self.run_id
        return out


_active = threading.local()


def current() -> Optional[TraceContext]:
    """The context active on this thread (None outside any run)."""
    return getattr(_active, "context", None)


@contextmanager
def activated(context: TraceContext) -> Iterator[TraceContext]:
    """Install *context* as this thread's active context for the block.

    Nested activations stack: the previous context is restored on
    exit, so a job that triggers a nested run keeps its own ids."""
    previous = getattr(_active, "context", None)
    _active.context = context
    try:
        yield context
    finally:
        _active.context = previous


@contextmanager
def ensure(**fields: Any) -> Iterator[TraceContext]:
    """The active context, or a freshly minted one for the block.

    The entry-point helper: outermost callers (a direct
    ``MiningSystem.run``) get a new trace id; nested ones (the same
    run reached through the job service, which already activated a
    context) reuse what is active."""
    context = current()
    if context is not None:
        yield context
        return
    with activated(TraceContext(trace_id=new_trace_id(), **fields)) as ctx:
        yield ctx


class ChildTracer:
    """Minimal span recorder for shard worker processes.

    Workers cannot append to the parent's :class:`Tracer` — they run
    in another process.  Instead each phase function records its spans
    here and ships :meth:`export` back with the shard result; the
    parent splices the events under the phase span.  Events carry
    starts relative to the worker's own ``perf_counter`` origin plus
    per-span CPU time (``time.process_time`` is per-process, so in a
    single-task worker the delta is genuinely the span's CPU).
    """

    def __init__(self, trace_id: Optional[str] = None):
        self.trace_id = trace_id
        self.pid = os.getpid()
        #: wall-clock instant of the perf origin — the cross-process
        #: alignment anchor (perf_counter epochs differ per process)
        self.wall_origin = time.time()
        self.perf_origin = time.perf_counter()
        self.events: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._stack: List[str] = []

    @contextmanager
    def span(self, name: str, category: str = "",
             **args: Any) -> Iterator[Dict[str, Any]]:
        span_id = f"w{self.pid}-{next(self._ids)}"
        parent_id = self._stack[-1] if self._stack else None
        start = time.perf_counter() - self.perf_origin
        cpu_start = time.process_time()
        event: Dict[str, Any] = {
            "id": span_id,
            "parent": parent_id,
            "name": name,
            "category": category,
            "start": start,
            "args": args,
        }
        self._stack.append(span_id)
        try:
            yield event
        finally:
            self._stack.pop()
            event["seconds"] = (
                time.perf_counter() - self.perf_origin - start
            )
            event["cpu"] = time.process_time() - cpu_start
            self.events.append(event)

    def export(self) -> Optional[Dict[str, Any]]:
        """The picklable bundle returned with a shard result (None
        when nothing was recorded — keeps result tuples small)."""
        if not self.events:
            return None
        return {
            "pid": self.pid,
            "trace_id": self.trace_id,
            "wall_origin": self.wall_origin,
            "events": self.events,
        }
