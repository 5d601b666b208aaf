"""Trace context: correlation ids threaded through runs and jobs.

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
"""

from __future__ import annotations

import threading
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional


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
