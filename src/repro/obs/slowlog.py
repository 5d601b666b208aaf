"""Ring-buffer slow-query log.

Rule-lattice workloads have heavy-tailed latencies: most statements of
a translation program are sub-millisecond while the occasional
``Q8``-style join or a dense MINE RULE run dominates a whole session.
Aggregate histograms show *that* a tail exists; this log keeps *which*
statements were in it — the last ``capacity`` executions slower than
``threshold`` seconds, oldest evicted first, thread-safe so the
monitoring server can render it mid-run.

The log is a view of a :class:`~repro.obs.spans.Tracer`
(:meth:`SlowQueryLog.observe_span`): SQL statements (``sql.<kind>``,
from the engine's spans), timed preprocessor queries
(``preprocessor.Q8``) and whole statements (``minerule.run``, from the
root span) are read from the spans as they close.

Surfaces: the text report (:mod:`repro.report`), the ``/stats.json``
monitoring endpoint, and :meth:`SlowQueryLog.render` for terminals.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.obs import context as obs_context


@dataclass(frozen=True)
class SlowQuery:
    """One over-threshold execution."""

    name: str  # e.g. "sql.Select", "preprocessor.Q8", "minerule.run"
    seconds: float
    detail: str = ""
    #: wall-clock timestamp (``time.time``) of the recording
    at: float = 0.0
    #: correlation ids of the run/job that executed the statement
    #: (captured from the ambient trace context at record time)
    trace_id: Optional[str] = None
    job_id: Optional[str] = None
    run_id: Optional[Any] = None

    def describe(self) -> str:
        detail = f" — {self.detail}" if self.detail else ""
        return f"{self.name:<24} {self.seconds * 1000:9.2f} ms{detail}"


class SlowQueryLog:
    """Bounded log of executions slower than a threshold.

    ``threshold`` is in seconds; ``capacity`` bounds memory (a ring
    buffer: the newest entry evicts the oldest).  ``record`` returns
    whether the observation was slow enough to keep, so call sites can
    bump a counter alongside.
    """

    def __init__(
        self,
        threshold: float = 0.050,
        capacity: int = 64,
        clock: Callable[[], float] = time.time,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if threshold < 0:
            raise ValueError("threshold must be >= 0")
        self.threshold = threshold
        self.capacity = capacity
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: Deque[SlowQuery] = deque(maxlen=capacity)
        #: total recorded (kept) slow executions, including evicted ones
        self.total_recorded = 0

    def record(self, name: str, seconds: float, detail: str = "") -> bool:
        """Keep the observation iff it crossed the threshold."""
        if seconds < self.threshold:
            return False
        context = obs_context.current()
        entry = SlowQuery(
            name=name,
            seconds=seconds,
            detail=" ".join(detail.split())[:200],
            at=self._clock(),
            trace_id=context.trace_id if context is not None else None,
            job_id=context.job_id if context is not None else None,
            run_id=context.run_id if context is not None else None,
        )
        with self._lock:
            self._entries.append(entry)
            self.total_recorded += 1
        return True

    def observe_span(self, span: Any) -> None:
        """The tracer-view feed: keep a statement's root span whatever
        its outcome, an engine statement or a timed preprocessor query
        only when it completed."""
        if span.seconds < self.threshold:
            return
        args = span.args
        if span.category == "minerule":
            self.record(span.name, span.seconds, args.get("label", ""))
        elif "error" in args:
            return
        elif span.category == "engine":
            self.record(f"sql.{args['kind']}", span.seconds, args["sql"])
        elif "stage" in args:
            self.record(span.name, span.seconds, args["purpose"])

    def entries(self) -> List[SlowQuery]:
        """Snapshot, oldest first."""
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def as_dicts(self) -> List[Dict[str, Any]]:
        """JSON-ready entries for ``/stats.json``."""
        out: List[Dict[str, Any]] = []
        for entry in self.entries():
            row: Dict[str, Any] = {
                "name": entry.name,
                "ms": round(entry.seconds * 1000, 3),
                "detail": entry.detail,
                "at": entry.at,
            }
            if entry.trace_id is not None:
                row["trace_id"] = entry.trace_id
            if entry.job_id is not None:
                row["job_id"] = entry.job_id
            if entry.run_id is not None:
                row["run_id"] = entry.run_id
            out.append(row)
        return out

    def render(self, limit: int = 10) -> str:
        """Text rendering, slowest first (report embedding)."""
        entries = sorted(self.entries(), key=lambda e: -e.seconds)[:limit]
        if not entries:
            return (
                f"slow-query log: empty "
                f"(threshold {self.threshold * 1000:.1f} ms)"
            )
        lines = [
            f"slow-query log: {self.total_recorded} over "
            f"{self.threshold * 1000:.1f} ms (showing {len(entries)})"
        ]
        lines.extend(f"  {entry.describe()}" for entry in entries)
        return "\n".join(lines)
