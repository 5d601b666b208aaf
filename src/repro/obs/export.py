"""Chrome trace-event export.

Serialises a :class:`~repro.obs.spans.Tracer` to the JSON object format
understood by ``chrome://tracing`` / Perfetto: spans become ``"X"``
(complete) events with microsecond ``ts``/``dur`` relative to the
tracer's origin and instants become ``"i"`` events.

Events carry the process id (there is one process) and the *real*
thread id of the code that recorded them, so concurrent job threads
render as separate lanes.  Span args include
the correlation ids (``trace_id``/``span_id``/``parent_id``) and, when
profiling is on, per-span CPU milliseconds and peak traced bytes.

``trace_events(tracer, trace_id=...)`` restricts the export to one
run's events — the shape the run history's ``GET /runs/<id>/trace``
endpoint persists and serves.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from repro.obs.spans import Tracer

#: lane id used when a span carries no tid (hand-built spans in tests)
_TID = 1


def trace_events(
    tracer: Tracer, trace_id: Optional[str] = None
) -> List[Dict[str, Any]]:
    """The ``traceEvents`` list for *tracer*; ``trace_id`` filters it
    to one run's spans and instants."""
    origin = tracer.origin
    spans = tracer.spans
    instants = tracer.instants
    if trace_id is not None:
        spans = [s for s in spans if s.trace_id == trace_id]
        instants = [i for i in instants if i.trace_id == trace_id]
    own_pid = os.getpid()
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": own_pid,
            "args": {"name": "repro mining pipeline"},
        }
    ]
    for span in sorted(spans, key=lambda s: s.start):
        ts = (span.start - origin) * 1e6
        dur = span.seconds * 1e6
        args = _json_safe(span.args)
        if span.trace_id is not None:
            args["trace_id"] = span.trace_id
        if span.span_id is not None:
            args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.cpu is not None:
            args["cpu_ms"] = round(span.cpu * 1000, 3)
        if span.peak_bytes is not None:
            args["peak_bytes"] = span.peak_bytes
        events.append(
            {
                "name": span.name,
                "cat": span.category or "span",
                "ph": "X",
                "pid": own_pid,
                "tid": span.tid or _TID,
                "ts": round(ts, 3),
                "dur": round(dur, 3),
                "args": args,
            }
        )
    for instant in instants:
        ts = (instant.at - origin) * 1e6
        args = _json_safe(instant.args)
        if instant.trace_id is not None:
            args["trace_id"] = instant.trace_id
        events.append(
            {
                "name": instant.name,
                "cat": instant.category or "event",
                "ph": "i",
                "s": "t",
                "pid": own_pid,
                "tid": _TID,
                "ts": round(ts, 3),
                "args": args,
            }
        )
    return events


def render_chrome_trace(tracer: Tracer) -> str:
    """The complete trace file as a JSON string."""
    payload = {
        "traceEvents": trace_events(tracer),
        "displayTimeUnit": "ms",
    }
    return json.dumps(payload, indent=1)


def write_chrome_trace(tracer: Tracer, path: str) -> str:
    """Write the trace file; returns *path* for message convenience."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_chrome_trace(tracer))
    return path


def _json_safe(value: Any) -> Any:
    """Coerce span args to JSON-serialisable values (repr fallback)."""
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)
