"""Hierarchical spans and point events.

One :class:`Tracer` instance accompanies a pipeline run (or a whole
shell session).  Components open *spans* around units of work —
``translator``, ``preprocessor.Q4``, ``engine.Select`` — which nest by
wall-clock containment and carry what was observed as attributes
(group counts, bitmap sizes, retries), and record *instants* (the
process-flow markers).  The recorded spans feed:

* the Chrome trace-event export (:mod:`repro.obs.export`),
* the consolidated end-of-run report (:mod:`repro.obs.report`),
* per-query ``EXPLAIN ANALYZE`` captures attached as span arguments,
* a MINE RULE run's process flow and resilience counters, read from
  the run's root span and its :attr:`Span.record`,
* the *views* attached to the tracer (:meth:`Tracer.attach`): metrics,
  slow-query log, health and run journal.

A span a block leaves on an exception gets an ``error`` attribute (the
exception's class name).

Zero overhead when disabled: a disabled tracer hands out one shared
no-op span object and every recording method returns immediately after
a single attribute check, so the hot path (one check per SQL
statement) costs an ``if`` and nothing else.  :data:`NULL_TRACER` is
the process-wide disabled instance used as the default everywhere.

A view is any object with ``observe_span(span)`` (and optionally
``span_started(span)``): the tracer hands it every span it closes
(opens), so serving mode aggregates across runs what the trace records
within one.  A tracer keeps only the newest :data:`MAX_SPANS` spans and
instants and counts the spans it dropped; a run reads its own record.

Correlation (:mod:`repro.obs.context`): every span carries a stable
``span_id``, its ``parent_id`` (per-thread open-span stack, so
concurrent job workers nest correctly) and the ``trace_id`` of the
active :class:`~repro.obs.context.TraceContext`.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Type

from repro.obs import context as obs_context
from repro.obs import profile
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry

#: how many spans (and instants) a tracer keeps, newest last
MAX_SPANS = 10_000


class Span:
    """One timed unit of work.

    Usable as a context manager (``with tracer.span(...) as s:``) or
    through explicit ``begin``/``end`` when the unit does not map to a
    lexical block.  ``args`` carries structured details (query purpose,
    captured plans, row counts) into the trace export.
    """

    __slots__ = (
        "name", "category", "start", "end", "depth", "args", "tracer",
        "span_id", "parent_id", "trace_id", "tid",
        "cpu", "peak_bytes", "_cpu_start", "_mem_start", "record",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        category: str,
        start: float,
        depth: int,
        args: Dict[str, Any],
    ):
        self.tracer = tracer
        self.name = name
        self.category = category
        self.start = start
        self.end: Optional[float] = None
        self.depth = depth
        self.args = args
        #: correlation ids (assigned by the tracer on begin)
        self.span_id: Optional[str] = None
        self.parent_id: Optional[str] = None
        self.trace_id: Optional[str] = None
        #: recording thread (real id)
        self.tid: int = 0
        #: resource attribution (None when profiling is off)
        self.cpu: Optional[float] = None
        self.peak_bytes: Optional[int] = None
        self._cpu_start: Optional[float] = None
        self._mem_start: profile.MemorySample = None
        #: None, or the spans and instants this thread closed under the
        #: span since the list was set (a run's root keeps one)
        self.record: Optional[List[Any]] = None

    @property
    def seconds(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def annotate(self, **args: Any) -> None:
        """Attach structured details to the span."""
        self.args.update(args)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type: Any, *exc: Any) -> bool:
        if exc_type is not None:
            # what the derived views skip: the unit did not complete
            self.args["error"] = exc_type.__name__
        self.tracer.end(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, category={self.category!r}, "
            f"seconds={self.seconds:.6f})"
        )


class _NullSpan:
    """The do-nothing span a disabled tracer hands out (one shared
    instance: no allocation on the disabled path)."""

    __slots__ = ()

    def annotate(self, **args: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Instant:
    """A point event (no duration): process-flow markers."""

    __slots__ = ("name", "category", "at", "args", "trace_id")

    def __init__(self, name: str, category: str, at: float, args: Dict[str, Any]):
        self.name = name
        self.category = category
        self.at = at
        self.args = args
        self.trace_id: Optional[str] = None


class Tracer:
    """Span and instant sink for one run (or session).

    ``analyze=True`` additionally asks the SQL layer to capture
    per-operator row counts and timings (``EXPLAIN ANALYZE``) for every
    query it executes — strictly opt-in, as it wraps every operator's
    row stream.
    """

    def __init__(
        self,
        enabled: bool = True,
        analyze: bool = False,
        clock: Callable[[], float] = time.perf_counter,
        metrics: MetricsRegistry = NULL_REGISTRY,
        profile_cpu: bool = True,
        profile_mem: bool = False,
    ):
        self.enabled = enabled
        self.analyze = analyze and enabled
        #: what every span close is handed to (:meth:`attach`)
        self.views: List[Any] = []
        #: the views that also want every span open
        self._starters: List[Any] = []
        self.attach(metrics)
        self._clock = clock
        #: perf-counter instant the tracer was created (trace epoch)
        self.origin = clock()
        #: per-span CPU attribution (time.process_time deltas); cheap
        #: enough to default on for an enabled tracer
        self.profile_cpu = profile_cpu and enabled
        #: per-span peak-memory attribution (tracemalloc); opt-in —
        #: tracing every allocation has real cost
        self.profile_mem = profile_mem and enabled
        if self.profile_mem:
            profile.start_memory_tracking()
        #: completed spans, in end order, and instants: the newest
        #: MAX_SPANS of each
        self._spans: Deque[Span] = deque(maxlen=MAX_SPANS)
        self._instants: Deque[Instant] = deque(maxlen=MAX_SPANS)
        #: spans the bound evicted (a run closes several spans per
        #: instant, so spans go first)
        self.dropped_spans = 0
        self._ids = itertools.count(1)
        self._open = threading.local()

    @property
    def spans(self) -> List[Span]:
        """The retained completed spans, oldest first."""
        return list(self._spans)

    @property
    def instants(self) -> List[Instant]:
        """The retained instants, oldest first."""
        return list(self._instants)

    def attach(self, view: Any) -> Any:
        """Hand every span this tracer closes to ``view.observe_span``
        (and every span it opens to ``view.span_started``, if the view
        has one).  A disabled or already attached view is left out;
        returns *view*."""
        if not getattr(view, "enabled", True) or any(
            view is attached for attached in self.views
        ):
            return view
        if not self.enabled:
            raise ValueError("a disabled tracer takes no views")
        self.views.append(view)
        if hasattr(view, "span_started"):
            self._starters.append(view)
        return view

    def attached(self, kind: Type[Any]) -> Optional[Any]:
        """The first attached view that is a *kind*, or None."""
        return next((v for v in self.views if isinstance(v, kind)), None)

    def _stack(self) -> List[Span]:
        """This thread's open-span stack (parent/depth bookkeeping —
        per thread so concurrent job workers nest independently)."""
        stack = getattr(self._open, "stack", None)
        if stack is None:
            stack = []
            self._open.stack = stack
        return stack

    # -- spans ----------------------------------------------------------

    def begin(self, name: str, category: str = "", **args: Any):
        """Open a span; pair with :meth:`end` (or use as ``with``)."""
        if not self.enabled:
            return NULL_SPAN
        stack = self._stack()
        span = Span(self, name, category, self._clock(), len(stack), args)
        span.span_id = f"s{next(self._ids)}"
        if stack:
            span.parent_id = stack[-1].span_id
        ctx = obs_context.current()
        if ctx is not None:
            span.trace_id = ctx.trace_id
        span.tid = threading.get_ident()
        if self.profile_cpu:
            span._cpu_start = time.process_time()
        if self.profile_mem:
            span._mem_start = profile.memory_sample()
        stack.append(span)
        for view in self._starters:
            view.span_started(span)
        return span

    #: ``span()`` reads better at call sites that use ``with``
    span = begin

    def end(self, span: Any) -> float:
        """Close *span*; returns its duration in seconds."""
        if span is NULL_SPAN or not isinstance(span, Span):
            return 0.0
        if span.end is None:
            span.end = self._clock()
            if span._cpu_start is not None:
                span.cpu = time.process_time() - span._cpu_start
            if span._mem_start is not None:
                span.peak_bytes = profile.peak_bytes_since(span._mem_start)
            stack = self._stack()
            if stack and stack[-1] is span:
                stack.pop()
            elif span in stack:  # defensive: out-of-order close
                stack.remove(span)
            if len(self._spans) == self._spans.maxlen:
                self.dropped_spans += 1
            self._spans.append(span)
            _record(stack, span)
            for view in self.views:
                view.observe_span(span)
        return span.seconds

    def annotate(self, **args: Any) -> None:
        """Attach details to this thread's innermost open span — for
        code that runs under a span someone else opened."""
        if not self.enabled:
            return
        stack = self._stack()
        if stack:
            stack[-1].annotate(**args)

    def count(self, key: str, amount: int = 1) -> None:
        """Add *amount* to the *key* attribute of this thread's
        innermost open span."""
        if not self.enabled:
            return
        stack = self._stack()
        if stack:
            args = stack[-1].args
            args[key] = args.get(key, 0) + amount

    def instant(self, name: str, category: str = "", **args: Any) -> None:
        """Record a point event."""
        if not self.enabled:
            return
        instant = Instant(name, category, self._clock(), args)
        ctx = obs_context.current()
        if ctx is not None:
            instant.trace_id = ctx.trace_id
        self._instants.append(instant)
        _record(self._stack(), instant)

    # -- aggregation ----------------------------------------------------

    def category_seconds(self) -> Dict[str, float]:
        """Total span seconds per category.  Nested spans of the *same*
        category double-count by design (each category is summed
        independently); the component spans the report leads with sit
        at the top of the hierarchy."""
        out: Dict[str, float] = {}
        for span in self._spans:
            key = span.category or span.name
            out[key] = out.get(key, 0.0) + span.seconds
        return out

    def category_cpu_seconds(self) -> Dict[str, float]:
        """Total attributed CPU seconds per category (spans recorded
        without CPU profiling contribute nothing)."""
        out: Dict[str, float] = {}
        for span in self._spans:
            if span.cpu is None:
                continue
            key = span.category or span.name
            out[key] = out.get(key, 0.0) + span.cpu
        return out

    def slowest(self, limit: int = 10) -> List[Span]:
        return sorted(self._spans, key=lambda s: -s.seconds)[:limit]


def _record(stack: List[Span], item: Any) -> None:
    """Add a closed span or an instant to the record of every open span
    on *stack* that keeps one."""
    for span in stack:
        if span.record is not None:
            span.record.append(item)


#: the shared disabled tracer — default value of every ``tracer``
#: parameter in the pipeline, so the un-traced path never allocates
NULL_TRACER = Tracer(enabled=False)
