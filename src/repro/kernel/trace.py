"""Process-flow tracing (Figure 3a).

The figure's thick lines — user support -> translator -> preprocessor
-> core operator -> postprocessor -> user support — are recorded as
:class:`ProcessEvent` entries so the FIG3 benchmark can regenerate the
flow and tests can assert the component ordering.

A :class:`ProcessFlow` optionally mirrors phases and events into a
:class:`repro.obs.spans.Tracer`: component phases become spans and
events become instants, so one ``--trace-out`` capture holds the whole
pipeline without the components knowing about the observability layer.
Counters stay local to the flow — the mining system forwards them into
the tracer (and from there into the metrics registry) once at the end
of the run, so a single bump is never recorded twice.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.obs.spans import NULL_TRACER, Tracer


@dataclass(frozen=True)
class ProcessEvent:
    """One step of the mining process."""

    component: str  # translator | preprocessor | core | postprocessor
    action: str
    detail: str = ""
    elapsed: float = 0.0

    def __str__(self) -> str:
        detail = f" — {self.detail}" if self.detail else ""
        return f"[{self.component}] {self.action}{detail}"


class ProcessFlow:
    """Collects events and per-component timings during one execution."""

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.events: List[ProcessEvent] = []
        self.timings: Dict[str, float] = {}
        #: fault/retry/resume counters bumped by the resilience layer
        self.counters: Dict[str, int] = {}
        #: observability sink mirroring phases/events/counters
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._started: Optional[float] = None
        self._component: Optional[str] = None
        self._span = None

    def event(self, component: str, action: str, detail: str = "") -> None:
        self.events.append(ProcessEvent(component, action, detail))
        args = {"detail": detail} if detail else {}
        self.tracer.instant(
            f"{component}: {action}", category=component, **args
        )

    def bump(self, counter: str, amount: int = 1) -> None:
        """Increment a named counter (faults, retries, stages_resumed)
        surfaced by :meth:`render`."""
        if amount:
            self.counters[counter] = self.counters.get(counter, 0) + amount

    def start(self, component: str) -> None:
        """Begin timing a component phase."""
        self._component = component
        self._started = time.perf_counter()
        self._span = self.tracer.begin(component, category="component")

    def stop(self) -> float:
        """End the current phase; accumulates into :attr:`timings`."""
        if self._span is not None:
            self.tracer.end(self._span)
            self._span = None
        if self._started is None or self._component is None:
            return 0.0
        elapsed = time.perf_counter() - self._started
        self.timings[self._component] = (
            self.timings.get(self._component, 0.0) + elapsed
        )
        self._started = None
        self._component = None
        return elapsed

    @contextmanager
    def phase(self, component: str) -> Iterator[None]:
        """:meth:`start` .. :meth:`stop` around a block.  The phase is
        closed however the block exits, so a stage that fails or is
        cancelled leaves no open span on the tracer's stack."""
        self.start(component)
        try:
            yield
        finally:
            self.stop()

    def components(self) -> List[str]:
        """Distinct components in first-event order (FIG3 assertion)."""
        seen: List[str] = []
        for event in self.events:
            if event.component not in seen:
                seen.append(event.component)
        return seen

    def render(self) -> str:
        lines = [str(event) for event in self.events]
        if self.timings:
            lines.append("-- timings --")
            for component, elapsed in self.timings.items():
                lines.append(f"{component}: {elapsed * 1000:.2f} ms")
        if self.counters:
            lines.append("-- counters --")
            for counter, value in sorted(self.counters.items()):
                lines.append(f"{counter}: {value}")
        return "\n".join(lines)
