"""The per-run context every pipeline stage works in, and the one
record a run leaves behind.

One statement (MINE RULE or REFRESH RULES) gets one
:class:`RunContext`.  It carries what the stages of Figure 3a share —
the run's tracer and root span, the retry policy, the cancel hook, the
crash checkpoint and the fault schedule's counters at the start of the
run — and owns the one place a retryable unit of work is executed
(:meth:`RunContext.attempt`).  Stages record their work only as spans,
instants and root-span attributes on ``ctx.tracer``; the process flow
(:class:`RunFlow`), the resilience counters, the metrics series and
the slow-log and journal entries all read that record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional

from repro import faults
from repro.faults import RetryPolicy
from repro.kernel.program import StageCheckpoint
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import NULL_SPAN, Span, Tracer

#: Figure 3a's components: the categories of the flow's instants
COMPONENTS = ("translator", "preprocessor", "core", "postprocessor")


class RunCancelled(Exception):
    """A run's ``cancel`` hook fired before a unit of work.

    Cancellation is cooperative and only happens *between* units (a
    preprocessing query, the core stage, a refresh phase, the
    postprocessor's store -> decode emission as a whole), so the
    database is always left consistent: a unit either completed or
    never started, and the rule tables are never half-emitted.  A
    cancelled run keeps its crash checkpoint, so a later
    ``run(resume=True)`` of the same statement picks up where it
    stopped.  Cancellation is not a health failure — the jobs layer
    reports it as a distinct terminal state.
    """


def run_tracer(tracer: Tracer, metrics: MetricsRegistry) -> Tracer:
    """The tracer a run records on: *tracer* when it is enabled,
    otherwise a private recorder feeding *metrics*.  The private one is
    never installed on the database, so untraced SQL stays span-free."""
    return tracer if tracer.enabled else Tracer(
        metrics=metrics, profile_cpu=False
    )


class FlowEvent(NamedTuple):
    """One step of the process flow (an instant of the run's record)."""

    component: str
    action: str
    detail: str = ""

    def __str__(self) -> str:
        detail = f" — {self.detail}" if self.detail else ""
        return f"[{self.component}] {self.action}{detail}"


class Resilience(NamedTuple):
    """The run's four resilience attributes of its root span."""

    retries: int = 0
    faults_injected: int = 0
    latencies_injected: int = 0
    stages_resumed: int = 0

    def any(self) -> bool:
        """True when anything noteworthy happened (report gating)."""
        return any(self)

    def describe(self) -> str:
        return (
            f"faults {self.faults_injected}; "
            f"latency faults {self.latencies_injected}; "
            f"retries {self.retries}; stages resumed {self.stages_resumed}"
        )


class RunFlow:
    """Read-only Figure-3a view of one run's record: what *tracer*
    recorded under *root*'s trace from the view's creation to :meth:`seal`."""

    def __init__(self, tracer: Tracer, root: Span) -> None:
        self.tracer = tracer
        #: the span whose attributes are the run's per-run values
        self.root = root
        self._start = (len(tracer.spans), len(tracer.instants))
        self._end: tuple = (None, None)

    def seal(self) -> None:
        """End the view at what the tracer has recorded so far."""
        self._end = (len(self.tracer.spans), len(self.tracer.instants))

    def _own(self, records: list, index: int) -> list:
        window = records[self._start[index]:self._end[index]]
        return [r for r in window if r.trace_id == self.root.trace_id]

    def spans(self) -> List[Span]:
        """The run's closed spans, in close order."""
        return self._own(self.tracer.spans, 0)

    @property
    def events(self) -> List[FlowEvent]:
        return [
            FlowEvent(instant.category, instant.name.partition(": ")[2],
                      instant.args.get("detail", ""))
            for instant in self._own(self.tracer.instants, 1)
            if instant.category in COMPONENTS
        ]

    @property
    def timings(self) -> Dict[str, float]:
        """Wall seconds per component, in first-close order."""
        out: Dict[str, float] = {}
        for span in self.spans():
            if span.category == "component":
                out[span.name] = out.get(span.name, 0.0) + span.seconds
        return out

    @property
    def resilience(self) -> Resilience:
        args = self.root.args
        return Resilience(*(args.get(key, 0) for key in Resilience._fields))

    @property
    def counters(self) -> Dict[str, int]:
        """The non-zero resilience counters."""
        return {k: v for k, v in self.resilience._asdict().items() if v}

    def components(self) -> List[str]:
        """Distinct components in first-event order (FIG3 assertion)."""
        return list(dict.fromkeys(event.component for event in self.events))

    def render(self) -> str:
        lines = [str(event) for event in self.events]
        if self.timings:
            lines.append("-- timings --")
            lines += [f"{component}: {seconds * 1000:.2f} ms"
                      for component, seconds in self.timings.items()]
        if self.counters:
            lines.append("-- counters --")
            lines += [f"{counter}: {value}"
                      for counter, value in sorted(self.counters.items())]
        return "\n".join(lines)


@dataclass
class RunContext:
    """Shared state of one statement's pipeline run."""

    #: the view of the run's record; its tracer (see :func:`run_tracer`)
    #: and root span are the context's :attr:`tracer` and :attr:`root`
    flow: RunFlow
    policy: RetryPolicy = field(default_factory=RetryPolicy.single)
    #: zero-argument callable polled before every unit of work
    cancel: Optional[Callable[[], bool]] = None
    #: the run's crash checkpoint (set once the translator has named
    #: the workspace)
    checkpoint: Optional[StageCheckpoint] = None
    #: True when :attr:`checkpoint` came from an earlier, crashed run
    resumed: bool = False

    def __post_init__(self) -> None:
        self.tracer, self.root = self.flow.tracer, self.flow.root
        self._schedule = faults.active()
        self._mark = (
            self._schedule.snapshot() if self._schedule is not None else None
        )

    def event(self, component: str, action: str, detail: str = "") -> None:
        """One step of the process flow."""
        args = {"detail": detail} if detail else {}
        self.tracer.instant(f"{component}: {action}", component, **args)

    def phase(self, component: str) -> Span:
        """The span of one component of Figure 3a (use with ``with``)."""
        return self.tracer.span(component, category="component")

    def count(self, key: str, amount: int = 1) -> None:
        """Add to one of the root span's :class:`Resilience` counters."""
        self.root.args[key] = self.root.args.get(key, 0) + amount

    def check_cancel(self, site: str) -> None:
        if self.cancel is not None and self.cancel():
            raise RunCancelled(f"run cancelled before {site}")

    def attempt(
        self,
        site: str,
        fn: Callable[[], Any],
        own_site: bool = False,
        **span_args: Any,
    ) -> Any:
        """Run one retryable unit of work under the run's policy.

        Polls the cancel hook and repeats *fn* after a retryable
        failure, recording every re-attempt.  *own_site* says the unit
        is observed here rather than in its callee: the fault site
        *site* fires at the entry of every attempt and a ``site`` span
        (category: the site's first component, plus *span_args*) is
        open around them.  The core stage checks its own sites inside
        its component span."""
        self.check_cancel(site)
        if own_site:
            span = self.tracer.span(
                site, category=site.split(".", 1)[0], **span_args
            )

            def unit() -> Any:
                # before the unit touches any state, so a retry re-runs
                # it exactly once against unchanged tables
                faults.check(site)
                return fn()
        else:
            span, unit = NULL_SPAN, fn

        with span:
            return self.policy.execute(
                unit, stage=site, on_retry=self._retried
            )

    def _retried(self, site: str, attempt: int, exc: Exception,
                 delay: float) -> None:
        self.count("retries")
        component = site.split(".", 1)[0]
        self.event(
            # the refresh phases are the flow's core component
            "core" if component == "refresh" else component,
            "retry",
            f"{site} attempt {attempt} failed ({exc}); "
            f"backing off {delay * 1000:.1f} ms",
        )

    def settle(self) -> None:
        """Close the run's resilience accounting: the faults fired since
        the context was made join the root span's four counters, and a
        run that met any of them says so in its flow."""
        if self._schedule is not None:
            errors, latencies = self._schedule.snapshot()
            self.count("faults_injected", errors - self._mark[0])
            self.count("latencies_injected", latencies - self._mark[1])
        resilience = self.flow.resilience
        self.root.annotate(**resilience._asdict())
        if resilience.any():
            self.event("postprocessor", "resilience", resilience.describe())
