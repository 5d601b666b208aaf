"""The per-run context every pipeline stage works in.

One statement (MINE RULE or REFRESH RULES) gets one
:class:`RunContext`.  It carries what the stages of Figure 3a share —
the process flow, the retry policy, the cancel hook, the crash
checkpoint, the resilience counters and the fault schedule's counters
at the start of the run — and owns the one place a retryable unit of
work is executed (:meth:`RunContext.attempt`).  Stages take the context
plus their own inputs; nothing in it is user-settable beyond what
``MiningSystem.run`` / ``refresh`` accept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro import faults
from repro.faults import RetryPolicy
from repro.kernel.metrics import ResilienceStats
from repro.kernel.program import StageCheckpoint
from repro.kernel.trace import ProcessFlow
from repro.obs.spans import NULL_SPAN, NULL_TRACER, Tracer


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


@dataclass
class RunContext:
    """Shared state of one statement's pipeline run."""

    tracer: Tracer = NULL_TRACER
    policy: RetryPolicy = field(default_factory=RetryPolicy.single)
    #: zero-argument callable polled before every unit of work
    cancel: Optional[Callable[[], bool]] = None
    #: crash checkpoint of the MINE RULE pipeline (None until the
    #: translator ran; a refresh's phases keep none)
    checkpoint: Optional[StageCheckpoint] = None
    #: True when :attr:`checkpoint` came from an earlier, crashed run
    resumed: bool = False
    resilience: ResilienceStats = field(default_factory=ResilienceStats)

    def __post_init__(self) -> None:
        self.flow = ProcessFlow(tracer=self.tracer)
        self._schedule = faults.active()
        self._mark = (
            self._schedule.snapshot() if self._schedule is not None else None
        )

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
        open around them.  The core stage and the postprocessor's
        methods check their own sites and open their own spans."""
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
        self.resilience.retries += 1
        self.flow.bump("retries")
        component = site.split(".", 1)[0]
        self.flow.event(
            # the refresh phases are the flow's core component
            "core" if component == "refresh" else component,
            "retry",
            f"{site} attempt {attempt} failed ({exc}); "
            f"backing off {delay * 1000:.1f} ms",
        )

    def settle(self) -> None:
        """Close the run's resilience accounting: what the fault
        schedule fired since the context was made, then the counters
        and the one-line summary on the flow."""
        resilience = self.resilience
        if self._schedule is not None:
            errors, latencies = self._schedule.snapshot()
            resilience.faults_injected += errors - self._mark[0]
            resilience.latencies_injected += latencies - self._mark[1]
        self.flow.bump("faults", resilience.faults_injected)
        self.flow.bump("latency_faults", resilience.latencies_injected)
        self.flow.bump("stages_resumed", resilience.stages_resumed)
        if resilience.any():
            self.flow.event(
                "postprocessor", "resilience", resilience.describe()
            )
