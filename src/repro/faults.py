"""Deterministic fault injection (the chaos layer).

The paper's tightly-coupled design executes each MINE RULE statement as
a multi-stage pipeline of DB round-trips (the Translator's Q0..Q11
program, the core operator, the postprocessor's decode writes).  A
production deployment of that pipeline meets transient failures at
every one of those round-trips, so the reproduction ships a *seeded,
deterministic* fault-injection subsystem: tests arm faults by **site
name** and **call count**, run the pipeline, and know exactly which
call will fail, every time.

Vocabulary
----------

* A **site** is a dotted name compiled into the production code path
  (``repro.faults.check("preprocessor.Q4")``).  When no schedule is
  installed a check is one ``None`` test — the layer costs nothing in
  normal operation.
* A :class:`FaultSpec` arms one fault at a site pattern
  (:mod:`fnmatch` glob) for a window of call counts.
* A :class:`FaultSchedule` owns the specs plus the per-site call
  counters, and records every fault it fired (a run's
  :class:`~repro.kernel.context.Resilience` counters).

Injection sites
---------------

======================  ==================================================
``engine.execute``      every :meth:`Database.execute_ast` statement
``preprocessor.<L>``    before setup/preprocessing query labelled ``<L>``
                        (``CLEAN``, ``SEQ``, ``Q0`` .. ``Q11`` variants)
``core.load``           reading the encoded tables into the core operator
``core.simple``         each simple-core run (pool algorithm entry)
``core.lattice``        each lattice-set computation of the general core
``core.bitset``         entry of the bitmap kernels, after the load and
                        before either core variant mines
``postprocessor.store`` writing the normalized output relations
``postprocessor.decode``running the decode program + display build
``refresh.delta``       before the REFRESH delta scan (pairs query over
                        the increment, ORed into new item bitmaps);
                        what it interns lies past the sizes the state
                        committed, so a retried attempt repeats it
``refresh.recount``     before the REFRESH recount (the pool member
                        mining the updated bitmaps); also idempotent —
                        state commits only after the phase succeeds
``jobs.submit``         job-service submission (job lands in ``failed``)
``jobs.run.<id>``       start of each execution attempt of job ``<id>``
======================  ==================================================

The two ``refresh.*`` sites are deliberately *not* in
:data:`DEFAULT_SITES`: a randomly generated schedule arms only sites
every typical statement visits, and REFRESH runs only when a test asks
for it — the chaos refresh tests install explicit schedules instead.

Faults fire *at stage entry*, before the stage mutates any state —
which is what makes retry (exactly-once re-execution) sound.  A run
that fails anyway drops its partial workspace, so running the
statement again finishes it.

Usage::

    schedule = FaultSchedule().arm("preprocessor.Q4", call=1)
    with faults.injected(schedule):
        system.run(statement)                  # Q4 raises FaultError
    system.run(statement)                      # runs from scratch
"""

from __future__ import annotations

import contextlib
import fnmatch
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_SITES",
    "FaultError",
    "FaultSchedule",
    "FaultSpec",
    "RetryPolicy",
    "active",
    "check",
    "injected",
    "install",
    "uninstall",
]

#: sites a randomly generated schedule may arm (everything the pipeline
#: guarantees to visit at least once for a typical statement)
DEFAULT_SITES: Tuple[str, ...] = (
    "engine.execute",
    "preprocessor.Q1",
    "preprocessor.Q2b",
    "preprocessor.Q3",
    "core.load",
    "postprocessor.store",
    "postprocessor.decode",
)


class FaultError(Exception):
    """A deterministic injected failure.

    Typed so the chaos tests (and the retry layer) can distinguish an
    injected fault from a genuine engine error; carries the site and
    the call count at which it fired.
    """

    def __init__(self, site: str, call: int, message: str = ""):
        detail = message or f"injected fault at {site} (call {call})"
        super().__init__(detail)
        self.site = site
        self.call = call


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault.

    ``site`` is an :mod:`fnmatch` pattern matched against the invoked
    site name; the fault fires on calls ``call .. call + times - 1`` of
    that site (1-based, counted per invoked site name).  ``kind`` is
    ``"error"`` (raise :class:`FaultError`) or ``"latency"`` (sleep
    ``latency`` seconds, then continue).
    """

    site: str
    call: int = 1
    times: int = 1
    kind: str = "error"
    latency: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("error", "latency"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.call < 1 or self.times < 1:
            raise ValueError("call and times must be >= 1")

    def matches(self, site: str, count: int) -> bool:
        return (
            self.call <= count < self.call + self.times
            and fnmatch.fnmatchcase(site, self.site)
        )

    def describe(self) -> str:
        spec = f"{self.site}:{self.call}"
        if self.times != 1:
            spec += f"*{self.times}"
        if self.kind == "latency":
            spec += f"@{self.latency:g}"
        return spec


class FaultSchedule:
    """A deterministic set of armed faults plus per-site call counters.

    The schedule is reusable: :meth:`reset` clears the counters (not
    the specs), so the same schedule can be replayed against a retried
    pipeline run or a re-run of the statement.
    """

    def __init__(
        self,
        specs: Optional[Sequence[FaultSpec]] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.specs: List[FaultSpec] = list(specs or ())
        self.counts: Dict[str, int] = {}
        #: (site, call, kind) of every fault fired, in firing order
        self.fired: List[Tuple[str, int, str]] = []
        self.errors_injected = 0
        self.latencies_injected = 0
        self._sleep = sleep

    # -- arming ---------------------------------------------------------

    def arm(
        self,
        site: str,
        call: int = 1,
        times: int = 1,
        kind: str = "error",
        latency: float = 0.0,
    ) -> "FaultSchedule":
        """Arm one fault; returns ``self`` for chaining."""
        self.specs.append(FaultSpec(site, call, times, kind, latency))
        return self

    @classmethod
    def random(
        cls,
        seed: int,
        sites: Optional[Sequence[str]] = None,
        max_faults: int = 3,
        max_call: int = 4,
        max_times: int = 2,
        latency: float = 0.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> "FaultSchedule":
        """A seeded schedule: 1..``max_faults`` faults over *sites*
        with call counts in ``1..max_call`` and run lengths in
        ``1..max_times``.  Same seed, same schedule — always."""
        rng = random.Random(seed)
        sites = tuple(sites or DEFAULT_SITES)
        schedule = cls(sleep=sleep)
        for _ in range(rng.randint(1, max_faults)):
            kind = "latency" if rng.random() < 0.2 else "error"
            schedule.arm(
                rng.choice(sites),
                call=rng.randint(1, max_call),
                times=rng.randint(1, max_times),
                kind=kind,
                latency=latency if kind == "latency" else 0.0,
            )
        return schedule

    @classmethod
    def parse(cls, text: str) -> "FaultSchedule":
        """Parse the CLI spec format: ``site:call[*times][@latency]``
        entries separated by ``,`` or ``;``.  A ``@latency`` suffix
        makes the fault a latency fault; otherwise it is an error.
        ``seed=N`` instead is the :meth:`random` schedule of seed *N*.
        A malformed spec raises ``ValueError``.

        Example: ``preprocessor.Q4:1;engine.execute:3*2;core.load:1@0.05``
        """
        spec = text.strip()
        if spec.startswith("seed="):
            return cls.random(int(spec[5:]))
        schedule = cls()
        for chunk in text.replace(";", ",").split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            site, _, rest = chunk.partition(":")
            if not site or not rest:
                raise ValueError(
                    f"bad fault spec {chunk!r}; expected site:call[*times][@latency]"
                )
            latency = 0.0
            kind = "error"
            if "@" in rest:
                rest, _, latency_text = rest.partition("@")
                kind = "latency"
                latency = float(latency_text)
            times = 1
            if "*" in rest:
                rest, _, times_text = rest.partition("*")
                times = int(times_text)
            schedule.arm(site, call=int(rest), times=times, kind=kind,
                         latency=latency)
        return schedule

    def describe(self) -> str:
        return ",".join(spec.describe() for spec in self.specs) or "(empty)"

    # -- firing ---------------------------------------------------------

    def check(self, site: str) -> None:
        """Count one call of *site*; fire any armed fault matching it."""
        count = self.counts.get(site, 0) + 1
        self.counts[site] = count
        for spec in self.specs:
            if not spec.matches(site, count):
                continue
            self.fired.append((site, count, spec.kind))
            if spec.kind == "latency":
                self.latencies_injected += 1
                if spec.latency > 0:
                    self._sleep(spec.latency)
                continue
            self.errors_injected += 1
            raise FaultError(site, count)

    def reset(self) -> "FaultSchedule":
        """Clear counters and firing records, keeping the armed specs."""
        self.counts.clear()
        self.fired.clear()
        self.errors_injected = 0
        self.latencies_injected = 0
        return self

    def snapshot(self) -> Tuple[int, int]:
        """(errors, latencies) so far — for delta accounting across one
        pipeline run."""
        return self.errors_injected, self.latencies_injected

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultSchedule({self.describe()})"


# ---------------------------------------------------------------------------
# the process-wide active schedule
# ---------------------------------------------------------------------------

_ACTIVE: Optional[FaultSchedule] = None


def install(schedule: FaultSchedule) -> FaultSchedule:
    """Make *schedule* the process-wide active schedule."""
    global _ACTIVE
    _ACTIVE = schedule
    return schedule


def uninstall() -> None:
    """Remove the active schedule (checks become no-ops again)."""
    global _ACTIVE
    _ACTIVE = None


def active() -> Optional[FaultSchedule]:
    """The currently installed schedule, if any."""
    return _ACTIVE


def check(site: str) -> None:
    """Injection hook: a no-op unless a schedule is installed."""
    if _ACTIVE is not None:
        _ACTIVE.check(site)


@contextlib.contextmanager
def injected(schedule: FaultSchedule):
    """Install *schedule* for the duration of a ``with`` block."""
    install(schedule)
    try:
        yield schedule
    finally:
        uninstall()


# ---------------------------------------------------------------------------
# retry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Per-stage retry with capped exponential backoff and a wall-clock
    budget.

    Attempt *n* (n >= 1) that fails with a retryable error sleeps
    ``min(max_delay, base_delay * backoff**(n-1))`` and tries again,
    up to ``max_attempts`` attempts; once ``timeout`` seconds of stage
    wall clock (including the pending backoff) would be exceeded, the
    error propagates instead.

    Only :class:`FaultError` is retryable by default: injected faults
    fire at stage entry, so re-running the stage is exactly-once.  A
    genuine engine error may leave a statement partially applied, so
    widening ``retryable`` is a caller's explicit decision.
    """

    max_attempts: int = 3
    base_delay: float = 0.005
    backoff: float = 2.0
    max_delay: float = 0.25
    timeout: Optional[float] = None
    retryable: Tuple[type, ...] = (FaultError,)

    @classmethod
    def single(cls) -> "RetryPolicy":
        """No retries: one attempt, errors propagate immediately."""
        return cls(max_attempts=1, base_delay=0.0)

    def delay(self, attempt: int) -> float:
        """Backoff before the attempt *after* failed attempt *attempt*."""
        if self.base_delay <= 0:
            return 0.0
        return min(self.max_delay, self.base_delay * self.backoff ** (attempt - 1))

    def execute(
        self,
        fn: Callable[[], Any],
        stage: str = "stage",
        on_retry: Optional[Callable[[str, int, Exception, float], None]] = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> Any:
        """Run *fn* under this policy.  ``on_retry(stage, attempt, exc,
        delay)`` is invoked before each re-attempt (observability)."""
        started = clock()
        attempt = 1
        while True:
            try:
                return fn()
            except self.retryable as exc:
                if attempt >= self.max_attempts:
                    raise
                pause = self.delay(attempt)
                if (
                    self.timeout is not None
                    and clock() - started + pause > self.timeout
                ):
                    raise
                if on_retry is not None:
                    on_retry(stage, attempt, exc, pause)
                if pause > 0:
                    sleep(pause)
                attempt += 1
