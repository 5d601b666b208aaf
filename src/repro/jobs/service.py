"""The job service: submission, execution, cancellation, metrics.

Glues the pieces together: statements come in through
:meth:`JobService.submit` (directly or via the REST API), land in the
:class:`~repro.jobs.table.JobTable`, and a
:class:`~repro.jobs.pool.WorkerPool` executes them against one shared
:class:`~repro.system.MiningSystem`.  MINE RULE jobs run the full
pipeline under the engine's write lock; REFRESH RULES jobs run the
FUP-style incremental maintenance path (:mod:`repro.incremental`)
under the same lock; SQL jobs go straight to the engine, whose
statement guard gives scans the shared read side.

Fault sites (:mod:`repro.faults`): ``jobs.submit`` fires during
submission (the job is recorded, then lands in ``failed`` with the
error), ``jobs.run.<id>`` fires at the start of each execution attempt
— with a per-job :class:`~repro.faults.RetryPolicy` the attempt is
retried with backoff, and a retried job's result is bit-identical to
an unfaulted run.

Metrics (PR5 registry): ``repro_jobs_queue_depth`` (gauge),
``repro_job_seconds{kind,status}`` (histogram),
``repro_jobs_total{status}`` (counter),
``repro_jobs_workers_busy`` (gauge).  The two gauges are published
from the pool's transition observer — one lock-ordered source of
truth — never from service-side reads that could interleave with
concurrent workers and publish stale values.
"""

from __future__ import annotations

import queue
import time
from typing import Any, Dict, List, Optional

from repro import faults
from repro.faults import FaultError, RetryPolicy
from repro.jobs.model import CANCELLED, DONE, FAILED, Job
from repro.jobs.pool import WorkerPool
from repro.jobs.table import JobTable
from repro.minerule import statement_kind
from repro.obs import context as obs_context
from repro.obs import profile as obs_profile
from repro.obs.context import TraceContext, new_trace_id
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.runlog import RunLog
from repro.sqlengine.dump import dump_table_text
from repro.system import MiningSystem, RunCancelled


class JobQueueFull(Exception):
    """The bounded job queue rejected a submission (back-pressure).

    Carries the already-recorded job (state ``failed``) so callers can
    report its id."""

    def __init__(self, job: Job):
        super().__init__(
            f"job queue full; {job.id} rejected (resubmit later)"
        )
        self.job = job


class JobService:
    """Concurrent statement execution against one mining system."""

    def __init__(
        self,
        system: MiningSystem,
        workers: int = 4,
        queue_size: int = 64,
        capacity: int = 1024,
        metrics: Optional[MetricsRegistry] = None,
        retry_policy: Optional[RetryPolicy] = None,
        runlog: Optional[RunLog] = None,
    ):
        self.system = system
        self.table = JobTable(capacity=capacity)
        #: run-history journal; SQL jobs are recorded here directly
        #: (mine/refresh jobs are recorded by the system, which owns
        #: their stage timings), and on construction finished jobs from
        #: a previous process are rehydrated into the table
        self.runlog = runlog
        if runlog is not None:
            self._rehydrate(runlog)
        self.pool = WorkerPool(
            handler=self._execute, workers=workers, queue_size=queue_size
        )
        self.retry_policy = retry_policy
        #: job id -> per-job retry policy override
        self._policies: Dict[str, RetryPolicy] = {}
        registry = metrics if metrics is not None else NULL_REGISTRY
        self.metrics = registry
        self._queue_depth = registry.gauge(
            "repro_jobs_queue_depth", "Jobs waiting in the bounded queue"
        )
        self._workers_busy = registry.gauge(
            "repro_jobs_workers_busy", "Workers currently executing a job"
        )
        self._job_seconds = registry.histogram(
            "repro_job_seconds",
            "Job execution latency by kind and terminal status",
            ("kind", "status"),
        )
        self._jobs_total = registry.counter(
            "repro_jobs_total", "Jobs finished by terminal status",
            ("status",),
        )
        self.pool.observer = self._publish_pool_gauges

    def _rehydrate(self, runlog: RunLog) -> None:
        """Restore terminal job records from the run-history journal so
        ``GET /jobs`` shows history across a service restart."""
        state_by_status = {"ok": DONE, "cancelled": CANCELLED}
        for record in runlog.list():
            job_id = record.get("job_id")
            if not isinstance(job_id, str) or not job_id:
                continue
            state = state_by_status.get(record.get("status"), FAILED)
            at = record.get("at")
            seconds = record.get("seconds")
            finished = at if isinstance(at, (int, float)) else None
            started = (
                finished - seconds
                if finished is not None and isinstance(seconds, (int, float))
                else finished
            )
            job = Job(
                id=job_id,
                statement=str(record.get("statement", "")),
                kind=str(record.get("kind", "sql")),
                state=state,
                error=record.get("error"),
                attempts=1,
                trace_id=record.get("trace_id"),
                submitted_at=started if started is not None else 0.0,
                started_at=started,
                finished_at=finished,
            )
            self.table.restore(job)

    def _publish_pool_gauges(self, pending: int, busy: int) -> None:
        """Pool transition observer — invoked under the pool's state
        lock, so successive gauge publications are totally ordered."""
        self._queue_depth.set(pending)
        self._workers_busy.set(busy)

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "JobService":
        self.pool.start()
        self._queue_depth.set(0)
        self._workers_busy.set(0)
        return self

    def stop(self) -> None:
        self.pool.stop()

    def __enter__(self) -> "JobService":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # -- submission -----------------------------------------------------

    def submit(
        self,
        statement: str,
        kind: Optional[str] = None,
        retries: Optional[int] = None,
    ) -> Job:
        """Record and enqueue one statement; returns the job record.

        ``kind`` is derived from the text when omitted
        (:func:`repro.minerule.statement_kind`: ``mine`` for MINE RULE,
        ``refresh`` for REFRESH RULES, ``sql`` otherwise; a shell
        dot-command is no job kind and raises ``ValueError``).
        ``retries`` installs a per-job retry policy overriding the
        service default.  A full queue raises :class:`JobQueueFull`;
        an injected ``jobs.submit`` fault lands the job in ``failed``
        with the error recorded.
        """
        text = statement.strip().rstrip(";").strip()
        if not text:
            raise ValueError("empty statement")
        if kind is None:
            kind = statement_kind(text)
        if kind not in ("mine", "refresh", "sql"):
            raise ValueError(f"unknown job kind {kind!r}")
        job = self.table.new_job(text, kind)
        job.trace_id = new_trace_id()
        if retries is not None:
            self._policies[job.id] = RetryPolicy(max_attempts=retries)
        try:
            faults.check("jobs.submit")
            self.pool.submit(job.id)
        except FaultError as exc:
            self._policies.pop(job.id, None)
            self.table.transition(job.id, FAILED, error=str(exc))
            self._jobs_total.inc(status=FAILED)
            return job
        except queue.Full:
            self._policies.pop(job.id, None)
            self.table.transition(job.id, FAILED, error="job queue full")
            self._jobs_total.inc(status=FAILED)
            raise JobQueueFull(job) from None
        return job

    def cancel(self, job_id: str) -> Job:
        """Cancel a job: queued jobs turn ``cancelled`` immediately,
        running ones get the cooperative flag, terminal ones are left
        untouched (idempotent)."""
        return self.table.request_cancel(job_id)

    def get(self, job_id: str) -> Optional[Job]:
        return self.table.get(job_id)

    def list(self, state: Optional[str] = None) -> List[Job]:
        return self.table.list(state)

    def wait(self, job_id: str, timeout: float = 30.0,
             poll: float = 0.01) -> Job:
        """Block until the job reaches a terminal state (tests/CLI)."""
        deadline = time.monotonic() + timeout
        while True:
            job = self.table.get(job_id)
            if job is None:
                raise KeyError(f"no such job: {job_id}")
            if job.terminal:
                return job
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"{job_id} still {job.state} after {timeout}s"
                )
            time.sleep(poll)

    def stats(self) -> Dict[str, Any]:
        """Service snapshot for ``/stats.json`` and ``.jobs``."""
        return {
            "counts": self.table.counts(),
            "total": len(self.table),
            "evicted": self.table.evicted,
            "queue_depth": self.pool.depth,
            "workers": self.pool.workers,
            "workers_busy": self.pool.busy,
            "handler_errors": self.pool.handler_errors,
        }

    # -- execution (worker threads) -------------------------------------

    def _execute(self, job_id: str) -> None:
        job = self.table.try_start(job_id)
        if job is None:  # cancelled while queued
            self._policies.pop(job_id, None)
            return
        policy = self._policies.get(job_id) or self.retry_policy
        if policy is None:
            policy = RetryPolicy.single()
        if job.trace_id is None:
            job.trace_id = new_trace_id()
        context = TraceContext(trace_id=job.trace_id, job_id=job.id)
        status = FAILED
        error_text: Optional[str] = None
        started = time.perf_counter()
        cpu_start = obs_profile.cpu_seconds()
        try:
            with obs_context.activated(context):
                result = policy.execute(
                    lambda: self._run_job(job, policy),
                    stage=f"jobs.run.{job_id}",
                )
            self.table.transition(job_id, DONE, result=result)
            status = DONE
        except RunCancelled as exc:
            error_text = str(exc)
            self.table.transition(job_id, CANCELLED)
            status = CANCELLED
        except Exception as exc:
            error_text = f"{type(exc).__name__}: {exc}"
            self.table.transition(
                job_id, FAILED, error=error_text
            )
            status = FAILED
        finally:
            elapsed = time.perf_counter() - started
            self._policies.pop(job_id, None)
            self._job_seconds.observe(elapsed, kind=job.kind, status=status)
            self._jobs_total.inc(status=status)
            if self.runlog is not None and job.kind == "sql":
                # mine/refresh jobs are journalled by the system with
                # full stage timings; plain SQL never reaches it, so
                # the service records those itself
                self.runlog.record_run(
                    context,
                    "sql",
                    job.statement,
                    {DONE: "ok", CANCELLED: "cancelled"}.get(status, "error"),
                    elapsed,
                    error=error_text,
                    cpu_seconds=round(
                        obs_profile.cpu_seconds() - cpu_start, 6
                    ),
                )

    def _run_job(self, job: Job, policy: RetryPolicy) -> Dict[str, Any]:
        """One execution attempt (the unit the retry policy repeats)."""
        faults.check(f"jobs.run.{job.id}")
        cancel = self.table.cancel_hook(job.id)
        if cancel():
            raise RunCancelled(f"{job.id} cancelled before execution")
        if job.kind == "sql":
            return self._run_sql(job)
        verb = self.system.run if job.kind == "mine" else self.system.refresh
        result = verb(job.statement, retry=policy, cancel=cancel)
        out = result.output_table
        db = self.system.db
        display_table = f"{out}_Display"
        with db.rwlock.read_locked():
            display = (
                dump_table_text(db, display_table)
                if db.catalog.has_table(display_table)
                else None
            )
        rules = sorted(
            (
                sorted(rule.body),
                sorted(rule.head),
                round(rule.support, 9),
                round(rule.confidence, 9),
            )
            for rule in result.rules
        )
        payload = {
            "output_table": out,
            "rule_count": len(result.rules),
            "rules": rules,
            "display": display,
            "run_id": result.run_id,
            "kind": job.kind,
        }
        if job.kind == "mine":
            payload["preprocessing_reused"] = result.preprocessing_reused
        else:
            payload["mode"] = result.stats.mode
            if result.stats.reason:
                payload["reason"] = result.stats.reason
        return payload

    def _run_sql(self, job: Job) -> Dict[str, Any]:
        result = self.system.db.execute(job.statement)
        return {
            "kind": "sql",
            "columns": list(result.columns),
            "rows": [list(row) for row in result.rows],
            "rowcount": result.rowcount,
        }
