"""Serving mode: MINE RULE over stdin + HTTP with a monitoring endpoint.

``python -m repro serve`` turns the shell into a long-running service:

* statements arrive on **stdin** using the shell's line protocol
  (``;``-terminated SQL / MINE RULE statements, dot meta commands) and
  results stream to stdout — one process can sit behind a pipe, a
  socket relay or a test harness;
* statements also arrive over **HTTP** as jobs (:mod:`repro.jobs`):
  ``POST /jobs`` submits, ``GET /jobs/<id>`` polls,
  ``GET /jobs/<id>/result`` retrieves, ``DELETE /jobs/<id>`` cancels;
  a bounded worker pool executes jobs concurrently against the same
  database the stdin loop uses (``--job-workers`` sizes it);
* a **monitoring HTTP server** (:mod:`repro.obs.httpd`) runs on a side
  thread: ``/metrics`` (Prometheus text), ``/healthz`` (503 while the
  last run failed), ``/stats.json`` (registry snapshot + slow-query
  log), ``/trace.json`` (Chrome trace of the session);
* every statement is observed: per-statement SQL latency histograms,
  per-Q preprocessor stage timings, core-operator counters, per-job
  queue-depth/latency series, a slow-query ring buffer, and (with
  ``--log-json``) one structured JSON log line per statement on
  stderr.

Quickstart::

    python -m repro serve --port 8077 --load purchase &
    curl -s -X POST localhost:8077/jobs -d 'MINE RULE r AS SELECT ...'
    curl -s localhost:8077/jobs/job-1
    curl -s localhost:8077/jobs/job-1/result
    curl -s localhost:8077/metrics | grep repro_job
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import faults
from repro.algorithms import ALGORITHMS
from repro.cli import SCENARIOS, Shell, positive_int, span_summary
from repro.faults import FaultSchedule, RetryPolicy
from repro.jobs.api import JobsApi
from repro.jobs.service import JobService
from repro.obs.export import render_chrome_trace, write_chrome_trace
from repro.obs.httpd import HealthState, MonitoringServer
from repro.obs.jsonlog import JsonLogger
from repro.obs.metrics import MetricsRegistry
from repro.obs.runlog import RunLog
from repro.obs.slowlog import SlowQueryLog
from repro.obs.spans import Tracer


class MineRuleService:
    """One serving session: shell + registry + monitor, wired together.

    Construction builds the full observability bundle — an enabled
    tracer with a metrics registry, a slow-query log, health state and
    the run journal attached as views, shared with the mining system —
    and a monitoring server (not yet started; call :meth:`start` or use
    ``with``).
    """

    def __init__(
        self,
        algorithm: str = "apriori",
        scenario: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        slow_threshold: float = 0.050,
        analyze: bool = False,
        log_json: bool = False,
        retry_policy: Optional[RetryPolicy] = None,
        metrics: Optional[MetricsRegistry] = None,
        job_workers: int = 4,
        job_queue: int = 64,
        run_log: Optional[str] = None,
        profile_mem: bool = False,
    ):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = Tracer(
            enabled=True,
            analyze=analyze,
            metrics=self.metrics,
            profile_mem=profile_mem,
        )
        attach = self.tracer.attach
        self.slowlog = attach(SlowQueryLog(threshold=slow_threshold))
        self.health = attach(HealthState())
        #: persistent run history — NDJSON journal when ``run_log``
        #: names a file (replayed on startup, so /runs and the jobs
        #: table survive a restart), purely in-memory otherwise
        self.runlog = attach(RunLog(path=run_log))
        self.json_log = JsonLogger() if log_json else None
        self.shell = Shell(
            algorithm=algorithm,
            retry_policy=retry_policy,
            tracer=self.tracer,
            json_log=self.json_log,
        )
        if scenario is not None:
            loader = SCENARIOS[scenario]
            loader(self.shell.db)
        #: concurrent job execution against the same mining system the
        #: stdin loop drives — jobs and stdin statements interleave
        #: safely through the engine's reader/writer lock
        self.jobs = JobService(
            self.shell.system,
            workers=job_workers,
            queue_size=job_queue,
            retry_policy=retry_policy,
        )
        self.shell.jobs = self.jobs
        self.monitor = MonitoringServer(
            registry=self.metrics,
            health=self.health,
            stats=self.stats,
            trace=lambda: render_chrome_trace(self.tracer),
            host=host,
            port=port,
            api=JobsApi(self.jobs),
            runlog=self.runlog,
        )

    # ------------------------------------------------------------------

    def start(self) -> "MineRuleService":
        self.jobs.start()
        self.monitor.start()
        if self.json_log is not None:
            self.json_log.log(
                "serve.start",
                url=self.monitor.url,
                endpoints=["/metrics", "/healthz", "/stats.json",
                           "/trace.json", "/runs", "/jobs"],
                job_workers=self.jobs.pool.workers,
            )
        return self

    def stop(self) -> None:
        self.monitor.stop()
        self.jobs.stop()
        if self.json_log is not None:
            self.json_log.log("serve.stop")

    def __enter__(self) -> "MineRuleService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def feed(self, line: str) -> Optional[str]:
        """One input line of the shell protocol; output once a full
        statement has accumulated."""
        return self.shell.feed(line)

    def stats(self) -> dict:
        """The ``/stats.json`` payload."""
        return {
            "health": self.health.snapshot(),
            "jobs": self.jobs.stats(),
            "statements_executed": self.shell.db.statements_executed,
            "slow_queries": self.slowlog.as_dicts(),
            "slow_queries_total": self.slowlog.total_recorded,
            "slow_threshold_ms": round(self.slowlog.threshold * 1000, 3),
            "metrics": self.metrics.snapshot(),
        }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="serving-mode MINE RULE: statements on stdin, "
        "monitoring endpoint on the side",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="monitoring bind address"
    )
    parser.add_argument(
        "--port", type=int, default=8077,
        help="monitoring port (0 picks an ephemeral one)",
    )
    parser.add_argument(
        "--load", default=None, choices=sorted(SCENARIOS), metavar="SCENARIO",
        help="preload a dataset: " + ", ".join(sorted(SCENARIOS)),
    )
    parser.add_argument(
        "--algorithm", default="apriori", choices=sorted(ALGORITHMS),
        help="pool algorithm for simple rules",
    )
    parser.add_argument(
        "--slow-threshold-ms", type=float, default=50.0, metavar="MS",
        help="statements slower than this land in the slow-query log",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="one structured JSON log line per statement on stderr",
    )
    parser.add_argument(
        "--analyze", action="store_true",
        help="capture EXPLAIN ANALYZE for every preprocessing query",
    )
    parser.add_argument(
        "--retries", type=positive_int, default=None, metavar="N",
        help="retry faulted pipeline stages up to N attempts",
    )
    parser.add_argument(
        "--job-workers", type=positive_int, default=4, metavar="N",
        help="worker threads executing HTTP-submitted jobs",
    )
    parser.add_argument(
        "--job-queue", type=positive_int, default=64, metavar="N",
        help="bounded job queue size (full queue answers 503)",
    )
    parser.add_argument(
        "--fault-schedule", type=FaultSchedule.parse, default=None,
        metavar="SPEC",
        help="install a deterministic fault schedule (chaos drills)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write the session's Chrome trace-event JSON to FILE on exit",
    )
    parser.add_argument(
        "--run-log", default=None, metavar="FILE",
        help="append-only NDJSON run-history journal backing GET /runs "
        "(replayed on startup, so history survives restarts)",
    )
    parser.add_argument(
        "--profile-mem", action="store_true",
        help="attribute peak traced memory to spans via tracemalloc "
        "(costs real time; off by default)",
    )
    args = parser.parse_args(argv)

    if args.fault_schedule is not None:
        faults.install(args.fault_schedule)
    retry_policy = (
        RetryPolicy(max_attempts=args.retries)
        if args.retries is not None
        else None
    )
    service = MineRuleService(
        algorithm=args.algorithm,
        scenario=args.load,
        host=args.host,
        port=args.port,
        slow_threshold=args.slow_threshold_ms / 1000.0,
        analyze=args.analyze,
        log_json=args.log_json,
        retry_policy=retry_policy,
        job_workers=args.job_workers,
        job_queue=args.job_queue,
        run_log=args.run_log,
        profile_mem=args.profile_mem,
    )
    service.start()
    print(
        f"repro serve — monitoring on {service.monitor.url} "
        f"(/metrics /healthz /stats.json /trace.json /runs /jobs); "
        f"statements on stdin, ; terminated; "
        f"POST /jobs submits statements over HTTP",
        file=sys.stderr,
        flush=True,
    )
    try:
        for line in sys.stdin:
            try:
                output = service.feed(line)
            except EOFError:  # .quit
                break
            if output:
                print(output, flush=True)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        if args.trace_out:
            path = write_chrome_trace(service.tracer, args.trace_out)
            print(
                f"trace written to {path} ({span_summary(service.tracer)})",
                file=sys.stderr, flush=True,
            )
        service.stop()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
