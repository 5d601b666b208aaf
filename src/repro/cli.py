"""Command-line shell for the mining system.

The paper delegates user support to the AMORE environment [4]; this
module provides the equivalent entry point for the reproduction: an
interactive (or scripted) shell that accepts both SQL and MINE RULE
statements against one embedded database.

Usage::

    python -m repro                       # interactive
    python -m repro -c ".load purchase" -c "SELECT * FROM Purchase"
    python -m repro -f session.sql        # run a script

Statements end with ``;`` (or a lone line for meta commands).  Meta
commands start with a dot:

=====================  ==================================================
``.help``              this text
``.tables``            list tables and views
``.schema NAME``       columns of a table
``.load SCENARIO``     load a dataset: purchase | purchase-synthetic |
                       quest | clicks | telecom
``.algorithm NAME``    select the pool algorithm for simple rules
``.explain SQL``       show the physical plan of a SELECT
``.analyze SQL``       EXPLAIN ANALYZE: run the statement once and show
                       actual rows/loops/time per plan node
``.trace [FILE]``      consolidated span report of this session, or
                       write the Chrome trace-event JSON to FILE
                       (requires ``--trace-out``)
``.report [SORT]``     full report of the last MINE RULE run
                       (sort: support | confidence | lift)
``.dump DIR``          persist the database to a directory
``.restore DIR``       load a previously dumped database
``.experiments``       run the full reproduction suite (FIG/SYN)
``.timing on|off``     print per-statement wall time
``.faults [SPEC]``     show resilience counters of the last run, or
                       install a fault schedule (``off`` to remove;
                       spec: ``site:call[*times][@latency],...``)
``.metrics``           Prometheus text dump of the metrics registry
``.slowlog``           slowest recorded statements (serve mode)
``.jobs``              job-service snapshot: states, queue depth,
                       worker utilization (serve mode)
``.quit``              leave the shell
=====================  ==================================================

``python -m repro serve`` starts the long-running serving mode instead:
MINE RULE statements on stdin, a monitoring HTTP endpoint
(``/metrics``, ``/healthz``, ``/stats.json``, ``/trace.json``) on a
side thread — see :mod:`repro.serve`.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List, Optional

from repro import faults
from repro.algorithms import ALGORITHMS
from repro.datagen import (
    QuestParameters,
    load_clickstream,
    load_purchase_figure1,
    load_purchase_synthetic,
    load_quest,
    load_telecom,
)
from repro.faults import FaultError, FaultSchedule, RetryPolicy
from repro.minerule import statement_kind
from repro.minerule.errors import MineRuleError
from repro.obs import context as obs_context
from repro.obs import (
    NULL_TRACER,
    Tracer,
    render_obs_report,
    write_chrome_trace,
)
from repro.sqlengine import Database, EngineOptions
from repro.sqlengine.errors import SqlError
from repro.system import MiningSystem

#: scenario name -> loader(db) used by ``.load``
SCENARIOS: Dict[str, Callable] = {
    "purchase": load_purchase_figure1,
    "purchase-synthetic": load_purchase_synthetic,
    "quest": lambda db: load_quest(db, QuestParameters()),
    "clicks": load_clickstream,
    "telecom": load_telecom,
}


class Shell:
    """Stateful shell: one mining system, one database.

    ``execute`` returns the text that would be printed, which keeps the
    shell fully testable without capturing stdout.
    """

    def __init__(
        self,
        algorithm: str = "apriori",
        retry_policy: Optional[RetryPolicy] = None,
        resume: bool = False,
        tracer: Optional[Tracer] = None,
        metrics=None,
        slowlog=None,
        health=None,
        json_log=None,
        runlog=None,
        batch_size: Optional[int] = None,
        memory_budget: Optional[int] = None,
    ):
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: structured logger (``repro.obs.jsonlog.JsonLogger``) or None
        self.json_log = json_log
        #: executor tuning from ``--batch-size`` / ``--memory-budget``
        #: (None keeps the engine default); validated by EngineOptions
        tuning = {"batch_size": batch_size, "memory_budget": memory_budget}
        options = EngineOptions(
            **{name: value for name, value in tuning.items()
               if value is not None}
        )
        self.system = MiningSystem(
            database=Database(options),
            algorithm=algorithm, retry_policy=retry_policy,
            tracer=self.tracer, metrics=metrics, slowlog=slowlog,
            health=health, runlog=runlog,
        )
        #: job service (``repro.jobs.JobService``) attached by serve
        #: mode so ``.jobs`` can report it; None in the plain shell
        self.jobs = None
        #: resume MINE RULE statements from crash checkpoints
        self.resume = resume
        self.timing = False
        self._buffer: List[str] = []
        #: result of the last MINE RULE statement (for ``.report``)
        self.last_result = None

    @property
    def db(self):
        return self.system.db

    # -- statement interface -------------------------------------------

    def feed(self, line: str) -> Optional[str]:
        """Feed one input line; returns output once a full statement
        (terminated by ``;``) or meta command has accumulated."""
        stripped = line.strip()
        if not self._buffer and stripped.startswith("."):
            return self.execute(stripped)
        self._buffer.append(line)
        if stripped.endswith(";"):
            statement = "\n".join(self._buffer)
            self._buffer = []
            return self.execute(statement)
        return None

    @property
    def pending(self) -> bool:
        return bool(self._buffer)

    def execute(self, text: str) -> str:
        """Execute one complete statement or meta command."""
        text = text.strip().rstrip(";").strip()
        if not text:
            return ""
        kind = statement_kind(text)
        started = time.perf_counter()
        # one trace context per statement, so spans, slow-query
        # entries, run-history records and the statement log line all
        # correlate on the same trace id
        with obs_context.ensure():
            try:
                if kind == "meta":
                    output = self._meta(text)
                elif kind == "mine":
                    output = self._mine(text)
                elif kind == "refresh":
                    output = self._refresh(text)
                else:
                    output = self._sql(text)
                self._log_statement(kind, text, started, ok=True)
                if self.timing:
                    elapsed = (time.perf_counter() - started) * 1000
                    output = f"{output}\n({elapsed:.1f} ms)" if output else (
                        f"({elapsed:.1f} ms)"
                    )
                return output
            except FaultError as exc:
                self._log_statement(
                    kind, text, started, ok=False, error=exc
                )
                return (
                    f"error: {exc}\n"
                    f"(injected fault survived retries; "
                    f"re-run with --resume to continue from the checkpoint)"
                )
            except (SqlError, MineRuleError, KeyError, ValueError) as exc:
                self._log_statement(
                    kind, text, started, ok=False, error=exc
                )
                return f"error: {exc}"

    def _log_statement(
        self, kind: str, text: str, started: float, ok: bool, error=None
    ) -> None:
        if self.json_log is None:
            return
        fields = {
            "kind": kind,
            "statement": " ".join(text.split())[:200],
            "ms": round((time.perf_counter() - started) * 1000, 3),
            "ok": ok,
        }
        if error is not None:
            fields["error"] = str(error)
            self.json_log.error("statement", **fields)
        else:
            self.json_log.log("statement", **fields)

    # -- statement kinds --------------------------------------------------

    def _sql(self, text: str) -> str:
        stripped = text.lstrip()
        if stripped[:16].upper() == "EXPLAIN ANALYZE ":
            return self.db.explain_analyze(stripped[16:])
        if stripped[:8].upper() == "EXPLAIN ":
            return self.db.explain(stripped[8:])
        result = self.db.execute(text)
        if result.columns:
            return f"{result.pretty(limit=50)}\n({len(result)} rows)"
        return f"ok ({result.rowcount} rows affected)"

    def _mine(self, text: str) -> str:
        result = self.system.run(text, resume=self.resume)
        self.last_result = result
        return self._rules_text(result, f"directives: {result.directives}")

    def _refresh(self, text: str) -> str:
        result = self.system.refresh(text, resume=self.resume)
        stats = result.stats
        if stats.mode == "full":
            detail = f"full re-mine ({stats.reason})"
        else:
            detail = (
                f"incremental: {stats.delta_rows} appended rows, "
                f"{stats.delta_pairs} new pairs, "
                f"{stats.recounted_itemsets} itemsets recounted"
            )
        return self._rules_text(
            result, f"refreshed {result.output_table} — {detail}"
        )

    def _rules_text(self, result, headline: str) -> str:
        """What a mined and a refreshed rule set print alike."""
        out = result.output_table
        lines = [
            headline,
            f"{len(result.rules)} rules -> {out}, {out}_Bodies, "
            f"{out}_Heads, {out}_Display",
        ]
        if result.resilience.any():
            lines.append(f"resilience: {result.resilience.describe()}")
        if self.db.catalog.has_table(f"{out}_Display"):
            lines.append(self.db.table(f"{out}_Display").pretty(limit=25))
        return "\n".join(lines)

    # -- meta commands -----------------------------------------------------

    def _meta(self, text: str) -> str:
        parts = text.split(None, 1)
        command = parts[0].lower()
        argument = parts[1].strip() if len(parts) > 1 else ""
        if command in (".help", ".h"):
            return __doc__.split("Usage::", 1)[1]
        if command == ".tables":
            tables = sorted(t.name for t in self.db.catalog.tables())
            views = sorted(v.name for v in self.db.catalog.views())
            lines = [f"  {name}" for name in tables]
            lines += [f"  {name} (view)" for name in views]
            return "\n".join(lines) if lines else "(no tables)"
        if command == ".schema":
            if not argument:
                return "usage: .schema TABLE"
            described = self.db.catalog.describe(argument)
            return "\n".join(
                f"  {name} {ctype or '?'}" for name, ctype in described
            )
        if command == ".load":
            loader = SCENARIOS.get(argument)
            if loader is None:
                return (
                    f"unknown scenario {argument!r}; "
                    f"available: {', '.join(sorted(SCENARIOS))}"
                )
            table = loader(self.db)
            self.system.invalidate_preprocessing()
            return f"loaded {table.name} ({len(table)} rows)"
        if command == ".algorithm":
            if argument not in ALGORITHMS:
                return (
                    f"unknown algorithm {argument!r}; "
                    f"available: {', '.join(sorted(ALGORITHMS))}"
                )
            from repro.algorithms import get_algorithm

            self.system.algorithm = get_algorithm(argument)
            return f"core algorithm set to {argument}"
        if command == ".explain":
            if not argument:
                return "usage: .explain SELECT ..."
            return self.db.explain(argument)
        if command == ".analyze":
            if not argument:
                return "usage: .analyze STATEMENT (executes it once)"
            return self.db.explain_analyze(argument)
        if command == ".trace":
            if not self.tracer.enabled:
                return (
                    "tracing is off; start the shell with "
                    "--trace-out FILE to record spans"
                )
            if argument:
                path = write_chrome_trace(self.tracer, argument)
                return f"wrote Chrome trace ({len(self.tracer.spans)} spans) to {path}"
            return render_obs_report(self.tracer)
        if command == ".experiments":
            from repro.experiments import generate_report

            return generate_report()
        if command == ".report":
            if self.last_result is None:
                return "no MINE RULE statement executed yet"
            from repro.report import ReportOptions, render_report

            sort_by = argument or "support"
            metrics = self.system.compute_metrics(
                self.last_result, store=False
            )
            return render_report(
                self.system,
                self.last_result,
                metrics,
                ReportOptions(sort_by=sort_by),
            )
        if command == ".dump":
            if not argument:
                return "usage: .dump DIRECTORY"
            from repro.sqlengine.dump import dump_database

            target = dump_database(self.db, argument)
            return f"dumped catalog to {target}"
        if command == ".restore":
            if not argument:
                return "usage: .restore DIRECTORY"
            from repro.sqlengine.dump import load_database

            # rebind the live system (same journal, retry policy and
            # sinks; an attached job service follows), same executor
            # options
            database = load_database(argument)
            database.options = self.db.options
            self.system.attach(database)
            return f"restored catalog from {argument}"
        if command == ".timing":
            self.timing = argument.lower() == "on"
            return f"timing {'on' if self.timing else 'off'}"
        if command == ".faults":
            if argument.lower() == "off":
                faults.uninstall()
                return "fault schedule removed"
            if argument:
                faults.install(FaultSchedule.parse(argument))
                return f"fault schedule installed: {argument}"
            schedule = faults.active()
            lines = []
            if schedule is not None:
                lines.append(
                    f"active schedule: {len(schedule.specs)} spec(s), "
                    f"{schedule.errors_injected} error(s) and "
                    f"{schedule.latencies_injected} latency fault(s) fired"
                )
            else:
                lines.append("no fault schedule installed")
            if self.last_result is not None:
                lines.append(
                    f"last run: {self.last_result.resilience.describe()}"
                )
            return "\n".join(lines)
        if command == ".metrics":
            metrics = self.system.metrics
            if not metrics.enabled:
                return (
                    "metrics are off; serve mode (python -m repro serve) "
                    "collects them, or pass a registry to the Shell"
                )
            from repro.obs.promtext import render_prometheus

            return render_prometheus(metrics).rstrip("\n")
        if command == ".slowlog":
            if self.system.slowlog is None:
                return "no slow-query log attached (serve mode has one)"
            return self.system.slowlog.render()
        if command == ".jobs":
            if self.jobs is None:
                return (
                    "no job service attached (serve mode runs one; "
                    "POST /jobs on the monitoring port)"
                )
            stats = self.jobs.stats()
            lines = [
                f"workers: {stats['workers']} "
                f"({stats['workers_busy']} busy), "
                f"queue depth: {stats['queue_depth']}",
                f"jobs: {stats['total']} "
                f"({stats['evicted']} evicted)",
            ]
            for state in sorted(stats["counts"]):
                lines.append(f"  {state}: {stats['counts'][state]}")
            recent = self.jobs.list()[-10:]
            for job in recent:
                runtime = job.runtime()
                suffix = (
                    f" [{runtime * 1000:.1f} ms]"
                    if runtime is not None
                    else ""
                )
                lines.append(
                    f"  {job.id} {job.state} ({job.kind}){suffix}"
                )
            return "\n".join(lines)
        if command in (".quit", ".exit", ".q"):
            raise EOFError
        return f"unknown command {command!r}; try .help"


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "serve":
        from repro.serve import main as serve_main

        return serve_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MINE RULE shell (tightly-coupled data mining); "
        "'repro serve' starts the monitored serving mode",
    )
    parser.add_argument(
        "-c", "--command", action="append", default=[],
        help="statement to run (repeatable); skips the interactive loop",
    )
    parser.add_argument(
        "-f", "--file", help="run statements from a script file"
    )
    parser.add_argument(
        "--algorithm", default="apriori",
        choices=sorted(ALGORITHMS),
        help="pool algorithm for simple rules",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume MINE RULE statements from crash checkpoints",
    )
    parser.add_argument(
        "--batch-size", type=int, default=None, metavar="ROWS",
        help="rows per batch in the vectorized executor "
        "(default: engine default)",
    )
    parser.add_argument(
        "--memory-budget", type=int, default=None, metavar="BYTES",
        help="estimated bytes an executor operator may hold before "
        "spilling to disk (default: unbounded)",
    )
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="retry faulted pipeline stages up to N attempts "
        "(capped exponential backoff)",
    )
    parser.add_argument(
        "--fault-schedule", default=None, metavar="SPEC",
        help="install a deterministic fault schedule, e.g. "
        "'preprocessor.Q4:1;engine.execute:3*2' or 'seed=42' "
        "for a random one",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="record spans + EXPLAIN ANALYZE for every statement and "
        "write a Chrome trace-event JSON (chrome://tracing, Perfetto) "
        "to FILE on exit",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit one structured JSON log line per statement on stderr",
    )
    parser.add_argument(
        "--profile-mem", action="store_true",
        help="with --trace-out: attribute peak traced memory to spans "
        "via tracemalloc (costs real time)",
    )
    args = parser.parse_args(argv)

    if args.fault_schedule:
        spec = args.fault_schedule
        if spec.startswith("seed="):
            faults.install(FaultSchedule.random(int(spec[5:])))
        else:
            faults.install(FaultSchedule.parse(spec))
    retry_policy = (
        RetryPolicy(max_attempts=args.retries)
        if args.retries is not None
        else None
    )
    tracer = (
        Tracer(enabled=True, analyze=True, profile_mem=args.profile_mem)
        if args.trace_out
        else NULL_TRACER
    )
    json_log = None
    if args.log_json:
        from repro.obs.jsonlog import JsonLogger

        json_log = JsonLogger()
    shell = Shell(
        algorithm=args.algorithm,
        retry_policy=retry_policy,
        resume=args.resume,
        tracer=tracer,
        json_log=json_log,
        batch_size=args.batch_size,
        memory_budget=args.memory_budget,
    )
    try:
        if args.command or args.file:
            statements = list(args.command)
            if args.file:
                with open(args.file, "r", encoding="utf-8") as handle:
                    statements.extend(
                        chunk.strip()
                        for chunk in handle.read().split(";")
                        if chunk.strip()
                    )
            for statement in statements:
                output = shell.execute(statement)
                if output:
                    print(output)
            return 0

        print("repro MINE RULE shell — .help for commands, .quit to exit")
        while True:
            prompt = "   ...> " if shell.pending else "repro> "
            try:
                line = input(prompt)
            except EOFError:
                print()
                return 0
            try:
                output = shell.feed(line)
            except EOFError:
                return 0
            if output:
                print(output)
    finally:
        if args.trace_out:
            path = write_chrome_trace(tracer, args.trace_out)
            print(f"trace written to {path} ({len(tracer.spans)} spans)")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
