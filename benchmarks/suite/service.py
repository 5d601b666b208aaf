"""The client side of ``service_mixed``: starts the server child, then
drives two connections against its HTTP job routes.

Connection M is a closed loop (the next mining statement goes out
``think`` seconds after the previous result was read); connection Q is
an open loop of SELECT jobs at a fixed rate, timed from when each job
was due.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from benchmarks.suite import workloads
from benchmarks.suite.catalog import SERVICE_MIXED, metric
from benchmarks.suite.checks import Checker
from benchmarks.suite.loadgen import JobTiming, OpenLoop, run_job
from benchmarks.suite.stats import summarize

BASE_TABLE = "QBase"
JOB_WORKERS = 2
QUERY_RATE = 10.0
THINK_S = {"full": 1.0, "quick": 0.05}
QUICK_SECONDS = 2.0
#: the child is killed if the whole run takes longer than this
WATCHDOG_S = 170.0

CHILD = Path(__file__).with_name("service_child.py")


def queries(min_support: float) -> List[str]:
    """The three SELECT shapes over the stable rule tables: a filtered
    aggregate, a join and a grouped scan."""
    return [
        f"SELECT COUNT(*), MAX(CONFIDENCE) FROM {BASE_TABLE} "
        f"WHERE SUPPORT >= {min_support * 2}",
        f"SELECT h.item, COUNT(*) FROM {BASE_TABLE} r, {BASE_TABLE}_Heads h "
        f"WHERE r.HeadId = h.HeadId GROUP BY h.item ORDER BY h.item",
        f"SELECT b.item, COUNT(*) FROM {BASE_TABLE}_Bodies b "
        f"GROUP BY b.item ORDER BY b.item",
    ]


class Window:
    """One measured stretch of the two connections."""

    def __init__(self, port: int, seconds: float, size: str,
                 statement: workloads.Statement, answers: List[Any]):
        self.port = port
        self.think = THINK_S[size]
        self.statement = statement
        self.answers = answers
        self.selects = queries(statement.min_support)
        self.loop = OpenLoop(QUERY_RATE, max(3, int(QUERY_RATE * seconds)))
        #: (confidence, timing) per mining statement
        self.mined: List[Tuple[float, JobTiming]] = []
        #: per SELECT job: "" or what was wrong
        self.query_errors: List[str] = []
        self._stop = threading.Event()

    def _mine_loop(self) -> None:
        index = 0
        while not self._stop.is_set():
            rotation = workloads.QUEST_ROTATION
            confidence = rotation[index % len(rotation)]
            self.mined.append(
                (confidence, run_job(self.port, self.statement.text(confidence)))
            )
            index += 1
            self._stop.wait(self.think)

    def _query(self, index: int) -> None:
        kind = index % len(self.selects)
        timing = run_job(self.port, self.selects[kind])
        if not timing.ok:
            self.query_errors.append(timing.error)
        elif timing.result.get("rows") != self.answers[kind]:
            self.query_errors.append(f"select {kind}: answer changed")
        else:
            self.query_errors.append("")

    def run(self) -> None:
        miner = threading.Thread(target=self._mine_loop, name="connection-M")
        miner.start()
        try:
            self.loop.run(self._query)
        finally:
            self._stop.set()
            miner.join()


def _read(child: subprocess.Popen) -> Dict[str, Any]:
    line = child.stdout.readline()
    if not line:
        raise RuntimeError(
            f"service child ended early (exit code {child.wait()})"
        )
    return json.loads(line)


def _command(child: subprocess.Popen, command: str) -> None:
    child.stdin.write(command + "\n")
    child.stdin.flush()
    _read(child)


def run_service(
    seed: int, seconds: float, size: str, traced: bool,
    expected: Optional[Dict[str, Any]], started: float,
) -> Dict[str, Any]:
    checker = Checker(SERVICE_MIXED, seed, size, expected)
    statement = workloads.quest_statement(size)
    if size == "quick":
        seconds = QUICK_SECONDS
    child = subprocess.Popen(
        [sys.executable, str(CHILD), "--seed", str(seed), "--size", size],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    watchdog = threading.Timer(WATCHDOG_S, child.kill)
    watchdog.daemon = True
    watchdog.start()
    windows: List[Tuple[bool, Window]] = []
    try:
        ready = _read(child)
        setup_s = time.perf_counter() - started
        plan = [(False, seconds / 2), (True, seconds / 2)] if traced \
            else [(False, seconds)]
        for with_trace, span in plan:
            window = Window(ready["port"], span, size, statement,
                            ready["answers"])
            if with_trace:
                _command(child, "trace on")
            window.run()
            if with_trace:
                _command(child, "trace off")
            windows.append((with_trace, window))
        child.stdin.close()
        last = _read(child)
        child.wait(timeout=30)
    finally:
        watchdog.cancel()
        if child.poll() is None:
            child.kill()
            child.wait()

    checker.check_input(ready["input"])
    checker.check_digest("base", ready["base_digest"])
    for _with_trace, window in windows:
        for confidence, timing in window.mined:
            problems = [timing.error] if not timing.ok else []
            if timing.ok:
                problems = checker.check_rules(
                    f"confidence={confidence}", timing.result["rules"],
                    statement.min_support, confidence,
                )
                if not timing.result.get("preprocessing_reused"):
                    problems.append("encoded tables were not reused")
            checker.operation(not problems, "; ".join(problems))
        for error in window.query_errors:
            checker.operation(not error, error)

    def mined(with_trace: bool) -> List[JobTiming]:
        return [t for flag, w in windows if flag == with_trace
                for _c, t in w.mined if t.ok]

    plain = windows[0][1]
    statements = summarize([t.total_s for t in mined(False)])
    latency = summarize(plain.loop.latency, tail=90)
    result: Dict[str, Any] = {
        "end_to_end": {
            "setup_s": metric("setup_s", setup_s),
            "stmt_s_p50": metric("stmt_s_p50", statements["p50"],
                                 statements["n"]),
            "peak_rss_mb": metric("peak_rss_mb", last["peak_rss_mb"]),
            "query_s_p50": metric("query_s_p50", latency["p50"],
                                  latency["n"]),
            "query_s_p90": metric("query_s_p90", latency["p90"],
                                  latency["n"]),
        },
        "checker": checker,
        "info": {"load_s": ready["load_s"],
                 "rows": ready["input"]["rows"]},
    }
    if traced:
        layers: Dict[str, Optional[float]] = dict(last.get("layers", {}))
        jobs = mined(True)

        def median_of(attribute: str) -> Optional[float]:
            values = [getattr(t, attribute) for t in jobs]
            return statistics.median(values) if values else None

        traced_window = windows[1][1]
        traced_stmt = median_of("total_s")
        layers.update({
            "jobs.submit_s": median_of("submit_s"),
            "jobs.queue_wait_s": median_of("queue_wait_s"),
            "jobs.run_s": median_of("run_s"),
            "jobs.result_s": median_of("result_s"),
            "jobs.poll_requests": median_of("polls"),
            "loadgen.late_s_p50": statistics.median(traced_window.loop.late),
            "loadgen.late_s_max": max(traced_window.loop.late),
            "query_s_p50": latency["p50"],
            "query_s_p90": latency["p90"],
            "datagen.load_s": ready["load_s"],
            "datagen.rows": ready["input"]["rows"],
            "bench.trace_overhead_frac": (
                traced_stmt / statements["p50"] - 1.0
                if traced_stmt and statements["p50"] else None
            ),
        })
        result["per_layer"] = layers
        result["missing_boundaries"] = last.get("missing_boundaries", [])
    return result
