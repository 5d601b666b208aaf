"""The server side of ``service_mixed``: one ``MineRuleService`` with
the quest table loaded and a stable ``QBase`` rule table mined.

Protocol with the parent (``service.py``): one JSON line on stdout
when ready; ``trace on`` / ``trace off`` lines on stdin are answered
with one JSON line each; end of stdin stops the service and prints a
last JSON line (peak RSS, and the per-layer metrics when traced).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)


def say(payload) -> None:
    print(json.dumps(payload), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    args = parser.parse_args()

    from repro.serve import MineRuleService

    from benchmarks.suite import service, workloads
    from benchmarks.suite.checks import rows_fingerprint, rules_digest

    started = time.perf_counter()
    server = MineRuleService(port=0, job_workers=service.JOB_WORKERS)
    db = server.shell.db
    workloads.load_quest_table(db, args.seed, args.size)
    load_s = time.perf_counter() - started
    server.start()
    tracing = None
    try:
        statement = workloads.quest_statement(args.size)
        base = server.shell.system.run(statement.text(
            workloads.QUEST_SETUP_CONFIDENCE, table=service.BASE_TABLE
        ))
        source = db.execute("SELECT * FROM Baskets").rows
        say({
            "port": server.monitor.port,
            "load_s": load_s,
            "input": rows_fingerprint(source),
            "base_digest": rules_digest(base.rule_set()),
            "answers": [
                [list(row) for row in db.execute(sql).rows]
                for sql in service.queries(statement.min_support)
            ],
        })
        del source
        for line in sys.stdin:
            command = line.strip()
            if command == "trace on":
                if tracing is None:
                    from benchmarks.suite.boundaries import Tracing

                    tracing = Tracing()
                tracing.install()
            elif command == "trace off" and tracing is not None:
                tracing.uninstall()
            say({"ack": command})
    finally:
        if tracing is not None:
            tracing.uninstall()
        server.stop()
    last = {
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracing is not None:
        from benchmarks.suite.layers import LayerAccumulator

        layers = LayerAccumulator()
        layers.add(tracing.recorder.drain())
        last["layers"] = layers.metrics(tracing.missing_spans)
        last["missing_boundaries"] = tracing.missing
    say(last)
    return 0


if __name__ == "__main__":
    sys.exit(main())
