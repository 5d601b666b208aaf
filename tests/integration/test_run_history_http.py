"""The run-history registry end-to-end, over real HTTP sockets.

Boots the full serving stack with a ``--run-log`` journal and checks
the persistent run history the way a client sees it:

* a mine job executed over ``POST /jobs`` shows up in ``GET /runs``
  with its outcome, stage timings and the job's trace id;
* ``GET /runs/<id>/trace`` serves the run's own Chrome trace slice,
  component spans included;
* after stopping the service and starting a NEW one on the same
  journal file, ``GET /runs`` still returns the history and the jobs
  table is rehydrated (``GET /jobs`` shows the finished job);
* the slow-query view in ``/stats.json`` carries the correlation ids.
"""

import json

import pytest

from repro.serve import MineRuleService
from tests.integration.test_golden_outputs import GOLDEN_STATEMENTS
from tests.integration.test_jobs_http import request, wait_job


@pytest.fixture
def journal(tmp_path):
    return str(tmp_path / "runs.ndjson")


def test_run_history_survives_restart(journal):
    svc = MineRuleService(
        scenario="purchase", port=0, run_log=journal, slow_threshold=0.0,
    )
    with svc:
        base = svc.monitor.url
        status, payload = request(
            "POST", f"{base}/jobs",
            {"statement": GOLDEN_STATEMENTS["simple_associations"]},
        )
        assert status == 201, payload
        job = wait_job(base, payload["job"]["id"])
        assert job["state"] == "done"
        assert job["trace_id"]

        # the run landed in the history with the job's ids
        status, runs = request("GET", f"{base}/runs")
        assert status == 200
        assert runs["total"] == 1
        (run,) = runs["runs"]
        assert run["kind"] == "mine"
        assert run["status"] == "ok"
        assert run["job_id"] == job["id"]
        assert run["trace_id"] == job["trace_id"]
        assert run["rules"] > 0
        assert "core" in run["stages"]
        assert run["cpu_seconds"] >= 0.0

        # full record and the run's own trace slice
        status, record = request("GET", f"{base}/runs/{run['id']}")
        assert status == 200
        assert record["fingerprint"] == run["fingerprint"]
        status, trace = request("GET", f"{base}/runs/{run['id']}/trace")
        assert status == 200
        names = {
            e["name"] for e in trace["traceEvents"] if e["ph"] == "X"
        }
        assert "minerule.run" in names
        assert "core" in names
        assert all(
            e["args"]["trace_id"] == run["trace_id"]
            for e in trace["traceEvents"]
            if e["ph"] == "X"
        )

        # slow-query correlation (threshold 0 keeps everything)
        status, stats = request("GET", f"{base}/stats.json")
        assert status == 200
        mine_rows = [
            row for row in stats["slow_queries"]
            if row["name"] == "minerule.run"
        ]
        assert mine_rows and mine_rows[0]["trace_id"] == run["trace_id"]
        assert mine_rows[0]["job_id"] == job["id"]

        status, _ = request("GET", f"{base}/runs/nope")
        assert status == 404
        run_id = run["id"]
        job_id = job["id"]

    # a NEW service on the same journal: history survives the restart
    reborn = MineRuleService(scenario="purchase", port=0, run_log=journal)
    with reborn:
        base = reborn.monitor.url
        status, runs = request("GET", f"{base}/runs")
        assert status == 200
        assert [r["id"] for r in runs["runs"]] == [run_id]
        status, trace = request("GET", f"{base}/runs/{run_id}/trace")
        assert status == 200
        assert trace["traceEvents"]

        # the jobs table was rehydrated from the journal
        status, jobs = request("GET", f"{base}/jobs")
        assert status == 200
        restored = [j for j in jobs["jobs"] if j["id"] == job_id]
        assert restored and restored[0]["state"] == "done"

        # and new submissions don't collide with restored ids
        status, payload = request("POST", f"{base}/jobs", "SELECT 1")
        assert status == 201
        assert payload["job"]["id"] != job_id
        done = wait_job(base, payload["job"]["id"])
        assert done["state"] == "done"

        # the SQL job was journalled too
        status, runs = request("GET", f"{base}/runs?kind=sql")
        assert status == 200
        assert len(runs["runs"]) == 1
        assert runs["runs"][0]["job_id"] == payload["job"]["id"]


def test_runs_endpoint_limit_and_unmounted(tmp_path):
    svc = MineRuleService(scenario="purchase", port=0)
    with svc:
        base = svc.monitor.url
        # in-memory journal: /runs is mounted and starts empty
        status, runs = request("GET", f"{base}/runs")
        assert status == 200 and runs["runs"] == []
        for n in range(3):
            _, payload = request("POST", f"{base}/jobs", f"SELECT {n}")
            wait_job(base, payload["job"]["id"])
        status, runs = request("GET", f"{base}/runs?limit=2")
        assert status == 200 and len(runs["runs"]) == 2
        status, runs = request("GET", f"{base}/runs?kind=mine")
        assert status == 200 and runs["runs"] == []
