"""Unit tests for the jobs subsystem: state machine, table, pool,
service, and the transport-agnostic REST router."""

import json
import queue
import threading
import time

import pytest

from repro import Database, MiningSystem
from repro.datagen import load_purchase_figure1
from repro.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    STATES,
    TERMINAL,
    TRANSITIONS,
    InvalidTransition,
    Job,
    JobQueueFull,
    JobService,
    JobTable,
    WorkerPool,
)
from repro.jobs.api import JobsApi
from repro.obs.metrics import MetricsRegistry

MINE = (
    "MINE RULE JobRules AS "
    "SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, "
    "SUPPORT, CONFIDENCE "
    "FROM Purchase GROUP BY customer "
    "EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3"
)


def make_service(metrics=None, **kwargs) -> JobService:
    """A service over the Figure 1 data; *metrics* is attached to the
    system's tracer, where the service finds it."""
    database = Database()
    load_purchase_figure1(database)
    system = MiningSystem(database=database, metrics=metrics)
    return JobService(system, **kwargs)


# ---------------------------------------------------------------------------
# state machine
# ---------------------------------------------------------------------------


class TestStateMachine:
    def test_state_universe(self):
        assert STATES == {QUEUED, RUNNING, DONE, FAILED, CANCELLED}
        assert set(TRANSITIONS) == STATES

    def test_terminal_states_have_no_exits(self):
        assert TERMINAL == {DONE, FAILED, CANCELLED}
        for state in TERMINAL:
            assert not TRANSITIONS[state]

    def test_happy_path(self):
        job = Job(id="j", statement="SELECT 1")
        assert job.state == QUEUED
        job.transition(RUNNING)
        assert job.attempts == 1
        assert job.started_at is not None
        job.transition(DONE)
        assert job.terminal
        assert job.finished_at is not None
        assert job.runtime() is not None

    def test_requeue_resets_timestamps_and_counts_attempts(self):
        job = Job(id="j", statement="SELECT 1")
        job.transition(RUNNING)
        job.transition(QUEUED)
        assert job.started_at is None and job.finished_at is None
        job.transition(RUNNING)
        assert job.attempts == 2

    @pytest.mark.parametrize("terminal", sorted(TERMINAL))
    @pytest.mark.parametrize("target", sorted(STATES))
    def test_terminal_states_are_sticky(self, terminal, target):
        job = Job(id="j", statement="SELECT 1", state=terminal)
        with pytest.raises(InvalidTransition):
            job.transition(target)
        assert job.state == terminal

    def test_queued_cannot_jump_to_done(self):
        job = Job(id="j", statement="SELECT 1")
        with pytest.raises(InvalidTransition):
            job.transition(DONE)

    def test_unknown_state_rejected(self):
        job = Job(id="j", statement="SELECT 1")
        with pytest.raises(InvalidTransition):
            job.transition("exploded")

    def test_to_dict_hides_result_by_default(self):
        job = Job(id="j", statement="SELECT 1")
        job.result = {"rows": [[1]]}
        assert "result" not in job.to_dict()
        assert job.to_dict(with_result=True)["result"] == {"rows": [[1]]}


# ---------------------------------------------------------------------------
# job table
# ---------------------------------------------------------------------------


class TestJobTable:
    def test_ids_are_unique_and_ordered(self):
        table = JobTable()
        ids = [table.new_job("SELECT 1", "sql").id for _ in range(5)]
        assert len(set(ids)) == 5
        assert [j.id for j in table.list()] == ids

    def test_transition_records_error_and_result(self):
        table = JobTable()
        job = table.new_job("SELECT 1", "sql")
        table.transition(job.id, RUNNING)
        table.transition(job.id, DONE, result={"ok": True})
        assert table.get(job.id).result == {"ok": True}

    def test_try_start_skips_cancelled(self):
        table = JobTable()
        job = table.new_job("SELECT 1", "sql")
        table.request_cancel(job.id)
        assert table.get(job.id).state == CANCELLED
        assert table.try_start(job.id) is None

    def test_cancel_running_sets_flag_only(self):
        table = JobTable()
        job = table.new_job("SELECT 1", "sql")
        assert table.try_start(job.id) is not None
        table.request_cancel(job.id)
        record = table.get(job.id)
        assert record.state == RUNNING
        assert record.cancel_requested
        assert table.cancel_hook(job.id)()

    def test_cancel_terminal_is_noop(self):
        table = JobTable()
        job = table.new_job("SELECT 1", "sql")
        table.try_start(job.id)
        table.transition(job.id, DONE)
        assert table.request_cancel(job.id).state == DONE

    def test_capacity_evicts_only_terminal(self):
        table = JobTable(capacity=2)
        done = table.new_job("SELECT 1", "sql")
        table.try_start(done.id)
        table.transition(done.id, DONE)
        live = [table.new_job("SELECT 1", "sql") for _ in range(3)]
        assert table.get(done.id) is None  # evicted
        assert table.evicted == 1
        assert all(table.get(j.id) is not None for j in live)

    def test_counts(self):
        table = JobTable()
        a = table.new_job("SELECT 1", "sql")
        table.new_job("SELECT 2", "sql")
        table.try_start(a.id)
        assert table.counts() == {QUEUED: 1, RUNNING: 1}

    def test_unknown_job_raises(self):
        table = JobTable()
        with pytest.raises(KeyError):
            table.transition("job-404", RUNNING)


# ---------------------------------------------------------------------------
# worker pool
# ---------------------------------------------------------------------------


class TestWorkerPool:
    def test_executes_all_items(self):
        seen = []
        lock = threading.Lock()

        def handler(item):
            with lock:
                seen.append(item)

        pool = WorkerPool(handler, workers=4, queue_size=32).start()
        for i in range(20):
            pool.submit(i)
        pool.queue.join()
        pool.stop()
        assert sorted(seen) == list(range(20))

    def test_bounded_queue_rejects(self):
        pool = WorkerPool(lambda item: None, workers=1, queue_size=2)
        # not started: nothing drains the queue
        pool.submit(1)
        pool.submit(2)
        with pytest.raises(queue.Full):
            pool.submit(3)

    def test_handler_exception_does_not_kill_worker(self):
        results = []

        def handler(item):
            if item == "boom":
                raise RuntimeError("boom")
            results.append(item)

        pool = WorkerPool(handler, workers=1).start()
        pool.submit("boom")
        pool.submit("ok")
        pool.queue.join()
        pool.stop()
        assert results == ["ok"]

    def test_handler_exception_is_logged_and_counted(self, caplog):
        def handler(item):
            raise RuntimeError(f"boom {item}")

        pool = WorkerPool(handler, workers=1).start()
        with caplog.at_level("ERROR", logger="repro.jobs"):
            pool.submit("a")
            pool.submit("b")
            pool.queue.join()
        pool.stop()
        assert pool.handler_errors == 2
        records = [r for r in caplog.records if r.name == "repro.jobs"]
        assert len(records) == 2
        assert "RuntimeError: boom a" in caplog.text  # the traceback
        assert records[0].exc_info is not None

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(lambda item: None, workers=0)
        with pytest.raises(ValueError):
            WorkerPool(lambda item: None, queue_size=0)


# ---------------------------------------------------------------------------
# job service
# ---------------------------------------------------------------------------


class TestJobService:
    def test_sql_job_end_to_end(self):
        service = make_service(workers=2)
        with service:
            job = service.submit("SELECT COUNT(*) AS n FROM Purchase")
            assert job.kind == "sql"
            done = service.wait(job.id)
        assert done.state == DONE
        assert done.result["rows"] == [[8]]
        assert done.result["columns"] == ["n"]

    def test_mine_job_end_to_end(self):
        service = make_service(workers=2)
        with service:
            job = service.submit(MINE)
            assert job.kind == "mine"
            done = service.wait(job.id, timeout=60)
        assert done.state == DONE
        assert done.result["rule_count"] > 0
        assert done.result["output_table"] == "JobRules"
        assert done.result["display"].startswith("BODY\tHEAD")

    def test_failed_sql_job_records_error(self):
        service = make_service(workers=1)
        with service:
            job = service.submit("SELECT * FROM NoSuchTable")
            done = service.wait(job.id)
        assert done.state == FAILED
        assert "NoSuchTable" in done.error

    def test_queue_full_raises_and_marks_failed(self):
        service = make_service(workers=1, queue_size=1)
        # pool deliberately not started: submissions pile up
        first = service.submit("SELECT 1")
        with pytest.raises(JobQueueFull) as excinfo:
            service.submit("SELECT 2")
        rejected = excinfo.value.job
        assert rejected.state == FAILED
        assert rejected.error == "job queue full"
        assert service.get(first.id).state == QUEUED

    def test_cancel_queued_job(self):
        service = make_service(workers=1, queue_size=8)
        # not started: the job can never begin
        job = service.submit("SELECT 1")
        cancelled = service.cancel(job.id)
        assert cancelled.state == CANCELLED
        # starting later must skip it
        with service:
            service.pool.queue.join()
        assert service.get(job.id).state == CANCELLED

    def test_empty_statement_rejected(self):
        service = make_service()
        with pytest.raises(ValueError):
            service.submit("   ;  ")

    def test_unparsable_mining_statements_are_refused_at_submit(self):
        service = make_service()
        for text, message in (
            ("MINE RULE R AS SELECT DISTINCT garbage", "expected"),
            ("REFRESH RULES", "expected"),
            # check 2: the body schema overlaps the grouping attributes
            ("MINE RULE R AS SELECT DISTINCT 1..n customer AS BODY, "
             "1..1 item AS HEAD, SUPPORT, CONFIDENCE FROM Purchase "
             "GROUP BY customer EXTRACTING RULES WITH SUPPORT: 0.1, "
             "CONFIDENCE: 0.1", "disjoint"),
        ):
            with pytest.raises(ValueError, match=message):
                service.submit(text)
        assert len(service.table) == 0
        # a column check waits for the run: a queued SQL job may
        # create the source table first
        job = service.submit(
            "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, "
            "1..1 item AS HEAD, SUPPORT, CONFIDENCE FROM Later "
            "GROUP BY customer EXTRACTING RULES WITH SUPPORT: 0.1, "
            "CONFIDENCE: 0.1"
        )
        assert job.kind == "mine"

    def test_metrics_series_populated(self):
        registry = MetricsRegistry()
        service = make_service(workers=2, metrics=registry)
        with service:
            job = service.submit("SELECT COUNT(*) AS n FROM Purchase")
            service.wait(job.id)
        snapshot = registry.snapshot()
        assert "repro_jobs_queue_depth" in snapshot
        assert "repro_job_seconds" in snapshot
        assert "repro_jobs_total" in snapshot
        assert "repro_jobs_workers_busy" in snapshot
        totals = snapshot["repro_jobs_total"]["samples"]
        assert any(
            s["labels"] == {"status": DONE} and s["value"] == 1
            for s in totals
        )

    def test_stats_snapshot(self):
        service = make_service(workers=3)
        with service:
            job = service.submit("SELECT 1")
            service.wait(job.id)
            stats = service.stats()
        assert stats["workers"] == 3
        assert stats["counts"][DONE] == 1

    def test_refresh_job_end_to_end(self):
        service = make_service(workers=2)
        with service:
            mined = service.wait(service.submit(MINE).id, timeout=60)
            assert mined.state == DONE
            job = service.submit("REFRESH RULES JobRules")
            assert job.kind == "refresh"
            done = service.wait(job.id, timeout=60)
        assert done.state == DONE
        assert done.result["kind"] == "refresh"
        assert done.result["mode"] == "incremental"
        assert done.result["rules"] == mined.result["rules"]
        assert done.result["display"] == mined.result["display"]

    def test_refresh_job_without_prior_run_fails(self):
        service = make_service(workers=1)
        with service:
            done = service.wait(service.submit("REFRESH RULES Ghost").id)
        assert done.state == FAILED
        assert "Ghost" in done.error

    def test_gauges_settle_to_zero_under_hammer(self):
        """Regression for the gauge race: depth/busy were read from the
        pool *after* submit / inside workers, so concurrent publishes
        overwrote fresh values with stale ones and the gauges could end
        non-zero.  The pool's transition observer is now the only
        writer; after any amount of concurrent traffic both gauges must
        read exactly 0."""
        registry = MetricsRegistry()
        service = make_service(
            workers=4, queue_size=512, metrics=registry
        )
        errors = []

        def hammer(thread_index):
            try:
                for i in range(25):
                    job = service.submit(
                        f"SELECT {thread_index} + {i}"
                    )
                    if i % 5 == 0:
                        service.wait(job.id, timeout=30)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        with service:
            threads = [
                threading.Thread(target=hammer, args=(t,))
                for t in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            service.pool.queue.join()
            assert not errors
            depth = registry.gauge("repro_jobs_queue_depth", "").value()
            busy = registry.gauge("repro_jobs_workers_busy", "").value()
        assert depth == 0
        assert busy == 0
        assert service.pool.depth == 0
        assert service.pool.busy == 0


# ---------------------------------------------------------------------------
# REST router
# ---------------------------------------------------------------------------


class TestJobsApi:
    def setup_method(self):
        self.service = make_service(workers=2)
        self.service.start()
        self.api = JobsApi(self.service)

    def teardown_method(self):
        self.service.stop()

    def post(self, body):
        if isinstance(body, dict):
            body = json.dumps(body).encode()
        elif isinstance(body, str):
            body = body.encode()
        return self.api.handle("POST", "/jobs", body)

    def test_not_our_path(self):
        assert self.api.handle("GET", "/metrics") is None
        assert self.api.handle("GET", "/healthz") is None

    def test_submit_json_and_poll(self):
        code, payload = self.post(
            {"statement": "SELECT COUNT(*) AS n FROM Purchase"}
        )
        assert code == 201
        job_id = payload["job"]["id"]
        self.service.wait(job_id)
        code, payload = self.api.handle("GET", f"/jobs/{job_id}")
        assert code == 200
        assert payload["job"]["state"] == DONE
        code, payload = self.api.handle("GET", f"/jobs/{job_id}/result")
        assert code == 200
        assert payload["job"]["result"]["rows"] == [[8]]

    def test_submit_raw_statement_body(self):
        code, payload = self.post("SELECT 1")
        assert code == 201
        assert payload["job"]["kind"] == "sql"

    def test_submit_validation(self):
        assert self.post(b"")[0] == 400
        assert self.post({"nope": 1})[0] == 400
        assert self.post({"statement": "SELECT 1", "retries": 0})[0] == 400
        assert self.api.handle("POST", "/jobs", b"{broken")[0] == 400
        jobs = len(self.service.table)
        code, payload = self.post(
            {"statement": "MINE RULE R AS SELECT DISTINCT garbage"}
        )
        assert code == 400 and "error" in payload
        assert len(self.service.table) == jobs

    def test_result_before_done_is_409(self):
        table_job = self.service.table.new_job("SELECT 1", "sql")
        code, payload = self.api.handle(
            "GET", f"/jobs/{table_job.id}/result"
        )
        assert code == 409
        assert payload["job"]["state"] == QUEUED

    def test_unknown_job_404(self):
        assert self.api.handle("GET", "/jobs/job-404")[0] == 404
        assert self.api.handle("GET", "/jobs/job-404/result")[0] == 404
        assert self.api.handle("DELETE", "/jobs/job-404")[0] == 404

    def test_list_and_filter(self):
        code, payload = self.post("SELECT 1")
        self.service.wait(payload["job"]["id"])
        code, payload = self.api.handle("GET", "/jobs")
        assert code == 200
        assert payload["jobs"]
        assert "queue_depth" in payload["stats"]
        code, payload = self.api.handle(
            "GET", "/jobs", None, {"state": DONE}
        )
        assert all(j["state"] == DONE for j in payload["jobs"])
        assert self.api.handle(
            "GET", "/jobs", None, {"state": "nope"}
        )[0] == 400

    def test_cancel_route(self):
        job = self.service.table.new_job("SELECT 1", "sql")
        code, payload = self.api.handle("DELETE", f"/jobs/{job.id}")
        assert code == 200
        assert payload["job"]["state"] == CANCELLED

    def test_method_not_allowed(self):
        assert self.api.handle("PUT", "/jobs")[0] == 405
        assert self.api.handle("POST", "/jobs/job-1")[0] == 405
        assert self.api.handle("DELETE", "/jobs/job-1/result")[0] == 405

    def test_queue_full_maps_to_503(self):
        service = make_service(workers=1, queue_size=1)
        api = JobsApi(service)  # pool not started: queue fills
        assert api.handle("POST", "/jobs", b"SELECT 1")[0] == 201
        code, payload = api.handle("POST", "/jobs", b"SELECT 2")
        assert code == 503
        assert payload["job"]["state"] == FAILED
