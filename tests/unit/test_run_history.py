"""Unit tests for the run-tracing layer added with the run history:

* trace context propagation (``repro.obs.context``), the child-process
  tracer and splicing its events under a parent span;
* per-span resource attribution (CPU, opt-in tracemalloc peaks);
* the persistent run-history journal (``repro.obs.runlog``): replay,
  corruption tolerance, duplicate ids, the capacity bound;
* the satellites: monotonic job durations, JobTable.restore, and
  trace-id correlation in the JSON log and the slow-query log.
"""

import io
import json
import threading

import pytest

from repro.jobs.model import DONE, QUEUED, RUNNING, Job
from repro.jobs.table import JobTable
from repro.obs import (
    JsonLogger,
    RunLog,
    SlowQueryLog,
    TraceContext,
    Tracer,
    activated,
    current,
    ensure,
    new_trace_id,
    statement_fingerprint,
)
from repro.obs import profile


class TestTraceContext:
    def test_no_ambient_context_by_default(self):
        assert current() is None

    def test_activated_installs_and_restores(self):
        context = TraceContext(trace_id="t1", job_id="job-9")
        with activated(context):
            assert current() is context
        assert current() is None

    def test_activated_stacks(self):
        outer = TraceContext(trace_id="outer")
        inner = TraceContext(trace_id="inner")
        with activated(outer):
            with activated(inner):
                assert current().trace_id == "inner"
            assert current().trace_id == "outer"

    def test_ensure_reuses_active_context(self):
        context = TraceContext(trace_id="t2")
        with activated(context):
            with ensure() as ctx:
                assert ctx is context

    def test_ensure_creates_fresh_context(self):
        with ensure() as ctx:
            assert ctx.trace_id
            assert current() is ctx
        assert current() is None

    def test_context_is_thread_local(self):
        seen = {}

        def probe():
            seen["other"] = current()

        with activated(TraceContext(trace_id="main-only")):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
        assert seen["other"] is None

    def test_fields_skips_missing_ids(self):
        context = TraceContext(trace_id="t3", run_id=7)
        assert context.fields() == {"trace_id": "t3", "run_id": 7}

    def test_new_trace_ids_are_distinct(self):
        assert new_trace_id() != new_trace_id()


class TestResourceAttribution:
    def test_spans_capture_cpu_seconds(self):
        tracer = Tracer()
        with tracer.span("busy"):
            sum(i * i for i in range(50_000))
        (span,) = tracer.spans
        assert span.cpu is not None and span.cpu >= 0.0

    def test_profile_mem_attributes_peak_bytes(self):
        was_tracing = profile.memory_tracking_active()
        tracer = Tracer(profile_mem=True)
        try:
            with tracer.span("alloc"):
                blob = bytearray(4 * 1024 * 1024)
                del blob
            (span,) = tracer.spans
            assert span.peak_bytes is not None
            assert span.peak_bytes >= 4 * 1024 * 1024
        finally:
            if not was_tracing:
                profile.stop_memory_tracking()

    def test_peak_bytes_none_without_profiling(self):
        tracer = Tracer()
        with tracer.span("quiet"):
            pass
        assert tracer.spans[0].peak_bytes is None


class TestRunLog:
    def test_record_and_get(self):
        log = RunLog()
        log.record(id="r1", kind="mine", status="ok", seconds=1.0)
        assert len(log) == 1
        assert log.get("r1")["status"] == "ok"
        assert log.get("missing") is None

    def test_list_filters_and_elides_trace(self):
        log = RunLog()
        log.record(id="a", kind="mine", status="ok", trace=[{"ph": "X"}])
        log.record(id="b", kind="sql", status="ok")
        assert [r["id"] for r in log.list()] == ["a", "b"]
        assert [r["id"] for r in log.list(kind="sql")] == ["b"]
        assert "trace" not in log.list()[0]
        assert log.trace("a") == [{"ph": "X"}]
        assert log.trace("b") is None

    def test_journal_survives_restart(self, tmp_path):
        path = str(tmp_path / "runs.ndjson")
        log = RunLog(path=path)
        log.record(id="r1", kind="mine", status="ok", trace=[{"ph": "X"}])
        log.record(id="r2", kind="refresh", status="error")

        reborn = RunLog(path=path)
        assert reborn.replayed == 2
        assert reborn.get("r1")["kind"] == "mine"
        assert reborn.trace("r1") == [{"ph": "X"}]

    def test_replay_skips_corrupt_lines(self, tmp_path):
        path = tmp_path / "runs.ndjson"
        path.write_text(
            json.dumps({"id": "good", "kind": "mine"})
            + "\nnot json at all\n"
            + json.dumps(["not", "a", "dict"])
            + "\n"
            + json.dumps({"kind": "no id"})
            + "\n",
            encoding="utf-8",
        )
        log = RunLog(path=str(path))
        assert log.replayed == 1
        assert log.corrupt_lines == 3
        assert log.get("good") is not None

    def test_duplicate_ids_get_suffixed(self):
        log = RunLog()
        first = log.record(id="dup", kind="mine")
        second = log.record(id="dup", kind="mine")
        assert first["id"] == "dup"
        assert second["id"] == "dup-2"
        assert len(log) == 2

    def test_capacity_bounds_index(self):
        log = RunLog(capacity=3)
        for n in range(5):
            log.record(id=f"r{n}", kind="sql")
        assert len(log) == 3
        assert log.get("r0") is None
        assert log.get("r4") is not None

    def test_statement_fingerprint_normalizes_whitespace_and_case(self):
        a = statement_fingerprint("MINE RULE  x AS\n SELECT 1")
        b = statement_fingerprint("mine rule x as select 1")
        c = statement_fingerprint("mine rule y as select 1")
        assert a == b != c


class TestJobSatellites:
    def test_runtime_uses_monotonic_clock(self, monkeypatch):
        import repro.jobs.model as model

        wall = iter([1000.0, 500.0])  # wall clock stepping backwards
        mono = iter([10.0, 12.5])
        monkeypatch.setattr(model.time, "time", lambda: next(wall))
        monkeypatch.setattr(model.time, "monotonic", lambda: next(mono))
        job = Job(id="job-1", statement="SELECT 1")
        job.transition(RUNNING)
        job.transition(DONE)
        # the wall-clock difference is -500s; the duration is not
        assert job.runtime() == pytest.approx(2.5)
        assert job.finished_at < job.started_at  # display keeps wall

    def test_runtime_falls_back_to_wall_clock_for_restored_jobs(self):
        job = Job(
            id="job-2",
            statement="SELECT 1",
            state=DONE,
            started_at=100.0,
            finished_at=103.0,
        )
        assert job.runtime() == pytest.approx(3.0)

    def test_to_dict_includes_trace_id(self):
        job = Job(id="job-3", statement="SELECT 1", trace_id="abc")
        assert job.to_dict()["trace_id"] == "abc"

    def test_table_restore_registers_terminal_job(self):
        table = JobTable()
        restored = Job(
            id="job-7", statement="SELECT 1", state=DONE, trace_id="t"
        )
        assert table.restore(restored) is True
        assert table.restore(restored) is False  # duplicate
        assert table.get("job-7").trace_id == "t"
        # new submissions never collide with restored history
        fresh = table.new_job("SELECT 2", "sql")
        assert fresh.id == "job-8"

    def test_table_restore_rejects_live_jobs(self):
        table = JobTable()
        with pytest.raises(ValueError):
            table.restore(Job(id="job-1", statement="x", state=QUEUED))


class TestLogCorrelation:
    def test_json_log_lines_carry_context_ids(self):
        stream = io.StringIO()
        logger = JsonLogger(stream=stream)
        with activated(TraceContext(trace_id="t1", job_id="job-4")):
            logger.log("statement", sql="SELECT 1")
        logger.log("statement", sql="SELECT 2")
        first, second = [
            json.loads(line) for line in stream.getvalue().splitlines()
        ]
        assert first["trace_id"] == "t1"
        assert first["job_id"] == "job-4"
        assert "trace_id" not in second

    def test_json_log_explicit_fields_win_over_ambient(self):
        stream = io.StringIO()
        logger = JsonLogger(stream=stream)
        with activated(TraceContext(trace_id="ambient")):
            logger.log("statement", trace_id="explicit")
        record = json.loads(stream.getvalue())
        assert record["trace_id"] == "explicit"

    def test_slowlog_entries_carry_context_ids(self):
        slowlog = SlowQueryLog(threshold=0.0)
        with activated(TraceContext(trace_id="t5", job_id="job-6", run_id=3)):
            slowlog.record("minerule.run", 0.2, detail="MINE RULE x")
        slowlog.record("sql.Select", 0.1)
        tagged, untagged = slowlog.as_dicts()
        assert tagged["trace_id"] == "t5"
        assert tagged["job_id"] == "job-6"
        assert tagged["run_id"] == 3
        assert "trace_id" not in untagged
