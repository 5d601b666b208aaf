"""Unit tests for the deterministic fault-injection subsystem."""

import pytest

from repro import faults
from repro.faults import (
    DEFAULT_SITES,
    FaultError,
    FaultSchedule,
    FaultSpec,
    RetryPolicy,
)


class TestFaultSpec:
    def test_call_window(self):
        spec = FaultSpec("core.load", call=2, times=3)
        assert not spec.matches("core.load", 1)
        assert spec.matches("core.load", 2)
        assert spec.matches("core.load", 4)
        assert not spec.matches("core.load", 5)

    def test_glob_site(self):
        spec = FaultSpec("preprocessor.Q*")
        assert spec.matches("preprocessor.Q4", 1)
        assert spec.matches("preprocessor.Q2b", 1)
        assert not spec.matches("postprocessor.store", 1)

    def test_exact_site_does_not_prefix_match(self):
        spec = FaultSpec("preprocessor.Q3")
        assert not spec.matches("preprocessor.Q3a", 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("x", kind="explosion")
        with pytest.raises(ValueError):
            FaultSpec("x", call=0)
        with pytest.raises(ValueError):
            FaultSpec("x", times=0)


class TestFaultSchedule:
    def test_error_fires_inside_window_only(self):
        schedule = FaultSchedule().arm("engine.execute", call=2)
        schedule.check("engine.execute")  # call 1: armed at 2
        with pytest.raises(FaultError) as excinfo:
            schedule.check("engine.execute")
        assert excinfo.value.site == "engine.execute"
        assert excinfo.value.call == 2
        schedule.check("engine.execute")  # call 3: window passed
        assert schedule.errors_injected == 1
        assert schedule.fired == [("engine.execute", 2, "error")]

    def test_counters_are_per_site(self):
        schedule = FaultSchedule().arm("b.site", call=1)
        schedule.check("a.site")
        with pytest.raises(FaultError):
            schedule.check("b.site")
        assert schedule.counts == {"a.site": 1, "b.site": 1}

    def test_latency_fault_sleeps_instead_of_raising(self):
        sleeps = []
        schedule = FaultSchedule(sleep=sleeps.append).arm(
            "core.load", kind="latency", latency=0.5
        )
        schedule.check("core.load")
        assert sleeps == [0.5]
        assert schedule.latencies_injected == 1
        assert schedule.errors_injected == 0

    def test_reset_clears_counters_not_specs(self):
        schedule = FaultSchedule().arm("x", call=1)
        with pytest.raises(FaultError):
            schedule.check("x")
        schedule.reset()
        assert schedule.counts == {}
        with pytest.raises(FaultError):
            schedule.check("x")

    def test_random_is_deterministic(self):
        a = FaultSchedule.random(42)
        b = FaultSchedule.random(42)
        c = FaultSchedule.random(43)
        assert [s.describe() for s in a.specs] == [
            s.describe() for s in b.specs
        ]
        assert a.describe() != c.describe() or a.specs != c.specs
        for spec in a.specs:
            assert spec.site in DEFAULT_SITES

    def test_parse_round_trip(self):
        text = "preprocessor.Q4:1,engine.execute:3*2,core.load:1@0.05"
        schedule = FaultSchedule.parse(text)
        assert [s.describe() for s in schedule.specs] == [
            "preprocessor.Q4:1",
            "engine.execute:3*2",
            "core.load:1@0.05",
        ]
        assert schedule.specs[2].kind == "latency"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultSchedule.parse("justasite")


class TestModuleHooks:
    def test_check_is_noop_without_schedule(self):
        faults.uninstall()
        faults.check("engine.execute")  # no schedule: must not raise
        assert faults.active() is None

    def test_injected_context_installs_and_uninstalls(self):
        schedule = FaultSchedule().arm("x.y", call=1)
        with faults.injected(schedule):
            assert faults.active() is schedule
            with pytest.raises(FaultError):
                faults.check("x.y")
        assert faults.active() is None

    def test_injected_uninstalls_on_error(self):
        with pytest.raises(RuntimeError):
            with faults.injected(FaultSchedule()):
                raise RuntimeError("boom")
        assert faults.active() is None

    def test_dbapi_cursor_checks_its_site(self):
        from repro.sqlengine.dbapi import connect

        connection = connect()
        cursor = connection.cursor()
        with faults.injected(FaultSchedule().arm("dbapi.execute", call=2)):
            cursor.execute("CREATE TABLE T (a INTEGER)")
            with pytest.raises(FaultError):
                cursor.execute("INSERT INTO T VALUES (1)")
            # the fault fired before the engine ran anything
            cursor.execute("INSERT INTO T VALUES (1)")
            cursor.execute("SELECT COUNT(*) FROM T")
            assert cursor.fetchone()[0] == 1


class TestRetryPolicy:
    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(base_delay=0.1, backoff=2.0, max_delay=0.35)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.35)  # capped
        assert policy.delay(9) == pytest.approx(0.35)

    def test_single_never_retries(self):
        calls = []

        def fn():
            calls.append(1)
            raise FaultError("s", 1)

        with pytest.raises(FaultError):
            RetryPolicy.single().execute(fn)
        assert len(calls) == 1

    def test_retries_until_success(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise FaultError("s", len(attempts))
            return "done"

        seen = []
        policy = RetryPolicy(max_attempts=5, base_delay=0.0)
        result = policy.execute(
            flaky,
            stage="core",
            on_retry=lambda stage, n, exc, d: seen.append((stage, n)),
        )
        assert result == "done"
        assert len(attempts) == 3
        assert seen == [("core", 1), ("core", 2)]

    def test_exhausted_attempts_propagate(self):
        def fn():
            raise FaultError("s", 1)

        with pytest.raises(FaultError):
            RetryPolicy(max_attempts=2, base_delay=0.0).execute(fn)

    def test_non_retryable_errors_propagate_immediately(self):
        calls = []

        def fn():
            calls.append(1)
            raise ValueError("genuine bug")

        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=5, base_delay=0.0).execute(fn)
        assert len(calls) == 1

    def test_timeout_budget_stops_retrying(self):
        clock = iter([0.0, 10.0]).__next__  # started, then way past

        def fn():
            raise FaultError("s", 1)

        policy = RetryPolicy(max_attempts=50, base_delay=0.01, timeout=1.0)
        with pytest.raises(FaultError):
            policy.execute(fn, clock=clock, sleep=lambda s: None)

    def test_backoff_sleeps_between_attempts(self):
        sleeps = []
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise FaultError("s", len(attempts))
            return True

        policy = RetryPolicy(max_attempts=4, base_delay=0.01, backoff=2.0,
                             max_delay=1.0)
        assert policy.execute(flaky, sleep=sleeps.append)
        assert sleeps == [pytest.approx(0.01), pytest.approx(0.02)]
