"""System-level resilience semantics: re-running a crashed statement,
and the retry-policy plumbing of :meth:`MiningSystem.run`."""

import pytest

from repro import (
    Database,
    FaultError,
    FaultSchedule,
    MiningSystem,
    RetryPolicy,
    faults,
)
from repro.datagen import load_purchase_figure1
from repro.system import RunCancelled
from tests.chaos.conftest import workspace_prefixes

STATEMENT = (
    "MINE RULE RerunCheck AS "
    "SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, "
    "SUPPORT, CONFIDENCE "
    "FROM Purchase GROUP BY customer "
    "EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3"
)


@pytest.fixture
def system():
    database = Database()
    load_purchase_figure1(database)
    return MiningSystem(database=database)


def _crash(system, site="core.load"):
    with faults.injected(FaultSchedule().arm(site)):
        with pytest.raises(FaultError):
            system.run(STATEMENT)


@pytest.fixture(scope="module")
def baseline():
    database = Database()
    load_purchase_figure1(database)
    return MiningSystem(database=database).run(STATEMENT).rule_set()


class TestRerunAfterCrash:
    """A crashed statement is finished by running it again.  The failed
    run drops its workspace unless the reuse cache holds it, so the
    catalog keeps nothing of it or a finished set of encoded tables."""

    def test_preprocessing_crash_then_rerun_leaves_one_workspace(
        self, system, baseline
    ):
        _crash(system, site="preprocessor.Q4")
        assert workspace_prefixes(system) == set()
        result = system.run(STATEMENT)
        assert result.rule_set() == baseline
        assert not result.preprocessing_reused
        assert workspace_prefixes(system) == {"MR2"}

    def test_core_crash_then_rerun_reuses_the_tables(self, system, baseline):
        _crash(system, site="core.bitset")
        assert workspace_prefixes(system) == {"MR1"}  # complete, and cached
        result = system.run(STATEMENT)
        assert result.preprocessing_reused
        assert result.rule_set() == baseline
        assert workspace_prefixes(system) == {"MR1"}

    def test_without_reuse_a_failed_core_leaves_no_workspace(self, baseline):
        database = Database()
        load_purchase_figure1(database)
        system = MiningSystem(database=database, reuse_preprocessing=False)
        _crash(system, site="core.load")
        assert workspace_prefixes(system) == set()
        result = system.run(STATEMENT)
        assert not result.preprocessing_reused
        assert result.rule_set() == baseline
        assert workspace_prefixes(system) == {"MR2"}

    def test_cancelled_run_leaves_no_partial_workspace(
        self, system, baseline
    ):
        # cancel at the first poll after Q3 wrote Bset: mid-preprocessing
        with pytest.raises(RunCancelled):
            system.run(
                STATEMENT,
                cancel=lambda: system.db.catalog.has_table("MR1_Bset"),
            )
        assert workspace_prefixes(system) == set()
        assert system.run(STATEMENT).rule_set() == baseline
        assert workspace_prefixes(system) == {"MR2"}


class TestRetryPlumbing:
    def test_system_wide_retry_policy_is_used(self):
        database = Database()
        load_purchase_figure1(database)
        system = MiningSystem(
            database=database,
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.0),
        )
        with faults.injected(FaultSchedule().arm("core.load")):
            result = system.run(STATEMENT)
        assert result.rules
        assert result.resilience.retries == 1
        assert result.resilience.faults_injected == 1

    def test_per_call_retry_overrides_system_policy(self, system):
        # system has no retry policy; the call-level one saves the run
        with faults.injected(FaultSchedule().arm("postprocessor.store")):
            result = system.run(
                STATEMENT, retry=RetryPolicy(max_attempts=2, base_delay=0.0)
            )
        assert result.rules
        assert result.resilience.retries == 1

    def test_execute_keeps_single_attempt_semantics(self, system):
        with faults.injected(FaultSchedule().arm("core.load")):
            with pytest.raises(FaultError):
                system.execute(STATEMENT)

    def test_fault_free_run_reports_quiet_resilience(self, system):
        result = system.run(STATEMENT)
        assert result.resilience is not None
        assert not result.resilience.any()
        assert "resilience" not in result.flow.render().split("counters")[0]


class TestLoudDegradation:
    def test_persistent_bitset_fault_fails_the_stage(self):
        """``core.bitset`` has no slower path to fall back to: once the
        retries are spent the statement fails like at any other site,
        and running it again finishes it on the reused encoded
        tables."""
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.spans import Tracer

        database = Database()
        load_purchase_figure1(database)
        registry = MetricsRegistry()
        tracer = Tracer(enabled=True)
        system = MiningSystem(
            database=database, tracer=tracer, metrics=registry
        )
        quiet = system.run(STATEMENT)

        schedule = FaultSchedule().arm("core.bitset", times=99)
        policy = RetryPolicy(max_attempts=3, base_delay=0.0)
        with faults.injected(schedule):
            with pytest.raises(FaultError) as excinfo:
                system.run(STATEMENT, retry=policy)
        assert excinfo.value.site == "core.bitset"
        assert schedule.errors_injected == 3  # every attempt, then up
        assert registry.get("repro_fallback_total") is None
        assert not any("core_fallback" in span.args for span in tracer.spans)

        rerun = system.run(STATEMENT)
        assert rerun.rule_set() == quiet.rule_set()
        assert rerun.encoded_rules == quiet.encoded_rules
        assert rerun.preprocessing_reused
        (core,) = [s for s in rerun.flow.spans() if "variant" in s.args]
        assert core.args["representation"] == "bitset"
