"""System-level resilience semantics: checkpoints, validation, and
the retry-policy plumbing of :meth:`MiningSystem.run`."""

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

STATEMENT = (
    "MINE RULE ResumeCheck AS "
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


class TestCheckpoints:
    def test_resume_without_checkpoint_is_a_normal_run(self, system):
        result = system.run(STATEMENT, resume=True)
        assert result.rules
        assert result.resilience.stages_resumed == 0

    def test_crash_leaves_checkpoint_success_consumes_it(self, system):
        _crash(system)
        checkpoint = system.checkpoint_for(STATEMENT)
        assert checkpoint is not None
        assert checkpoint.completed_queries
        assert checkpoint.encoded_rules is None  # crashed before core
        system.run(STATEMENT, resume=True)
        assert system.checkpoint_for(STATEMENT) is None

    def test_whitespace_differences_share_one_checkpoint(self, system):
        _crash(system)
        reformatted = STATEMENT.replace(" FROM", "\n  FROM")
        assert system.checkpoint_for(reformatted) is not None
        result = system.run(reformatted, resume=True)
        assert result.resilience.stages_resumed > 0

    def test_plain_run_ignores_checkpoint(self, system):
        _crash(system)
        result = system.run(STATEMENT)  # resume not requested
        assert result.resilience.stages_resumed == 0
        assert result.rules

    def test_stale_checkpoint_restarts_from_scratch(self, system):
        _crash(system)
        checkpoint = system.checkpoint_for(STATEMENT)
        # an encoded table changed underneath the checkpoint
        victim = next(iter(checkpoint.table_snapshot))
        system.db.catalog.get_table(victim).rows.append(
            system.db.catalog.get_table(victim).rows[0]
        )
        result = system.run(STATEMENT, resume=True)
        assert result.rules
        assert result.resilience.stages_resumed == 0
        assert any(
            event.action == "checkpoint discarded"
            for event in result.flow.events
        )

    def test_checkpoint_store_is_bounded(self, system):
        cap = MiningSystem._CHECKPOINT_CAP
        for i in range(cap + 5):
            statement = STATEMENT.replace("ResumeCheck", f"Out{i}")
            with faults.injected(FaultSchedule().arm("core.load")):
                with pytest.raises(FaultError):
                    system.run(statement)
        assert len(system._checkpoints) == cap

    def test_invalidate_preprocessing_drops_checkpoints(self, system):
        _crash(system)
        system.invalidate_preprocessing()
        assert system.checkpoint_for(STATEMENT) is None

    def test_discarded_checkpoint_sweeps_its_workspace(self, system):
        """Satellite fix: a stale checkpoint discarded on
        ``resume=True`` used to leak its workspace — the restarted run
        mints a fresh prefix, so the orphaned encoded tables were never
        dropped.  The discard path now sweeps the old prefix."""
        _crash(system, site="core.load")
        checkpoint = system.checkpoint_for(STATEMENT)
        prefix = checkpoint.workspace_prefix
        orphans = [
            t.name for t in system.db.catalog.tables()
            if t.name.startswith(prefix)
        ]
        assert orphans  # the crash left encoded tables behind
        # drop one encoded table mid-crash: the checkpoint is now stale
        victim = next(iter(checkpoint.table_snapshot))
        system.db.catalog.drop_table(victim)
        result = system.run(STATEMENT, resume=True)
        assert result.rules
        assert result.resilience.stages_resumed == 0
        leaked = [
            t.name for t in system.db.catalog.tables()
            if t.name.startswith(prefix)
        ]
        assert leaked == []
        assert any(
            event.action == "swept orphaned workspace"
            for event in result.flow.events
        )
        # the sweep also evicts reuse-cache entries pointing at the
        # dropped prefix, or a later statement would be handed
        # just-dropped encoded tables
        assert all(
            entry[0].prefix != prefix
            for entry in system._preprocess_cache.values()
        )


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
        keeps its checkpoint, and a resumed run finishes it."""
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
        assert system.checkpoint_for(STATEMENT) is not None
        assert dict(registry.get("repro_fallback_total").samples()) == {}
        assert not any("core_fallback" in span.args for span in tracer.spans)

        resumed = system.run(STATEMENT, resume=True)
        assert resumed.rule_set() == quiet.rule_set()
        assert resumed.encoded_rules == quiet.encoded_rules
        assert resumed.resilience.stages_resumed > 0
        assert resumed.core_stats.representation == "bitset"
        assert system.checkpoint_for(STATEMENT) is None
