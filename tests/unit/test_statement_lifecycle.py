"""One statement lifecycle: what ``run`` and ``refresh`` must report
alike, whatever the outcome.

The envelope (:meth:`MiningSystem._observed`) is shared, so the
contract is pinned here once, parametrised over the two verbs and the
three outcomes: health, the latency histogram + outcome counter, the
slow log and the journal each receive exactly one observation per
statement, under the series names and record keys a deployed scrape
and ``GET /runs`` already read.  The key lists below are golden: they
are those of the commit before the two envelopes were merged.
"""

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
from repro.jobs.service import JobService
from repro.obs.httpd import HealthState
from repro.obs.metrics import MetricsRegistry
from repro.obs.runlog import RunLog
from repro.obs.slowlog import SlowQueryLog
from repro.system import RunCancelled

STATEMENT = (
    "MINE RULE Lifecycle AS "
    "SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, "
    "SUPPORT, CONFIDENCE "
    "FROM Purchase GROUP BY customer "
    "EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3"
)

#: journal keys every record carries, whatever its kind or outcome
COMMON_KEYS = {
    "id", "at", "kind", "trace_id", "statement", "fingerprint", "status",
    "seconds", "cpu_seconds",
}
#: golden key sets per (verb, outcome); ``run_id`` is only known once
#: the stages returned, ``error`` only when they did not
JOURNAL_KEYS = {
    ("run", "ok"): COMMON_KEYS | {"run_id", "rules", "stages"},
    ("run", "error"): COMMON_KEYS | {"error"},
    ("run", "cancelled"): COMMON_KEYS | {"error"},
    ("refresh", "ok"):
        COMMON_KEYS | {"run_id", "rules", "stages", "mode", "refresh"},
    ("refresh", "error"): COMMON_KEYS | {"error", "mode"},
    ("refresh", "cancelled"): COMMON_KEYS | {"error", "mode"},
}
SERIES = {
    "run": ("repro_minerule_run_seconds", "repro_minerule_runs_total",
            "minerule.run", "mine"),
    "refresh": ("repro_refresh_seconds", "repro_refresh_total",
                "minerule.refresh", "refresh"),
}
STAGES = {"translator", "preprocessor", "core", "postprocessor"}


class Observed:
    """A system under the full sink bundle, mined once so that both
    verbs have something to do."""

    def __init__(self):
        self.metrics = MetricsRegistry()
        self.health = HealthState()
        self.slowlog = SlowQueryLog(threshold=0.0, capacity=100_000)
        self.journal = RunLog()
        database = Database()
        load_purchase_figure1(database)
        self.system = MiningSystem(
            database=database, metrics=self.metrics,
            slowlog=self.slowlog, runlog=self.journal,
        )
        self.system.tracer.attach(self.health)
        self.system.run(STATEMENT)

    def counts(self, verb):
        seconds, total, slow_name, kind = SERIES[verb]
        histogram = self.metrics.get(seconds)  # None before the first
        counter = self.metrics.get(total)
        return {
            "health": self.health.runs,
            "histogram": dict(histogram.samples())[()].count
            if histogram is not None else 0,
            "counter": dict(counter.samples()) if counter is not None else {},
            "slowlog": sum(
                1 for entry in self.slowlog.as_dicts()
                if entry["name"] == slow_name
            ),
            "journal": len(self.journal.list(kind=kind)),
        }

    def call(self, verb, **arguments):
        if verb == "run":
            return self.system.run(STATEMENT, **arguments)
        return self.system.refresh("Lifecycle", **arguments)


def _site(verb):
    return "core.load" if verb == "run" else "refresh.delta"


@pytest.mark.parametrize("outcome", ["ok", "error", "cancelled"])
@pytest.mark.parametrize("verb", ["run", "refresh"])
def test_every_sink_gets_exactly_one_observation(verb, outcome):
    observed = Observed()
    before = observed.counts(verb)
    if outcome == "ok":
        observed.call(verb)
    elif outcome == "error":
        with faults.injected(FaultSchedule().arm(_site(verb))):
            with pytest.raises(FaultError):
                observed.call(verb)
    else:
        with pytest.raises(RunCancelled):
            observed.call(verb, cancel=lambda: True)
    after = observed.counts(verb)

    for sink in ("health", "histogram", "slowlog", "journal"):
        assert after[sink] == before[sink] + 1, sink
    labels = (outcome,) if verb == "run" else (
        outcome, "incremental" if outcome == "ok" else "unknown"
    )
    assert after["counter"].get(labels, 0) == (
        before["counter"].get(labels, 0) + 1
    )
    assert sum(after["counter"].values()) == (
        sum(before["counter"].values()) + 1
    )
    # a cancelled statement is not a failure; an injected one is
    assert observed.health.ok == (outcome != "error")
    assert observed.health.active == 0

    kind = SERIES[verb][3]
    record = observed.journal.list(kind=kind)[-1]
    # the one key this commit adds, only when something happened (here:
    # the injected fault)
    assert ("resilience" in record) == (outcome == "error")
    assert set(record) - {"resilience"} == JOURNAL_KEYS[verb, outcome]
    assert record["status"] == outcome
    if outcome == "ok":
        assert STAGES >= set(record["stages"]) and record["stages"]
    if verb == "run" and outcome == "ok":
        assert set(record["stages"]) == STAGES  # journal.stage_skew_frac


def test_mine_refresh_and_sql_records_share_their_common_keys():
    observed = Observed()
    observed.call("refresh")
    with JobService(observed.system, workers=1) as service:
        job = service.submit("SELECT COUNT(*) FROM Purchase")
        assert service.wait(job.id).state == "done"
    records = {
        kind: observed.journal.list(kind=kind)[-1]
        for kind in ("mine", "refresh", "sql")
    }
    assert set(records["sql"]) == COMMON_KEYS | {"job_id"}
    for record in records.values():
        assert COMMON_KEYS <= set(record)
        assert record["id"] == record["trace_id"]


@pytest.mark.parametrize("verb", ["run", "refresh"])
def test_journal_says_which_fallback_fired(verb):
    """ROADMAP 4(d): a ``resilience`` object per statement that met a
    fault, for mine and refresh alike — and none when nothing
    happened."""
    observed = Observed()
    kind = SERIES[verb][3]
    assert "resilience" not in observed.journal.list(kind="mine")[-1]
    policy = RetryPolicy(max_attempts=2, base_delay=0.0)
    if verb == "run":
        schedule = FaultSchedule().arm("core.bitset", call=1)
    else:
        schedule = FaultSchedule().arm("refresh.recount", call=1)
    with faults.injected(schedule):
        result = observed.call(verb, retry=policy)
    resilience = observed.journal.list(kind=kind)[-1]["resilience"]
    assert set(resilience) == {
        "retries", "faults_injected", "latencies_injected",
    }
    assert resilience["retries"] == result.resilience.retries == 1
    assert resilience["faults_injected"] == 1


def test_refresh_retries_are_events_of_the_core_component():
    """The refresh phases belong to the flow's core component: a retried
    one adds no sixth component to the Figure-3a flow."""
    observed = Observed()
    policy = RetryPolicy(max_attempts=2, base_delay=0.0)
    with faults.injected(FaultSchedule().arm("refresh.delta", call=1)):
        result = observed.call("refresh", retry=policy)
    retries = [e for e in result.flow.events if e.action == "retry"]
    assert [e.component for e in retries] == ["core"]
    assert retries[0].detail.startswith("refresh.delta attempt 1 failed")
    assert set(result.flow.components()) <= STAGES


def test_persistent_core_bitset_fault_is_a_journalled_error():
    """The site has no degrade: a ``core.bitset`` that keeps failing is
    an ``error`` record like any other site's, and running the
    statement again is journalled ``ok`` with the baseline's rules."""
    observed = Observed()
    baseline = observed.system.run(STATEMENT).encoded_rules
    schedule = FaultSchedule().arm("core.bitset", call=1, times=1000)
    with faults.injected(schedule):
        with pytest.raises(FaultError):
            observed.system.run(
                STATEMENT, retry=RetryPolicy(max_attempts=2, base_delay=0.0)
            )
    assert schedule.counts["core.bitset"] == 2  # once per attempt
    failed = observed.journal.list(kind="mine")[-1]
    assert failed["status"] == "error"
    assert "core.bitset" in failed["error"]
    assert observed.metrics.get("repro_fallback_total") is None

    rerun = observed.system.run(STATEMENT)
    assert rerun.encoded_rules == baseline
    assert observed.journal.list(kind="mine")[-1]["status"] == "ok"


@pytest.mark.parametrize("verb", ["run", "refresh"])
def test_a_cancel_never_splits_the_emission(verb):
    """Store -> decode is one unit to a cancel: a hook that turns true
    once the rules are stored comes too late to leave ``<out>`` and
    ``<out>_Display`` apart."""
    observed = Observed()
    post = observed.system._postprocessor
    stored = []
    store = post.store_encoded_rules

    def recording_store(program, rules):
        store(program, rules)
        stored.append(True)

    post.store_encoded_rules = recording_store
    result = observed.call(verb, cancel=lambda: bool(stored))
    assert stored == [True]
    display = observed.system.db.execute(
        "SELECT COUNT(*) FROM Lifecycle_Display"
    ).rows[0][0]
    assert display > 0 and len(result.rules) > 0


def test_forced_full_refresh_keeps_its_reason_in_the_flow():
    observed = Observed()
    observed.call("refresh")
    observed.system.db.execute(
        "UPDATE Purchase SET price = price WHERE customer = 'cust1'"
    )
    result = observed.call("refresh")
    assert result.stats.mode == "full"
    forced = [e for e in result.flow.events
              if e.action == "forced full re-mine"]
    assert len(forced) == 1
    assert forced[0].detail == result.stats.reason
    assert "rewritten in place" in forced[0].detail
    # the re-mine ran in the refresh's own context: one flow, all stages
    assert set(result.timings) == STAGES
    assert result.flow.components()[0] == "core"
    assert observed.journal.list(kind="refresh")[-1]["mode"] == "full"


@pytest.mark.parametrize("statement", [
    "UPDATE Purchase SET item = 'x' WHERE customer = 'nobody'",
    "DELETE FROM Purchase WHERE customer = 'nobody'",
])
def test_dml_matching_no_row_keeps_the_refresh_incremental(statement):
    observed = Observed()
    observed.call("refresh")
    assert observed.system.db.execute(statement).rowcount == 0
    observed.system.db.execute(
        "INSERT INTO Purchase VALUES "
        "(9, 'cust3', 'ski_pants', DATE '1995-12-20', 140, 1)"
    )
    result = observed.call("refresh")
    assert result.stats.mode == "incremental"
    assert result.stats.delta_rows == 1

    scratch = Database()
    load_purchase_figure1(scratch)
    scratch.execute(
        "INSERT INTO Purchase VALUES "
        "(9, 'cust3', 'ski_pants', DATE '1995-12-20', 140, 1)"
    )
    assert MiningSystem(database=scratch).run(STATEMENT).rule_set() == (
        result.rule_set()
    )


@pytest.mark.parametrize("verb", ["run", "refresh"])
def test_failed_and_cancelled_statements_leave_no_open_span(verb):
    """A stage that raised used to leave its component span on the
    tracer's stack, so the next statement's root span nested under it."""
    from repro.obs.spans import Tracer

    tracer = Tracer(enabled=True)
    database = Database()
    load_purchase_figure1(database)
    system = MiningSystem(database=database, tracer=tracer)
    system.run(STATEMENT)
    call = (
        (lambda **kw: system.run(STATEMENT, **kw)) if verb == "run"
        else (lambda **kw: system.refresh("Lifecycle", **kw))
    )
    with faults.injected(FaultSchedule().arm(_site(verb))):
        with pytest.raises(FaultError):
            call()
    polls = iter([False, False, True])
    with pytest.raises(RunCancelled):
        call(cancel=lambda: next(polls, True))  # inside a started phase
    before = len(tracer.spans)
    call()
    roots = [span for span in tracer.spans[before:]
             if span.name == f"minerule.{verb}"]
    assert [(root.depth, root.parent_id) for root in roots] == [(0, None)]


def test_suite_boundaries_are_plain_callables_on_their_classes():
    """What ``benchmarks/suite/boundaries.py`` resolves and wraps."""
    from repro.incremental import RefreshComputation
    from repro.kernel.postprocessor import Postprocessor
    from repro.kernel.preprocessor import Preprocessor

    for owner, names in (
        (MiningSystem, ("run", "refresh")),
        (RefreshComputation, ("delta", "recount")),
        (Preprocessor, ("run",)),
        (Postprocessor, ("store_encoded_rules", "decode", "decoded_rules")),
    ):
        for name in names:
            assert callable(vars(owner).get(name)), (owner, name)
