"""Targeted stage kills: one deterministic fault per pipeline stage.

Complements the random matrix with surgical checks: killing any single
stage leaves a checkpoint that a resumed run completes bit-identically,
and a schedule that hits *every* stage once in one run is survived by
the retry policy with the counters visible in trace and report.
"""

import pytest

from repro import FaultError, FaultSchedule, RetryPolicy, faults
from repro.report import render_report

from .conftest import (
    NO_SLEEP,
    STATEMENTS,
    fresh_system,
    output_fingerprint,
)

RETRY = RetryPolicy(max_attempts=4, base_delay=0.0, max_delay=0.0)

#: every stage site reachable for the simple statement (Q3 splits into
#: Q3a/Q3b for the simple translation)
SIMPLE_SITES = (
    "engine.execute",
    "preprocessor.Q0*",
    "preprocessor.Q1",
    "preprocessor.Q2a",
    "preprocessor.Q2b",
    "preprocessor.Q3*",
    "preprocessor.Q4",
    "core.load",
    "core.simple",
    "core.bitset",
    "postprocessor.store",
    "postprocessor.decode",
)

#: general-core sites exercised by the paper statement
PAPER_SITES = (
    "preprocessor.Q7",
    "preprocessor.Q11",
    "preprocessor.Q9",
    "core.load",
    "core.bitset",
    "core.lattice",
    "postprocessor.store",
    "postprocessor.decode",
)


def _kill_resume_roundtrip(name, site, call, baselines):
    base_rules, base_text = baselines[name]
    system = fresh_system()
    with faults.injected(FaultSchedule(sleep=NO_SLEEP).arm(site, call=call)):
        with pytest.raises(FaultError) as excinfo:
            system.run(STATEMENTS[name])
    assert excinfo.value.site  # typed, site-attributed failure
    assert system.checkpoint_for(STATEMENTS[name]) is not None

    result = system.run(STATEMENTS[name], resume=True)
    assert result.rule_set() == base_rules
    assert output_fingerprint(system, result.output_table) == base_text
    assert system.checkpoint_for(STATEMENTS[name]) is None
    return result


@pytest.mark.parametrize("site", SIMPLE_SITES)
def test_kill_each_simple_stage_then_resume(site, baselines):
    result = _kill_resume_roundtrip("simple", site, 1, baselines)
    if site.startswith(("core.", "postprocessor.")):
        # preprocessing was already complete when the crash happened,
        # so the resumed run skipped at least those stages
        assert result.resilience.stages_resumed > 0


@pytest.mark.parametrize("site", PAPER_SITES)
def test_kill_each_general_stage_then_resume(site, baselines):
    # call=2 for the lattice site: it is checked once per itemset pair,
    # so the kill lands mid-computation rather than at the first touch
    call = 2 if site == "core.lattice" else 1
    _kill_resume_roundtrip("paper", site, call, baselines)


def test_kill_every_stage_in_one_run_with_retries(baselines):
    """One schedule that faults every stage of the simple pipeline;
    retries carry the run through and the counters surface."""
    base_rules, base_text = baselines["simple"]
    schedule = FaultSchedule(sleep=NO_SLEEP)
    for site in ("preprocessor.Q0*", "preprocessor.Q1", "preprocessor.Q2a",
                 "preprocessor.Q2b", "preprocessor.Q4", "core.load",
                 "postprocessor.store", "postprocessor.decode"):
        schedule.arm(site, call=1)

    system = fresh_system()
    with faults.injected(schedule):
        result = system.run(STATEMENTS["simple"], retry=RETRY)

    assert result.rule_set() == base_rules
    assert output_fingerprint(system, result.output_table) == base_text
    resilience = result.resilience
    assert resilience.faults_injected == len(schedule.specs)
    assert resilience.retries >= len(schedule.specs)

    # counters appear in the process trace ...
    rendered = result.flow.render()
    assert "-- counters --" in rendered
    assert "retries" in rendered
    # ... and in the report
    report_text = render_report(system, result)
    assert "resilience:" in report_text
    assert f"retries {resilience.retries}" in report_text


def test_latency_faults_slow_but_do_not_fail(baselines):
    """Latency faults are counted, surfaced, and harmless."""
    base_rules, base_text = baselines["simple"]
    sleeps = []
    schedule = FaultSchedule(sleep=sleeps.append).arm(
        "engine.execute", call=3, times=2, kind="latency", latency=0.25
    )
    system = fresh_system()
    with faults.injected(schedule):
        result = system.run(STATEMENTS["simple"])
    assert result.rule_set() == base_rules
    assert output_fingerprint(system, result.output_table) == base_text
    assert sleeps == [0.25, 0.25]
    assert result.resilience.latencies_injected == 2
    assert result.resilience.faults_injected == 0
