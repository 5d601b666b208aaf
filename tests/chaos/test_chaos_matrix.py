"""The chaos matrix: seeded fault schedules against the MINE RULE
pipeline.

Three invariants, checked over every (statement, seed) combination:

* **fail-closed** — without retries, an injected error either surfaces
  as a typed :class:`FaultError` or (if the fault never fired / only
  added latency) the output is bit-identical to the fault-free
  baseline.  Never a wrong answer,
  never a half-written output relation accepted as success.
* **fail-forward** — with a generous retry policy, every schedule the
  matrix generates is survivable, and the mined output is bit-identical
  to the baseline.
* **re-run** — without retries, running the statement again after each
  crash drains the schedule, and the output is bit-identical to the
  baseline with one workspace left in the catalog.
"""

import pytest

from repro import FaultError, FaultSchedule, RetryPolicy, faults

from .conftest import (
    CHAOS_MATRIX,
    CHAOS_SITES,
    NO_SLEEP,
    STATEMENTS,
    fresh_system,
    output_fingerprint,
    workspace_prefixes,
)

#: random schedules arm at most 3 specs x 2 repeats; one stage can
#: therefore absorb at most 6 consecutive errors, so 8 attempts always
#: clear it.  Zero delays: the suite tests ordering, not waiting.
GENEROUS = RetryPolicy(max_attempts=8, base_delay=0.0, max_delay=0.0)


def schedule_for(seed: int) -> FaultSchedule:
    return FaultSchedule.random(seed, sites=CHAOS_SITES, sleep=NO_SLEEP)


@pytest.mark.parametrize("name,seed", CHAOS_MATRIX)
def test_fails_cleanly_or_is_identical(name, seed, baselines):
    """No retries: a typed failure or a bit-identical success."""
    base_rules, base_text = baselines[name]
    system = fresh_system()
    schedule = schedule_for(seed)
    try:
        with faults.injected(schedule):
            result = system.run(STATEMENTS[name])
    except FaultError as exc:
        # fail-closed: the error names the injection site and call
        assert exc.site
        assert exc.call >= 1
        assert (exc.site, exc.call, "error") in [
            (site, call, kind) for site, call, kind in schedule.fired
        ]
        return
    assert result.rule_set() == base_rules
    assert output_fingerprint(system, result.output_table) == base_text


@pytest.mark.parametrize("name,seed", CHAOS_MATRIX)
def test_retries_produce_bit_identical_output(name, seed, baselines):
    """With retries every matrix schedule is survivable, and the output
    matches the fault-free baseline bit for bit."""
    base_rules, base_text = baselines[name]
    system = fresh_system()
    schedule = schedule_for(seed)
    with faults.injected(schedule):
        result = system.run(STATEMENTS[name], retry=GENEROUS)

    assert result.rule_set() == base_rules
    assert output_fingerprint(system, result.output_table) == base_text
    # the counters account for everything the schedule injected
    resilience = result.resilience
    assert resilience.faults_injected == schedule.errors_injected
    assert resilience.latencies_injected == schedule.latencies_injected
    if schedule.errors_injected:
        assert resilience.retries


@pytest.mark.parametrize("name,seed", CHAOS_MATRIX)
def test_crash_then_resume_is_identical(name, seed, baselines):
    """No retries, then re-run: whatever stage the schedule kills,
    running the statement again finishes it with baseline output."""
    base_rules, base_text = baselines[name]
    system = fresh_system()
    schedule = schedule_for(seed)
    # re-running under the *same* armed schedule: per-site counters
    # keep counting across runs, so each error window eventually passes
    with faults.injected(schedule):
        for _ in range(16):
            try:
                result = system.run(STATEMENTS[name])
                break
            except FaultError:
                continue
        else:
            pytest.fail("schedule never drained")

    assert result.rule_set() == base_rules
    assert output_fingerprint(system, result.output_table) == base_text
    # a failed run left nothing, or the finished tables the next reused
    assert len(workspace_prefixes(system)) == 1
