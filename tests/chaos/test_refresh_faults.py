"""Chaos coverage of the REFRESH pipeline (PR 9).

The two refresh fault sites (``refresh.delta``, ``refresh.recount``)
are deliberately outside :data:`repro.faults.DEFAULT_SITES` — random
schedules arm only sites every typical statement visits — so this
suite installs *explicit* schedules.  The contract under fire is
clean-failure-or-bit-identical: a killed refresh either surfaces the
:class:`FaultError` leaving the recorded state untouched, or (with a
retry policy) completes with output tables byte-equal to an unfaulted
refresh; a re-refresh after a clean failure also converges to the
same bytes.
"""

import datetime

import pytest

from repro import FaultError, FaultSchedule, RetryPolicy, faults
from repro.incremental import RefreshComputation

from .conftest import NO_SLEEP, fresh_system, output_fingerprint

STATEMENT = (
    "MINE RULE ChaosRefresh AS "
    "SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, "
    "SUPPORT, CONFIDENCE "
    "FROM Purchase GROUP BY tr "
    "EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.5"
)

EXTRA = [
    (30, "c9", "ski_pants", datetime.date(1998, 1, 2), 120.0, 1),
    (30, "c9", "hiking_boots", datetime.date(1998, 1, 2), 180.0, 1),
    (31, "c10", "ski_pants", datetime.date(1998, 1, 3), 120.0, 1),
]

RETRY = RetryPolicy(max_attempts=4, base_delay=0.0, max_delay=0.0)

REFRESH_SITES = ("refresh.delta", "refresh.recount")


def _primed_system():
    """A system with mined output, captured state and appended rows —
    ready for a delta refresh."""
    system = fresh_system()
    system.run(STATEMENT)
    system.refresh("ChaosRefresh")  # capture state
    table = system.db.catalog.get_table("Purchase")
    for row in EXTRA:
        table.insert(list(row))
    return system


@pytest.fixture(scope="module")
def refreshed_baseline():
    """Output fingerprint of an unfaulted refresh on the primed data."""
    system = _primed_system()
    result = system.refresh("ChaosRefresh")
    assert result.stats.mode == "incremental"
    return output_fingerprint(system, "ChaosRefresh")


@pytest.mark.parametrize("site", REFRESH_SITES)
def test_killed_refresh_fails_clean_then_rerefresh_converges(
    site, refreshed_baseline
):
    system = _primed_system()
    with faults.injected(FaultSchedule(sleep=NO_SLEEP).arm(site, call=1)):
        with pytest.raises(FaultError) as excinfo:
            system.refresh("ChaosRefresh")
    assert excinfo.value.site == site
    # the failed refresh must not have committed partial state: a
    # plain re-refresh sees the same delta and lands on the baseline
    result = system.refresh("ChaosRefresh")
    assert result.stats.mode == "incremental"
    assert result.stats.delta_rows == len(EXTRA)
    assert output_fingerprint(system, "ChaosRefresh") == refreshed_baseline


@pytest.mark.parametrize("site", REFRESH_SITES)
def test_retried_refresh_is_bit_identical(site, refreshed_baseline):
    system = _primed_system()
    with faults.injected(FaultSchedule(sleep=NO_SLEEP).arm(site, call=1)):
        result = system.refresh("ChaosRefresh", retry=RETRY)
    assert result.stats.mode == "incremental"
    assert result.resilience.retries >= 1
    assert output_fingerprint(system, "ChaosRefresh") == refreshed_baseline


def test_both_sites_killed_in_one_refresh_with_retries(refreshed_baseline):
    system = _primed_system()
    schedule = FaultSchedule(sleep=NO_SLEEP)
    for site in REFRESH_SITES:
        schedule.arm(site, call=1)
    with faults.injected(schedule):
        result = system.refresh("ChaosRefresh", retry=RETRY)
    assert result.resilience.retries >= 2
    assert output_fingerprint(system, "ChaosRefresh") == refreshed_baseline


def test_emission_crash_then_rerefresh_converges(refreshed_baseline):
    """A crash *after* state commit (during postprocessor emission)
    leaves an empty delta behind; the re-refresh must still emit the
    full baseline bytes (emission does not depend on delta size)."""
    system = _primed_system()
    with faults.injected(
        FaultSchedule(sleep=NO_SLEEP).arm("postprocessor.store", call=1)
    ):
        with pytest.raises(FaultError):
            system.refresh("ChaosRefresh")
    result = system.refresh("ChaosRefresh")
    assert result.stats.delta_rows == 0  # state committed before crash
    assert output_fingerprint(system, "ChaosRefresh") == refreshed_baseline


MORE = [
    (31, "c10", "snow_goggles", datetime.date(1998, 1, 3), 60.0, 1),
    (32, "c11", "ski_pants", datetime.date(1998, 1, 4), 120.0, 1),
]


@pytest.mark.parametrize("retry", [None, RETRY], ids=["rerefresh", "retried"])
def test_delta_killed_after_interning_repeats_idempotently(
    retry, monkeypatch
):
    """The refresh state's universes are extended in place, so an
    attempt that dies *after* interning the increment's new items and
    groups leaves them interned.  The committed sizes say they were
    never counted: the next attempt — over a longer increment —
    interns them again and lands on the from-scratch bytes."""
    system = _primed_system()
    entry = system._refresh_registry["chaosrefresh"]
    committed = (entry.state.item_count, entry.state.totg)
    adjust = RefreshComputation._update_known_counts
    calls = []

    def dies_once(self, added, touched):
        calls.append(len(added))
        if len(calls) == 1:
            raise FaultError("refresh.delta", 1, "killed after interning")
        return adjust(self, added, touched)

    monkeypatch.setattr(RefreshComputation, "_update_known_counts", dies_once)
    if retry is None:
        with pytest.raises(FaultError):
            system.refresh("ChaosRefresh")
        assert (entry.state.item_count, entry.state.totg) == committed
        assert len(entry.state.groups) > entry.state.totg  # interned
        table = system.db.catalog.get_table("Purchase")
        for row in MORE:
            table.insert(list(row))
        appended = EXTRA + MORE
    else:
        appended = EXTRA
    result = system.refresh("ChaosRefresh", retry=retry)
    assert result.stats.mode == "incremental"
    assert result.stats.delta_rows == len(appended)
    assert len(calls) == 2

    scratch = fresh_system()
    table = scratch.db.catalog.get_table("Purchase")
    for row in appended:
        table.insert(list(row))
    scratch.run(STATEMENT)
    assert output_fingerprint(system, "ChaosRefresh") == output_fingerprint(
        scratch, "ChaosRefresh"
    )
