"""Property: crash-then-re-run equals single-shot execution.

For every pipeline stage — each translated query Q0..Q11 by label,
the core operator sites, and both postprocessor sites — killing the
run at that stage and finishing it by running the statement again must
yield exactly the rule set (and output-relation bytes) of an
uninterrupted run.  Hypothesis drives the (statement, site, call)
space; the armed fault sometimes never fires (the site is unreachable
at that call count), in which case the first run already succeeding
bit-identically is the property.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database, FaultError, FaultSchedule, MiningSystem, faults
from repro.datagen import load_purchase_figure1
from repro.kernel.names import Workspace
from repro.kernel.translator import Translator
from repro.sqlengine.dump import dump_table_text

STATEMENTS = {
    "simple": (
        "MINE RULE PropSimple AS "
        "SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, "
        "SUPPORT, CONFIDENCE "
        "FROM Purchase GROUP BY customer "
        "EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3"
    ),
    "general": (
        "MINE RULE PropGeneral AS "
        "SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, "
        "SUPPORT, CONFIDENCE "
        "WHERE BODY.price >= 100 AND HEAD.price < 100 "
        "FROM Purchase "
        "WHERE date BETWEEN DATE '1995-01-01' AND DATE '1995-12-31' "
        "GROUP BY customer "
        "CLUSTER BY date HAVING BODY.date < HEAD.date "
        "EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3"
    ),
}


def _fresh_db() -> Database:
    database = Database()
    load_purchase_figure1(database)
    return database


def _query_sites(statement: str) -> list:
    """Every preprocessor site of *statement*, from its actual
    translation — one per Q-label, so each translated query is a crash
    candidate."""
    program = Translator(_fresh_db()).translate(statement, Workspace("X"))
    labels = {query.label for query in program.preprocessing}
    return sorted(f"preprocessor.{label}" for label in labels)


_CORE_POST = ["engine.execute", "core.load", "core.simple", "core.lattice",
              "core.bitset", "postprocessor.store", "postprocessor.decode"]

SITES = {
    name: _query_sites(statement) + _CORE_POST
    for name, statement in STATEMENTS.items()
}

_BASELINES = {}


def _baseline(name):
    if name not in _BASELINES:
        system = MiningSystem(database=_fresh_db())
        result = system.run(STATEMENTS[name])
        _BASELINES[name] = (
            result.rule_set(),
            _fingerprint(system, result.output_table),
        )
    return _BASELINES[name]


def _fingerprint(system, out):
    return "".join(
        dump_table_text(system.db, table)
        for table in (out, f"{out}_Bodies", f"{out}_Heads")
    )


@settings(
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_resume_after_crash_equals_single_shot(data):
    name = data.draw(st.sampled_from(sorted(STATEMENTS)), label="statement")
    site = data.draw(st.sampled_from(SITES[name]), label="site")
    call = data.draw(st.integers(min_value=1, max_value=4), label="call")

    base_rules, base_text = _baseline(name)
    system = MiningSystem(database=_fresh_db())
    schedule = FaultSchedule(sleep=lambda s: None).arm(site, call=call)

    try:
        with faults.injected(schedule):
            result = system.run(STATEMENTS[name])
    except FaultError:
        result = system.run(STATEMENTS[name])

    assert result.rule_set() == base_rules
    assert _fingerprint(system, result.output_table) == base_text


@settings(deadline=None, max_examples=25)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    max_faults=st.integers(min_value=1, max_value=3),
)
def test_repeated_crashes_eventually_converge(seed, max_faults):
    """Even a multi-fault schedule drains over repeated plain re-runs:
    per-site counters advance monotonically, every armed window passes,
    and the final output is the single-shot output."""
    name = "simple"
    base_rules, _ = _baseline(name)
    system = MiningSystem(database=_fresh_db())
    schedule = FaultSchedule.random(
        seed,
        sites=tuple(SITES[name]),
        max_faults=max_faults,
        sleep=lambda s: None,
    )
    result = None
    with faults.injected(schedule):
        for _ in range(24):
            try:
                result = system.run(STATEMENTS[name])
                break
            except FaultError:
                continue
    assert result is not None, "schedule never drained"
    assert result.rule_set() == base_rules
