"""Shared machinery for the chaos suite.

Every chaos test follows the same shape: mine a statement on a fresh
Figure-1 database under a *seeded* fault schedule and compare the
outcome against a fault-free baseline.  Schedules are deterministic
(same seed, same faults), so every red run is replayable.
"""

import re

import pytest

from repro import Database, MiningSystem
from repro.sqlengine.dump import dump_table_text
from repro.datagen import load_purchase_figure1

#: no-op sleep so latency faults and backoff don't slow the suite down
NO_SLEEP = lambda seconds: None  # noqa: E731

#: fault sites used by the random schedules: globs across every layer
#: the injection hooks cover (engine, preprocessing queries, core
#: operator, postprocessing)
CHAOS_SITES = (
    "engine.execute",
    "preprocessor.Q*",
    "core.load",
    "core.simple",
    "core.lattice",
    "core.bitset",
    "postprocessor.store",
    "postprocessor.decode",
)

#: the MINE RULE matrix: one statement per translator classification of
#: interest (simple core; general core with clusters + mining
#: condition; clusters only; mining condition only)
STATEMENTS = {
    "simple": (
        "MINE RULE ChaosSimple AS "
        "SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, "
        "SUPPORT, CONFIDENCE "
        "FROM Purchase GROUP BY customer "
        "EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3"
    ),
    "paper": (
        "MINE RULE ChaosPaper AS "
        "SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, "
        "SUPPORT, CONFIDENCE "
        "WHERE BODY.price >= 100 AND HEAD.price < 100 "
        "FROM Purchase "
        "WHERE date BETWEEN DATE '1995-01-01' AND DATE '1995-12-31' "
        "GROUP BY customer "
        "CLUSTER BY date HAVING BODY.date < HEAD.date "
        "EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3"
    ),
    "clusters": (
        "MINE RULE ChaosClusters AS "
        "SELECT DISTINCT 1..1 item AS BODY, 1..1 item AS HEAD, "
        "SUPPORT, CONFIDENCE "
        "FROM Purchase GROUP BY customer "
        "CLUSTER BY date HAVING BODY.date < HEAD.date "
        "EXTRACTING RULES WITH SUPPORT: 0.08, CONFIDENCE: 0.2"
    ),
    "mining_condition": (
        "MINE RULE ChaosMining AS "
        "SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, "
        "SUPPORT, CONFIDENCE "
        "WHERE BODY.price >= 100 "
        "FROM Purchase GROUP BY customer "
        "EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3"
    ),
}

SEEDS = tuple(range(7))

#: 4 statements x 7 seeds = 28 seeded schedules
CHAOS_MATRIX = [
    (name, seed) for name in sorted(STATEMENTS) for seed in SEEDS
]


def fresh_system(**kwargs) -> MiningSystem:
    database = Database()
    load_purchase_figure1(database)
    return MiningSystem(database=database, **kwargs)


def workspace_prefixes(system: MiningSystem) -> set:
    """The workspace prefixes (``MR<n>``) of the catalog's tables and
    views."""
    catalog = system.db.catalog
    return {
        match.group(1)
        for obj in catalog.tables() + catalog.views()
        if (match := re.match(r"(MR\d+)_", obj.name))
    }


def output_fingerprint(system: MiningSystem, out: str) -> str:
    """Bit-exact text of all four output relations of statement *out*."""
    parts = []
    for table in (out, f"{out}_Bodies", f"{out}_Heads", f"{out}_Display"):
        parts.append(f"== {table} ==")
        parts.append(dump_table_text(system.db, table))
    return "\n".join(parts)


@pytest.fixture(scope="session")
def baselines():
    """Fault-free rule sets and output fingerprints per statement."""
    results = {}
    for name, statement in STATEMENTS.items():
        system = fresh_system()
        result = system.run(statement)
        results[name] = (
            result.rule_set(),
            output_fingerprint(system, result.output_table),
        )
    return results
