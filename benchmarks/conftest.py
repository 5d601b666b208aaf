"""Shared fixtures and helpers for the benchmark suite.

Each module regenerates one experiment of DESIGN.md's index (FIG1,
FIG2a/b, FIG3, FIG4, SYN-1..SYN-5).  Benchmarks *assert* the reproduced
artifact (so a wrong reproduction fails, not just slows down) and
measure the relevant phase with pytest-benchmark.

PR-scoped benches additionally record a machine-readable artifact
(``BENCH_PR<n>.json`` at the repo root) via :func:`bench_report`.
"""

import json
import os
from pathlib import Path

import pytest

from repro import Database, MiningSystem
from repro.datagen import (
    QuestParameters,
    load_purchase_figure1,
    load_quest,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: quick mode (CI smoke): shrink workloads, relax speedup floors
BENCH_QUICK = bool(os.environ.get("BENCH_QUICK"))


def load_report(path):
    """Read a previously written ``BENCH_*.json``; a missing file,
    unreadable bytes, corrupt JSON or a non-object document all come
    back as ``{}`` — a bad artifact from an interrupted run must never
    take the bench suite down."""
    path = Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    return document if isinstance(document, dict) else {}


def merge_report(path, report):
    """Merge *report* over the file's prior entries and rewrite it.

    Merging (rather than overwriting) keeps entries from earlier
    partial runs — e.g. a ``-k``-filtered bench invocation — alive in
    the artifact."""
    merged = load_report(path)
    merged.update(report)
    Path(path).write_text(json.dumps(merged, indent=2) + "\n",
                          encoding="utf-8")
    return merged


def bench_report(filename):
    """Create a module-level benchmark report: returns ``(report,
    fixture)`` where *report* is the dict the module's tests fill in
    and *fixture* is a module-scoped autouse fixture merging it into
    ``<repo root>/<filename>`` once the module finishes.  A missing or
    corrupt prior file is treated as empty.  Under ``BENCH_QUICK`` the
    fixture writes nothing: a smoke run's numbers never replace the
    committed full-size record.

    Usage (module scope)::

        REPORT, write_report = bench_report("BENCH_PRn.json")
    """
    report = {}
    path = REPO_ROOT / filename

    @pytest.fixture(scope="module", autouse=True)
    def _write_report():
        yield
        if report and not BENCH_QUICK:
            merge_report(path, report)

    return report, _write_report

PAPER_STATEMENT = """
MINE RULE FilteredOrderedSets AS
SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, SUPPORT, CONFIDENCE
WHERE BODY.price >= 100 AND HEAD.price < 100
FROM Purchase
WHERE date BETWEEN DATE '1995-01-01' AND DATE '1995-12-31'
GROUP BY customer
CLUSTER BY date HAVING BODY.date < HEAD.date
EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3
"""


@pytest.fixture
def paper_statement():
    return PAPER_STATEMENT


@pytest.fixture
def purchase_db():
    db = Database()
    load_purchase_figure1(db)
    return db


@pytest.fixture
def quest_db():
    """A mid-size Quest workload shared by the SYN benches."""
    db = Database()
    load_quest(
        db,
        QuestParameters(
            transactions=400,
            avg_transaction_size=8,
            avg_pattern_size=3,
            patterns=60,
            items=120,
            seed=77,
        ),
    )
    return db


def fresh_system(db, **kwargs):
    kwargs.setdefault("reuse_preprocessing", False)
    return MiningSystem(database=db, **kwargs)
