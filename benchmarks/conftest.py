"""Shared fixtures and helpers for the benchmark suite.

Each module regenerates one experiment of DESIGN.md's index (FIG1,
FIG2a/b, FIG3, FIG4, SYN-1..SYN-8) or gates one feature's cost.
Benchmarks *assert* the reproduced artifact (so a wrong reproduction
fails, not just slows down) and measure the relevant phase with
pytest-benchmark.
"""

import os

import pytest

from repro import Database, MiningSystem
from repro.datagen import (
    QuestParameters,
    load_purchase_figure1,
    load_quest,
)

#: quick mode (CI smoke): shrink workloads, relax speedup floors
BENCH_QUICK = bool(os.environ.get("BENCH_QUICK"))


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
