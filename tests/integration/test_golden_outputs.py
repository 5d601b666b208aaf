"""Golden end-to-end outputs for the Appendix-A statements.

Each statement's three output relations (``<out>``, ``<out>_Bodies``,
``<out>_Heads``) plus the display table are rendered with the
deterministic dump format and compared byte-for-byte against files
checked into ``tests/integration/golden/``.  Any change to the
pipeline that alters mined output — rule sets, identifier assignment,
support/confidence arithmetic, serialization — shows up as a readable
text diff.

To regenerate after an intentional change::

    PYTHONPATH=src python -m pytest tests/integration/test_golden_outputs.py --update-golden
"""

from pathlib import Path

import pytest

from repro import Database, MiningSystem
from repro.datagen import load_purchase_figure1
from repro.sqlengine.dump import dump_table_text

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Appendix-A worked example (Section 2 / Figure 2) plus the two
#: simpler classifications it degenerates into
GOLDEN_STATEMENTS = {
    # the paper's full example: mining condition + CLUSTER BY
    "filtered_ordered_sets": (
        "MINE RULE FilteredOrderedSets AS "
        "SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, "
        "SUPPORT, CONFIDENCE "
        "WHERE BODY.price >= 100 AND HEAD.price < 100 "
        "FROM Purchase "
        "WHERE date BETWEEN DATE '1995-01-01' AND DATE '1995-12-31' "
        "GROUP BY customer "
        "CLUSTER BY date HAVING BODY.date < HEAD.date "
        "EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3"
    ),
    # plain intra-group associations (simple core processing)
    "simple_associations": (
        "MINE RULE SimpleAssociations AS "
        "SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, "
        "SUPPORT, CONFIDENCE "
        "FROM Purchase GROUP BY customer "
        "EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3"
    ),
    # ordered sets: CLUSTER BY without a mining condition
    "ordered_sets": (
        "MINE RULE OrderedSets AS "
        "SELECT DISTINCT 1..1 item AS BODY, 1..1 item AS HEAD, "
        "SUPPORT, CONFIDENCE "
        "FROM Purchase GROUP BY customer "
        "CLUSTER BY date HAVING BODY.date < HEAD.date "
        "EXTRACTING RULES WITH SUPPORT: 0.08, CONFIDENCE: 0.2"
    ),
}


@pytest.fixture
def update_golden(request):
    return request.config.getoption("--update-golden")


@pytest.mark.parametrize("name", sorted(GOLDEN_STATEMENTS))
def test_golden_output_relations(name, update_golden):
    database = Database()
    load_purchase_figure1(database)
    system = MiningSystem(database=database)
    result = system.run(GOLDEN_STATEMENTS[name])
    out = result.output_table

    mismatches = []
    for table in (out, f"{out}_Bodies", f"{out}_Heads", f"{out}_Display"):
        text = dump_table_text(database, table)
        path = GOLDEN_DIR / f"{name}__{table}.golden.txt"
        if update_golden:
            GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
            continue
        assert path.exists(), (
            f"golden file {path.name} missing — generate it with "
            f"pytest --update-golden"
        )
        expected = path.read_text(encoding="utf-8")
        if text != expected:
            mismatches.append(f"{table}:\n--- expected\n{expected}"
                              f"--- actual\n{text}")
    assert not mismatches, "\n".join(mismatches)


def test_golden_files_are_committed():
    """Guards against an accidentally empty golden directory (e.g. a
    bad --update-golden run deleting everything)."""
    files = sorted(GOLDEN_DIR.glob("*.golden.txt"))
    assert len(files) == 4 * len(GOLDEN_STATEMENTS)
    for path in files:
        content = path.read_text(encoding="utf-8")
        assert content.strip(), f"{path.name} is empty"


# ---------------------------------------------------------------------------
# identifier numbering: Gid (Q2b) and Bid (Q3b) follow first appearance
# ---------------------------------------------------------------------------

#: Q3b's Bset of Figure 1: (Bid, item, GroupCount) in numbering order
FIGURE1_BSET = [
    (1, "ski_pants", 1),
    (2, "hiking_boots", 1),
    (3, "col_shirts", 1),
    (4, "brown_boots", 1),
    (5, "jackets", 2),
]


@pytest.mark.parametrize("name", sorted(GOLDEN_STATEMENTS))
def test_gid_and_bid_numbering_is_pinned(name):
    """The dumps above are sorted, so they do not show which number a
    group or an item got; the numbering is the order in which the
    batch executor's grouping and DISTINCT emit rows."""
    database = Database()
    load_purchase_figure1(database)
    result = MiningSystem(database=database).run(GOLDEN_STATEMENTS[name])
    workspace = result.program.workspace
    assert database.table(workspace.valid_groups).rows == [
        (1, "cust1"), (2, "cust2"),
    ]
    assert database.table(workspace.bset).rows == FIGURE1_BSET


@pytest.mark.parametrize("name", sorted(GOLDEN_STATEMENTS))
def test_encoded_tables_equal_sqlite3s_up_to_renaming(name):
    """On a few hundred synthetic rows every encoded table is what the
    same translation program stores on sqlite3, up to Gid / Bid / Cid
    renaming (the numbering itself is pinned above and by the goldens),
    and the rules mined from sqlite3's tables are the system's."""
    from repro.datagen import load_purchase_synthetic
    from tests.minerule_reference import canonical_tables
    from tests.sqlite_server import (
        database_tables,
        encoded_tables,
        mine_on_sqlite,
        output_tables,
        renamed,
    )

    database = Database()
    load_purchase_synthetic(database, customers=12, seed=3)
    result = MiningSystem(database=database).run(GOLDEN_STATEMENTS[name])
    program = result.program
    source = database.table("Purchase")
    server, copy = mine_on_sqlite(
        program, {"Purchase": (source.columns, source.rows)}
    )
    try:
        theirs = encoded_tables(program, server)
    finally:
        server.close()
    assert len(theirs) >= 4
    assert renamed(program, theirs) == renamed(
        program, database_tables(database, theirs)
    )
    out = result.output_table
    assert canonical_tables(output_tables(copy, out), out) == canonical_tables(
        output_tables(database, out), out
    )
