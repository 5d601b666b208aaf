"""The translation programs on a second SQL server (sqlite3).

Every generated statement over the eight directives runs twice: through
the system, and as its own translation program on sqlite3
(:mod:`tests.sqlite_server`, six textual rewrites), whose encoded
tables are copied into a fresh database and mined by the same core
operator and postprocessor.  The encoded tables must be equal up to
identifier renaming, and the four output relations equal to the
system's and to the reference semantics.

The example budget is the active hypothesis profile's (``default``:
100; CI runs this file under ``--hypothesis-profile=oracle-ci``).
"""

from hypothesis import given, settings

from repro import MiningSystem
from tests import minerule_reference as reference
from tests.property.minerule_cases import (
    CLUSTER,
    COLUMNS,
    build_db,
    cases,
    source_rows,
)
from tests.sqlite_server import (
    database_tables,
    encoded_tables,
    mine_on_sqlite,
    output_tables,
    renamed,
)


def test_programs_on_sqlite_equal_the_system_and_the_reference():
    """... on every example, and the examples of one run set and clear
    each of H, W, M, G, C, K, F, R (one round per CLUSTER BY shape, as
    in ``test_minerule_oracle.py``)."""
    seen = set()
    budget = max(1, settings.default.max_examples // len(CLUSTER))
    for cluster in CLUSTER:

        @given(case=cases(cluster), rows=source_rows())
        @settings(max_examples=budget, deadline=None)
        def check(case, rows):
            db = build_db(rows)
            program = MiningSystem(database=db).execute(case.text).program
            seen.add(case.directives)
            source = [tuple(row[c] for c in COLUMNS) for row in rows]
            server, copy = mine_on_sqlite(program, {"Src": (COLUMNS, source)})
            try:
                theirs = encoded_tables(program, server)
            finally:
                server.close()
            assert renamed(program, theirs) == renamed(
                program, database_tables(db, theirs)
            )
            mined = reference.canonical_tables(output_tables(copy, "Out"))
            assert mined == reference.canonical_tables(output_tables(db, "Out"))
            assert mined == reference.canonical_tables(
                reference.output_tables(case.statement, rows)
            )

        check()
    for position, name in enumerate("HWMGCKFR"):
        drawn = {directives[position] for directives in seen}
        assert drawn == {True, False}, f"{name} drawn only as {drawn}"
