"""The specialised Q1 and Q4 against Appendix A's literal text.

Without a group HAVING the translator emits Q1 as a count of
ValidGroups, and on the simple path it emits Q4 as a join of Q3a's
staged pairs with no DISTINCT (DESIGN.md section 3, "Specialised
queries").  For generated simple statements — source condition (W) and
group HAVING (G) each on and off, one or two group attributes, one or
two body attributes, NULLs in group and item values — the emitted
program and the same program with the literal Q1 / Q4 of
``tests/appendix_a.py`` must bind the same ``:totg`` and write the same
``CodedSource`` rows, on the engine and on sqlite3
(``tests/sqlite_server.py``).  The rows are compared as multisets, so
the specialised Q4 must not repeat a pair the literal DISTINCT removes.

The example budget is the active hypothesis profile's (``default``:
100; CI runs this file under ``--hypothesis-profile=oracle-ci``).
"""

from hypothesis import given, settings, strategies as st

from repro.kernel import Translator, Workspace
from repro.kernel.preprocessor import Preprocessor
from repro.sqlengine import Database
from repro.sqlengine.types import SqlType
from tests.appendix_a import literal_program
from tests.sqlite_server import SqliteServer, run_program

COLUMNS = ("g1", "g2", "i1", "i2", "price")
TYPES = (
    SqlType.INTEGER, SqlType.VARCHAR, SqlType.VARCHAR, SqlType.VARCHAR,
    SqlType.INTEGER,
)
GROUPS = [("g1",), ("g1", "g2")]
BODIES = [("i1",), ("i1", "i2")]
SOURCE = ["", " WHERE price > 2"]
HAVING = ["", " HAVING COUNT(*) >= 2", " HAVING g1 > 1"]


def sometimes_null(draw, values):
    """*values*, with a NULL in about one draw of four half the time."""
    if draw(st.booleans()):
        return st.one_of(values, values, values, st.none())
    return values


@st.composite
def source_rows(draw):
    """Up to 8 groups of 2 to 8 rows over a few item values, drawn
    narrow so that elements repeat across groups and Q4 writes rows.
    Two groups may draw the same key, and a key may be partly NULL."""
    items = "abcd"[:draw(st.integers(1, 4))]
    tags = ["t1", "t2"][:draw(st.integers(1, 2))]
    row = st.tuples(
        sometimes_null(draw, st.sampled_from(items)),
        sometimes_null(draw, st.sampled_from(tags)),
        sometimes_null(draw, st.integers(1, 9)),
    )
    keys = st.tuples(
        sometimes_null(draw, st.integers(1, 4)),
        sometimes_null(draw, st.sampled_from("xy")),
    )
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        key = draw(keys)
        drawn = draw(st.lists(row, min_size=2, max_size=8))
        rows += [key + values for values in drawn]
    return draw(st.permutations(rows))


@st.composite
def statements(draw):
    group = draw(st.sampled_from(GROUPS))
    body = ", ".join(draw(st.sampled_from(BODIES)))
    source = draw(st.sampled_from(SOURCE))
    having = draw(st.sampled_from(HAVING))
    support = draw(st.sampled_from([0.1, 0.25, 0.5]))
    text = (
        f"MINE RULE Out AS SELECT DISTINCT 1..n {body} AS BODY, "
        f"1..1 {body} AS HEAD, SUPPORT, CONFIDENCE FROM Src{source} "
        f"GROUP BY {', '.join(group)}{having} "
        f"EXTRACTING RULES WITH SUPPORT: {support}, CONFIDENCE: 0.0"
    )
    return text, (bool(source), bool(having), len(group), len(body.split()))


def on_engine(program, source):
    """``:totg`` and the sorted CodedSource rows *program* leaves on a
    fresh engine over *source*."""
    db = Database()
    db.create_table_from_rows("Src", COLUMNS, source, TYPES)
    stats = Preprocessor(db).run(program)
    return stats.totg, sorted(db.table(program.workspace.coded_source).rows)


def on_sqlite(program, source):
    server = SqliteServer()
    try:
        server.load("Src", COLUMNS, source)
        run_program(program, server)
        _, coded = server.table(program.workspace.coded_source)
        return server.variables["totg"], sorted(coded)
    finally:
        server.close()


def test_specialised_q1_q4_equal_appendix_a():
    """... on every example, and the examples of one run draw each of
    W and G on and off, and both schema widths on each side."""
    seen = set()

    @given(statement=statements(), source=source_rows())
    @settings(deadline=None)
    def check(statement, source):
        text, drawn = statement
        seen.add(drawn)
        db = Database()
        db.create_table_from_rows("Src", COLUMNS, [], TYPES)
        program = Translator(db).translate(text, Workspace("T"))
        assert program.directives.simple
        literal = literal_program(program)
        for run in (on_engine, on_sqlite):
            assert run(program, source) == run(literal, source), run.__name__

    check()
    for position, name in enumerate(("W", "G", "group width", "body width")):
        assert len({drawn[position] for drawn in seen}) == 2, name
