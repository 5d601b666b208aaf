"""Differential testing of the SQL engine against SQLite.

SQLite (Python stdlib) acts as the reference implementation for the
query fragment both engines share.  Hypothesis generates random tables
and queries from that fragment; both engines must return the same
multiset of rows.  Mismatches in NULL handling, join semantics,
grouping or DISTINCT would surface here.
"""

import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from repro.sqlengine import Database

values = st.one_of(
    st.integers(min_value=-20, max_value=20),
    st.sampled_from(["a", "b", "c"]),
    st.none(),
)

#: examples per query: a fifth of the active hypothesis profile's budget
#: (20 under ``default``; CI's ``sql-ci`` profile, root conftest.py, runs
#: more — which paths the executor takes depends on the data)
EXAMPLES = max(1, settings.default.max_examples // 5)

rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.one_of(st.integers(min_value=-9, max_value=9), st.none()),
        st.sampled_from(["red", "green", "blue"]),
    ),
    max_size=25,
)


def build_both(rows, storage="row"):
    engine = Database()
    engine.storage_hints["t"] = storage
    engine.execute("CREATE TABLE t (k INTEGER, v INTEGER, c VARCHAR)")
    table = engine.table("t")
    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE t (k INTEGER, v INTEGER, c TEXT)")
    for row in rows:
        table.insert(row)
        lite.execute("INSERT INTO t VALUES (?, ?, ?)", row)
    return engine, lite


def both(engine, lite, query):
    mine = sorted(engine.query(query), key=repr)
    theirs = sorted(lite.execute(query).fetchall(), key=repr)
    return mine, theirs


QUERIES = [
    "SELECT k, v, c FROM t",
    "SELECT k FROM t WHERE v > 0",
    "SELECT k FROM t WHERE v >= -2 AND v <= 2",
    "SELECT k FROM t WHERE v BETWEEN -3 AND 3",
    "SELECT c FROM t WHERE v IS NULL",
    "SELECT c FROM t WHERE v IS NOT NULL AND c <> 'red'",
    "SELECT k FROM t WHERE c IN ('red', 'blue')",
    "SELECT k FROM t WHERE c LIKE 'r%'",
    "SELECT DISTINCT k, c FROM t",
    "SELECT k, COUNT(*) FROM t GROUP BY k",
    "SELECT k, COUNT(v) FROM t GROUP BY k",
    "SELECT k, SUM(v) FROM t GROUP BY k HAVING COUNT(*) > 1",
    "SELECT c, MIN(v), MAX(v) FROM t GROUP BY c",
    "SELECT COUNT(DISTINCT c) FROM t",
    "SELECT k + 1, v * 2 FROM t WHERE v IS NOT NULL",
    "SELECT CASE WHEN v > 0 THEN 'pos' ELSE 'rest' END FROM t "
    "WHERE v IS NOT NULL",
    "SELECT a.k, b.k FROM t a, t b WHERE a.k = b.k AND a.v < b.v",
    "SELECT a.c FROM t a WHERE a.v = (SELECT MAX(v) FROM t)",
    "SELECT k FROM t WHERE k IN (SELECT k FROM t WHERE c = 'red')",
    "SELECT k FROM t UNION SELECT k + 10 FROM t",
    "SELECT k FROM t EXCEPT SELECT k FROM t WHERE c = 'red'",
    "SELECT k FROM t INTERSECT SELECT k FROM t WHERE v > 0",
    # % must take the dividend's sign (both engines agree)
    "SELECT k, v % 3 FROM t WHERE v IS NOT NULL",
    "SELECT k, v % -3 FROM t WHERE v IS NOT NULL",
    # DISTINCT aggregates over duplicates and NULLs
    "SELECT COUNT(DISTINCT v) FROM t",
    "SELECT k, COUNT(DISTINCT c) FROM t GROUP BY k",
    "SELECT SUM(DISTINCT v), AVG(DISTINCT v) FROM t",
    # ROUND at n=0 on half grids agrees with SQLite (away from zero)
    "SELECT ROUND(v + 0.5) FROM t WHERE v IS NOT NULL",
    "SELECT ROUND(v - 0.5) FROM t WHERE v IS NOT NULL",
    "SELECT ROUND(v * 0.5) FROM t WHERE v IS NOT NULL",
    # each join, grouping and DISTINCT kernel of the batch executor:
    # a build side with distinct keys (unique probe) ...
    "SELECT a.k, a.c, b.k FROM t a, (SELECT DISTINCT k FROM t) b "
    "WHERE a.k = b.k",
    # ... with repeating keys (buckets)
    "SELECT a.v, b.c FROM t a, t b WHERE a.k = b.k",
    # two keys, NULL components on both sides
    "SELECT a.k, a.c, b.c FROM t a, t b WHERE a.k = b.k AND a.v = b.v",
    # distinct build keys but for exactly one NULL
    "SELECT a.k, b.m FROM t a, (SELECT DISTINCT v AS m FROM t) b "
    "WHERE a.v = b.m",
    # a residual over a column no select item reads
    "SELECT a.k, b.v FROM t a, t b WHERE a.k = b.k AND a.c < b.c",
    "SELECT COUNT(*) FROM (SELECT DISTINCT k FROM t)",
    # empty input: a scalar COUNT(*) is one row, a grouped one none
    "SELECT COUNT(*) FROM t WHERE k < 0",
    "SELECT k, COUNT(*) FROM t WHERE k < 0 GROUP BY k",
    "SELECT DISTINCT v FROM t",
]


@pytest.mark.parametrize("query", QUERIES)
@given(rows=rows_strategy)
@settings(max_examples=EXAMPLES, deadline=None)
def test_differential_against_sqlite(query, rows):
    check_against_sqlite(query, rows, "row")


@pytest.mark.parametrize("query", QUERIES)
@given(rows=rows_strategy)
@settings(max_examples=EXAMPLES, deadline=None)
def test_columnar_differential_against_sqlite(query, rows):
    """The same list over a columnar table: the batch executor's
    kernels see typed columns, not the row heap's 'any'."""
    check_against_sqlite(query, rows, "columnar")


def check_against_sqlite(query, rows, storage):
    engine, lite = build_both(rows, storage)
    try:
        mine, theirs = both(engine, lite, query)
        assert mine == theirs, f"divergence on: {query}"
    finally:
        lite.close()


# LIKE pattern tokens that are always valid under ESCAPE '!': the
# escape character only ever precedes %, _ or itself.  Lowercase only —
# SQLite's LIKE is ASCII-case-insensitive, ours is case-sensitive.
_LIKE_TOKENS = ["a", "b", "c", "%", "_", "!%", "!_", "!!"]


@given(
    strings=st.lists(
        st.text(alphabet="abc%_!", max_size=6), min_size=1, max_size=12
    ),
    tokens=st.lists(st.sampled_from(_LIKE_TOKENS), max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_like_escape_differential(strings, tokens):
    pattern = "".join(tokens)
    engine = Database()
    engine.execute("CREATE TABLE t (s VARCHAR)")
    table = engine.table("t")
    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE t (s TEXT)")
    try:
        for s in strings:
            table.insert((s,))
            lite.execute("INSERT INTO t VALUES (?)", (s,))
        query = f"SELECT s FROM t WHERE s LIKE '{pattern}' ESCAPE '!'"
        mine, theirs = both(engine, lite, query)
        assert mine == theirs, f"divergence on pattern {pattern!r}"
    finally:
        lite.close()


def _substr_reference(string, start, length=None):
    """Oracle SUBSTR reference model in plain Python."""
    size = len(string)
    if start > 0:
        begin = start - 1
    elif start == 0:
        begin = 0
    else:
        begin = size + start
        if begin < 0:
            return None
    if begin >= size:
        return None
    if length is None:
        return string[begin:]
    if length < 1:
        return None
    return string[begin : begin + length]


@given(
    string=st.text(alphabet="abcdef", max_size=8),
    start=st.integers(min_value=-10, max_value=10),
    length=st.one_of(st.none(), st.integers(min_value=-3, max_value=10)),
)
@settings(max_examples=120, deadline=None)
def test_substr_matches_reference_model(string, start, length):
    engine = Database()
    if length is None:
        got = engine.execute(
            "SELECT SUBSTR(:s, :b)", {"s": string, "b": start}
        ).scalar()
    else:
        got = engine.execute(
            "SELECT SUBSTR(:s, :b, :n)",
            {"s": string, "b": start, "n": length},
        ).scalar()
    assert got == _substr_reference(string, start, length)


class TestKnownSemanticChoices:
    """Where we intentionally differ from SQLite (documented)."""

    def test_integer_division_is_exact(self):
        # Oracle semantics: '/' is exact division; SQLite truncates.
        engine = Database()
        assert engine.execute("SELECT 1 / 2").scalar() == 0.5

    def test_string_number_comparison_rejected(self):
        # SQLite compares across types by storage-class order; we raise.
        from repro.sqlengine.errors import SqlTypeError

        engine = Database()
        engine.execute("CREATE TABLE t (c VARCHAR)")
        engine.execute("INSERT INTO t VALUES ('x')")
        with pytest.raises(SqlTypeError):
            engine.query("SELECT c FROM t WHERE c > 5")
