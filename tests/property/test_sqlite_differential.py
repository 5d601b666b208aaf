"""Differential testing of the SQL engine against SQLite.

SQLite (Python stdlib) acts as the reference implementation for the
query fragment both engines share.  Hypothesis generates random tables
and queries from that fragment; both engines must return the same
multiset of rows.  Mismatches in NULL handling, join semantics,
grouping or DISTINCT would surface here.

A second corpus concentrates on where an expression lowering could
diverge: three-valued logic, NULL join keys, short-circuit evaluation,
CASE branch order, correlated subqueries with NULL outer values, theta
joins, per-row LIKE patterns, sort keys no select item shows, and the
ORDER BY / LIMIT of a compound SELECT.  The batch executor runs every
one of them; no plan names another executor.

A third corpus holds the shapes whose answer depends on how a column
travels: NULL-free int columns as arrays, VARCHAR columns as
dictionary codes (equi-joins of two dictionaries, DISTINCT and GROUP BY
on codes, ``IS [NOT] NULL`` answered by the representation), columns
with NULLs as lists.

A fourth holds band joins: a join residual that compares a column of
each side, which the executor answers by bisection where the compared
columns hold no NULL.  Beside sqlite3's multiset, each must give the
rows of the same statement with the band hidden, in the same order.
"""

import datetime
import sqlite3
from collections import Counter

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


def build_both(rows, bulk=False):
    """The rows in both engines: ours appended one ``insert`` at a time
    or in one column-wise ``insert_many``."""
    engine = Database()
    engine.execute("CREATE TABLE t (k INTEGER, v INTEGER, c VARCHAR)")
    table = engine.table("t")
    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE t (k INTEGER, v INTEGER, c TEXT)")
    if bulk:
        table.insert_many(rows)
    else:
        for row in rows:
            table.insert(row)
    lite.executemany("INSERT INTO t VALUES (?, ?, ?)", rows)
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
    check_against_sqlite(query, rows, bulk=False)


@pytest.mark.parametrize("query", QUERIES)
@given(rows=rows_strategy)
@settings(max_examples=EXAMPLES, deadline=None)
def test_columnar_differential_against_sqlite(query, rows):
    """The same list over a table written column-wise: the vectors the
    bulk path (``ColumnVector.extend``) builds must query like the ones
    per-row appends build."""
    check_against_sqlite(query, rows, bulk=True)


def check_against_sqlite(query, rows, bulk):
    engine, lite = build_both(rows, bulk)
    try:
        mine, theirs = both(engine, lite, query)
        assert mine == theirs, f"divergence on: {query}"
    finally:
        lite.close()


# ---------------------------------------------------------------------------
# the NULL-heavy expression corpus
# ---------------------------------------------------------------------------

SCHEMA = [
    "CREATE TABLE t (a INTEGER, b INTEGER, c VARCHAR, d REAL)",
    "CREATE TABLE u (a INTEGER, name VARCHAR)",
]


def load_corpus_tables(t_rows, u_rows):
    """The corpus tables in both engines."""
    engine = Database()
    lite = sqlite3.connect(":memory:")
    for ddl in SCHEMA:
        engine.execute(ddl)
        lite.execute(ddl)
    engine.table("t").insert_many(t_rows)
    engine.table("u").insert_many(u_rows)
    lite.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", t_rows)
    lite.executemany("INSERT INTO u VALUES (?, ?)", u_rows)
    return engine, lite


# every column is nullable so 3VL and NULL join keys are exercised
# constantly, not occasionally
t_rows_strategy = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(-5, 5)),
        st.one_of(st.none(), st.integers(0, 3)),
        st.one_of(st.none(), st.sampled_from(["ski pants", "hiking boots",
                                              "brown boots", "jackets"])),
        st.one_of(st.none(), st.floats(-2.0, 2.0, allow_nan=False)),
    ),
    max_size=25,
)

u_rows_strategy = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(-5, 5)),
        st.one_of(st.none(), st.sampled_from(["x", "y", "z"])),
    ),
    max_size=12,
)

#: sqlite3's spelling of a shape whose plain text it answers differently
#: on purpose: '/' truncates there (exact here), MOD is not built in,
#: and NULLs sort first there (as the largest value here)
SQLITE_SPELLING = {
    "SELECT a / b FROM t WHERE b <> 0":
        "SELECT CAST(a AS REAL) / b FROM t WHERE b <> 0",
    "SELECT ABS(a), MOD(a, 3) FROM t WHERE a IS NOT NULL":
        "SELECT ABS(a), a % 3 FROM t WHERE a IS NOT NULL",
    "SELECT a FROM t ORDER BY a DESC LIMIT 3":
        "SELECT a FROM t ORDER BY a DESC NULLS FIRST LIMIT 3",
    "SELECT a FROM t ORDER BY a LIMIT 2 OFFSET 1":
        "SELECT a FROM t ORDER BY a NULLS LAST LIMIT 2 OFFSET 1",
    "SELECT CASE WHEN b = 0 THEN NULL ELSE a / b END FROM t":
        "SELECT CASE WHEN b = 0 THEN NULL ELSE CAST(a AS REAL) / b END "
        "FROM t",
    "SELECT a FROM t ORDER BY b, a":
        "SELECT a FROM t ORDER BY b NULLS LAST, a NULLS LAST",
    "SELECT b FROM t GROUP BY b ORDER BY SUM(a) DESC, b":
        "SELECT b FROM t GROUP BY b ORDER BY SUM(a) DESC NULLS FIRST, "
        "b NULLS LAST",
    "SELECT a FROM t UNION SELECT a FROM u ORDER BY a":
        "SELECT a FROM t UNION SELECT a FROM u ORDER BY a NULLS LAST",
    "SELECT a FROM t UNION SELECT a FROM u ORDER BY 1 DESC LIMIT 3":
        "SELECT a FROM t UNION SELECT a FROM u ORDER BY 1 DESC NULLS FIRST "
        "LIMIT 3",
    "SELECT a FROM t ORDER BY a LIMIT -1":
        "SELECT a FROM t ORDER BY a NULLS LAST LIMIT -1",
    "SELECT a FROM t ORDER BY a LIMIT 2 OFFSET -1":
        "SELECT a FROM t ORDER BY a NULLS LAST LIMIT 2 OFFSET -1",
}

#: shapes whose ORDER BY fixes the whole row order: compared as lists
ORDERED = {
    "SELECT a FROM t ORDER BY b, a",
    "SELECT b FROM t GROUP BY b ORDER BY SUM(a) DESC, b",
    "SELECT a FROM t UNION SELECT a FROM u ORDER BY a",
    "SELECT a FROM t UNION SELECT a FROM u ORDER BY 1 DESC LIMIT 3",
    "SELECT a FROM t ORDER BY a LIMIT -1",
    "SELECT a FROM t ORDER BY a LIMIT 2 OFFSET -1",
}

CORPUS = [
    # 3VL in WHERE: NULL comparisons, NOT over unknown, OR/AND mixes
    "SELECT a, b FROM t WHERE a > 0",
    "SELECT a FROM t WHERE NOT (a > 0)",
    "SELECT a, b FROM t WHERE a > 0 OR b = 1",
    "SELECT a, b FROM t WHERE a > 0 AND NOT (b = 1)",
    "SELECT a FROM t WHERE a = a",
    "SELECT a FROM t WHERE a <> 2 OR c = 'jackets'",
    # IS NULL / IN / BETWEEN / LIKE / CASE / COALESCE / NULLIF / CAST
    "SELECT a FROM t WHERE a IS NULL",
    "SELECT a FROM t WHERE a IS NOT NULL AND b IS NULL",
    "SELECT a FROM t WHERE a IN (1, 2, NULL)",
    "SELECT a FROM t WHERE a NOT IN (1, 2)",
    "SELECT a FROM t WHERE a BETWEEN -1 AND 3",
    "SELECT a FROM t WHERE a NOT BETWEEN b AND b + 2",
    "SELECT c FROM t WHERE c LIKE '%boots'",
    "SELECT c FROM t WHERE c LIKE '_ki%'",
    "SELECT CASE WHEN a > 0 THEN 'pos' WHEN a < 0 THEN 'neg' "
    "ELSE 'zero or null' END FROM t",
    "SELECT CASE a WHEN 1 THEN 'one' WHEN NULL THEN 'never' END FROM t",
    "SELECT COALESCE(a, b, -99) FROM t",
    "SELECT NULLIF(a, b) FROM t",
    "SELECT CAST(a AS VARCHAR) FROM t WHERE a IS NOT NULL",
    "SELECT CAST(d AS INTEGER) FROM t WHERE d IS NOT NULL",
    # arithmetic, concatenation, scalar functions
    "SELECT a + b * 2, a - b, -a FROM t",
    "SELECT a / b FROM t WHERE b <> 0",
    "SELECT c || '!' FROM t",
    "SELECT UPPER(c), LENGTH(c), SUBSTR(c, 1, 3) FROM t",
    "SELECT ABS(a), MOD(a, 3) FROM t WHERE a IS NOT NULL",
    # joins with NULL keys: inner and left outer must both drop/pad
    "SELECT t.a, u.name FROM t, u WHERE t.a = u.a",
    "SELECT t.a, u.name FROM t JOIN u ON t.a = u.a",
    "SELECT t.a, u.name FROM t LEFT JOIN u ON t.a = u.a",
    "SELECT t.a, u.name FROM t LEFT JOIN u ON t.a = u.a AND u.name = 'x'",
    # an ON with no equality: a keyless outer join pads left rows none
    # of whose candidate pairs pass
    "SELECT t.a, u.name FROM t LEFT JOIN u ON u.a > t.a",
    "SELECT t.a, u.name FROM t LEFT JOIN u ON t.b < u.a AND u.name <> 'y'",
    "SELECT t1.a, t2.b FROM t t1, t t2 WHERE t1.a = t2.b AND t1.c = 'jackets'",
    "SELECT t.a FROM t, u WHERE t.a = u.a AND t.b + 1 > u.a",
    # grouping / HAVING / aggregates
    "SELECT b, COUNT(*), SUM(a) FROM t GROUP BY b",
    "SELECT b, COUNT(a), AVG(a) FROM t GROUP BY b HAVING COUNT(*) > 1",
    "SELECT COUNT(*), MIN(a), MAX(a) FROM t",
    "SELECT COUNT(DISTINCT b) FROM t",
    "SELECT b, COUNT(*) FROM t WHERE a IS NOT NULL GROUP BY b",
    # DISTINCT / ORDER BY / LIMIT
    "SELECT DISTINCT b FROM t ORDER BY 1",
    "SELECT a, b FROM t ORDER BY b, a",
    "SELECT a FROM t ORDER BY a DESC LIMIT 3",
    "SELECT a FROM t ORDER BY a LIMIT 2 OFFSET 1",
    "SELECT DISTINCT a + 0 FROM t ORDER BY 1 DESC",
    # subqueries: scalar, IN, EXISTS, correlated
    "SELECT a FROM t WHERE a IN (SELECT a FROM u)",
    "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.a = t.a)",
    "SELECT a FROM t WHERE a > (SELECT MIN(a) FROM u)",
    "SELECT (SELECT COUNT(*) FROM u WHERE u.a = t.a) FROM t",
    # correlated, with NULL outer keys (t.b, t.a) ...
    "SELECT a, b FROM t WHERE b IN (SELECT u.a FROM u WHERE u.a <> t.a)",
    "SELECT a, b FROM t WHERE NOT EXISTS (SELECT 1 FROM u WHERE u.a = t.b)",
    "SELECT a, (SELECT MAX(u.name) FROM u WHERE u.a = t.a) FROM t",
    # ... and NOT IN over a subquery that may hold NULL
    "SELECT a FROM t WHERE a NOT IN (SELECT a FROM u)",
    "SELECT a FROM t WHERE a NOT IN (SELECT a FROM u WHERE a IS NOT NULL)",
    # CASE whose untaken arm would raise (division by zero)
    "SELECT CASE WHEN b = 0 THEN NULL ELSE a / b END FROM t",
    # theta and cross joins
    "SELECT t.a, u.a FROM t, u WHERE t.a < u.a",
    "SELECT t.c, u.name FROM t CROSS JOIN u",
    "SELECT t.a, u.name FROM t JOIN u ON t.b < u.a AND u.name <> 'y'",
    # IN lists with a column item, LIKE with a per-row pattern
    "SELECT a FROM t WHERE a IN (b, 3)",
    "SELECT a, b FROM t WHERE a NOT IN (b, 1)",
    "SELECT t1.c, t2.c FROM t t1, t t2 "
    "WHERE t1.c LIKE SUBSTR(t2.c, 1, 1) || '%'",
    # sort keys no select item shows: a column, an aggregate
    "SELECT a FROM t ORDER BY b, a",
    "SELECT b FROM t GROUP BY b ORDER BY SUM(a) DESC, b",
    # set operations; ORDER BY / LIMIT after one apply to the compound
    "SELECT a FROM t UNION SELECT a FROM u",
    "SELECT a FROM t UNION ALL SELECT a FROM u",
    "SELECT a FROM t UNION SELECT a FROM u ORDER BY a",
    "SELECT a FROM t UNION SELECT a FROM u ORDER BY 1 DESC LIMIT 3",
    "SELECT a FROM t UNION ALL SELECT a FROM u LIMIT 2",
    # a SELECT without FROM is one row: an aggregate counts it
    "SELECT COUNT(*), MAX(1 + 1)",
    # a negative LIMIT is no limit, a negative OFFSET none
    "SELECT a FROM t ORDER BY a LIMIT -1",
    "SELECT a FROM t ORDER BY a LIMIT 2 OFFSET -1",
]


@pytest.mark.parametrize("sql", CORPUS)
@given(t_rows=t_rows_strategy, u_rows=u_rows_strategy)
@settings(max_examples=15, deadline=None)
def test_corpus_matches_sqlite(sql, t_rows, u_rows):
    """The same multiset as sqlite3 (``1`` and ``1.0`` count as one
    value) — the same list where the ORDER BY fixes the order — and no
    plan line names a row executor."""
    engine, lite = load_corpus_tables(t_rows, u_rows)
    try:
        theirs = lite.execute(SQLITE_SPELLING.get(sql, sql)).fetchall()
    finally:
        lite.close()
    mine = engine.query(sql)
    if sql in ORDERED:
        assert mine == theirs
    else:
        assert Counter(mine) == Counter(theirs)
    assert "row executor" not in engine.explain(sql)


@given(t_rows=t_rows_strategy, u_rows=u_rows_strategy)
@settings(max_examples=20, deadline=None)
def test_host_variables_rebind_through_cached_plan(t_rows, u_rows):
    """A cached plan must read the parameters of each execution, not
    the ones it was first planned with; sqlite3 binds the same named
    parameters."""
    engine, lite = load_corpus_tables(t_rows, u_rows)
    sql = "SELECT a, b FROM t WHERE a > :low AND b <= :high"
    try:
        for params in ({"low": -2, "high": 1}, {"low": 0, "high": 3},
                       {"low": 3, "high": 0}):
            assert sorted(engine.query(sql, params), key=repr) == sorted(
                lite.execute(sql, params).fetchall(), key=repr
            )
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


# ---------------------------------------------------------------------------
# the representations a column travels in: arrays and dictionary codes
# ---------------------------------------------------------------------------

#: ``p.k`` and ``q.item`` are never NULL (a scan hands ``p.k`` out as an
#: array and ``q.item`` as codes without ``-1``), ``p.item`` and ``q.n``
#: may be; each side holds item values the other lacks
CODED_SCHEMA = [
    "CREATE TABLE p (k INTEGER, item VARCHAR)",
    "CREATE TABLE q (item VARCHAR, n INTEGER)",
    "CREATE TABLE r (item VARCHAR, k INTEGER)",
]

#: ``r`` is written by INSERT ... SELECT from both: its dictionary
#: interns the values in another order than either source's
CODED_SETUP = [
    "INSERT INTO r SELECT item, k FROM p WHERE k > 0",
    "INSERT INTO r SELECT item, n FROM q",
]

p_rows_strategy = st.lists(
    st.tuples(
        st.integers(0, 4),
        st.one_of(st.none(), st.sampled_from(
            ["jackets", "brown boots", "ski pants"]
        )),
    ),
    max_size=15,
)

q_rows_strategy = st.lists(
    st.tuples(
        st.sampled_from(["jackets", "sandals", "ski pants", "hats"]),
        st.one_of(st.none(), st.integers(0, 4)),
    ),
    max_size=10,
)

CODED_CORPUS = [
    # equi-joins between the VARCHAR columns of two tables (two
    # dictionaries), with values missing on one side and NULLs
    "SELECT p.k, q.n FROM p, q WHERE p.item = q.item",
    "SELECT q.n, p.k FROM q, p WHERE q.item = p.item",
    "SELECT p.k, q.item FROM p JOIN q ON p.item = q.item AND p.k = q.n",
    "SELECT p.k, q.n FROM p LEFT JOIN q ON p.item = q.item",
    "SELECT q.item, p.k FROM q LEFT JOIN p ON q.item = p.item",
    "SELECT r.k, q.n FROM r, q WHERE r.item = q.item",
    "SELECT a.item, b.k FROM p a, r b WHERE a.item = b.item AND a.k < b.k",
    # one dictionary on both sides, NULLs on both
    "SELECT a.k, b.k FROM p a, p b WHERE a.item = b.item",
    # DISTINCT and GROUP BY over VARCHAR + INTEGER
    "SELECT DISTINCT item, k FROM p",
    "SELECT DISTINCT item FROM q",
    "SELECT DISTINCT k, item FROM r",
    "SELECT item, k, COUNT(*) FROM p GROUP BY item, k",
    "SELECT item, COUNT(*), SUM(n) FROM q GROUP BY item",
    "SELECT item, COUNT(k) FROM r GROUP BY item HAVING COUNT(*) > 1",
    "SELECT COUNT(*) FROM (SELECT DISTINCT item, k FROM r)",
    # IS [NOT] NULL on NULL-free and NULL-bearing columns
    "SELECT k FROM p WHERE item IS NULL",
    "SELECT k FROM p WHERE item IS NOT NULL AND k IS NOT NULL",
    "SELECT item FROM q WHERE item IS NULL",
    "SELECT item FROM q WHERE n IS NULL",
    "SELECT k, item IS NULL, k IS NOT NULL FROM p",
    "SELECT item FROM r WHERE k IS NOT NULL",
]


@pytest.mark.parametrize("sql", CODED_CORPUS)
@given(p_rows=p_rows_strategy, q_rows=q_rows_strategy)
@settings(max_examples=EXAMPLES, deadline=None)
def test_codes_and_arrays_match_sqlite(sql, p_rows, q_rows):
    """Joins of two dictionaries, DISTINCT / GROUP BY on codes and
    ``IS [NOT] NULL`` answered by a column's representation give
    sqlite3's multiset, over tables loaded in bulk and one written by
    ``INSERT ... SELECT``."""
    engine = Database()
    lite = sqlite3.connect(":memory:")
    try:
        for ddl in CODED_SCHEMA:
            engine.execute(ddl)
            lite.execute(ddl)
        engine.table("p").insert_many(p_rows)
        engine.table("q").insert_many(q_rows)
        lite.executemany("INSERT INTO p VALUES (?, ?)", p_rows)
        lite.executemany("INSERT INTO q VALUES (?, ?)", q_rows)
        for statement in CODED_SETUP:
            engine.execute(statement)
            lite.execute(statement)
        theirs = lite.execute(sql).fetchall()
    finally:
        lite.close()
    assert Counter(engine.query(sql)) == Counter(theirs)


# ---------------------------------------------------------------------------
# band joins: a residual conjunct comparing a column of each side
# ---------------------------------------------------------------------------

#: ``k`` is a join key that repeats and is NULL now and then; ``v``
#: (INTEGER), ``f`` (REAL), ``d`` (DATE) and ``s`` (VARCHAR, codes) are
#: compared across the join, with ties
BAND_SCHEMA = [
    "CREATE TABLE bl (k INTEGER, v INTEGER, f REAL, d DATE, s VARCHAR)",
    "CREATE TABLE br (k INTEGER, v INTEGER, f REAL, d DATE, s VARCHAR)",
]

_BAND_DATES = [datetime.date(1995, 12, day) for day in (17, 18, 19)]


@st.composite
def band_rows(draw):
    """Rows whose compared columns hold no NULL in about half the
    tables (the band probe's precondition) and some NULLs in the
    rest (which must answer the same through the residual)."""
    nulls = draw(st.booleans())

    def value(strategy):
        return st.one_of(st.none(), strategy) if nulls else strategy

    return draw(st.lists(
        st.tuples(
            st.one_of(st.none(), st.integers(0, 3)),
            value(st.integers(-2, 2)),
            value(st.sampled_from([-1.5, 0.0, 1.0, 2.0])),
            value(st.sampled_from(_BAND_DATES)),
            value(st.sampled_from(["ant", "bee", "cat"])),
        ),
        max_size=12,
    ))


#: each statement with one band term in braces: the test also runs it
#: with the term's left operand hidden in COALESCE (not a bare column,
#: so no band probe) and wants the same rows in the same order
BAND_CORPUS = [
    # each operator, either operand first
    *[
        f"SELECT bl.v, br.v FROM bl, br WHERE bl.k = br.k AND {{{term}}}"
        for term in (
            "bl.v < br.v", "bl.v <= br.v", "bl.v > br.v", "bl.v >= br.v",
            "br.v < bl.v", "br.v <= bl.v", "br.v > bl.v", "br.v >= bl.v",
        )
    ],
    # two keys, and a compared column that is also a key
    "SELECT bl.s, br.s FROM bl JOIN br ON bl.k = br.k AND bl.s = br.s "
    "AND {bl.v <= br.v}",
    "SELECT bl.v, br.v FROM bl, br WHERE bl.k = br.k AND {bl.k < br.v}",
    # another conjunct beside the band, before or after it
    "SELECT bl.v, br.s FROM bl, br WHERE bl.k = br.k AND {bl.v < br.v} "
    "AND br.s <> 'bee'",
    "SELECT bl.v, br.s FROM bl, br WHERE bl.k = br.k AND br.f > -1 "
    "AND {bl.f >= br.f}",
    # a LEFT JOIN whose ON holds a band term
    "SELECT bl.v, br.v FROM bl LEFT JOIN br ON bl.k = br.k "
    "AND {bl.v < br.v}",
    "SELECT bl.s, br.s FROM bl LEFT JOIN br ON bl.k = br.k "
    "AND {br.d >= bl.d} AND br.s <> 'ant'",
    # int against float, DATE, coded VARCHAR
    "SELECT bl.v, br.f FROM bl, br WHERE bl.k = br.k AND {bl.v < br.f}",
    "SELECT bl.f, br.v FROM bl, br WHERE bl.k = br.k AND {bl.f >= br.v}",
    "SELECT bl.s, br.s FROM bl, br WHERE bl.k = br.k AND {bl.d > br.d}",
    "SELECT bl.s, br.s FROM bl, br WHERE bl.k = br.k AND {bl.s < br.s}",
    # no key: the whole residual is the band, every build row one bucket
    "SELECT bl.v, br.v FROM bl, br WHERE {bl.v < br.v}",
    "SELECT bl.v, br.s FROM bl LEFT JOIN br ON {br.s <= bl.s}",
]


def _band_spellings(sql):
    """*sql* as written, and with its band term's left operand hidden."""
    start, stop = sql.index("{"), sql.index("}")
    operand, _, rest = sql[start + 1:stop].partition(" ")
    plain = sql[:start] + sql[start + 1:stop] + sql[stop + 1:]
    hidden = (
        sql[:start] + f"COALESCE({operand}, {operand}) {rest}"
        + sql[stop + 1:]
    )
    return plain, hidden


@pytest.mark.parametrize("sql", BAND_CORPUS)
@given(l_rows=band_rows(), r_rows=band_rows())
@settings(max_examples=EXAMPLES, deadline=None)
def test_band_joins_match_sqlite(sql, l_rows, r_rows):
    """A band join gives sqlite3's multiset, and the rows of the same
    statement whose band is hidden from the planner, in their order."""
    plain, hidden = _band_spellings(sql)
    engine = Database()
    lite = sqlite3.connect(":memory:")
    try:
        for ddl in BAND_SCHEMA:
            engine.execute(ddl)
            lite.execute(ddl)
        for name, rows in (("bl", l_rows), ("br", r_rows)):
            engine.table(name).insert_many(rows)
            lite.executemany(
                f"INSERT INTO {name} VALUES (?, ?, ?, ?, ?)",
                [(k, v, f, d and d.isoformat(), s)
                 for k, v, f, d, s in rows],
            )
        theirs = lite.execute(plain).fetchall()
    finally:
        lite.close()
    mine = engine.query(plain)
    assert Counter(mine) == Counter(theirs)
    assert mine == engine.query(hidden)


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
