"""Differential properties of the columnar storage and the batch
executor.

The executor's chunk size (``vector.CHUNK_ROWS``, the rows a filter's
kernel pass or a theta join's candidate chunk covers) cuts the work,
never the answer: for any source data and any MINE RULE shape — simple
(Q0..Q4) and the general variants (Q5..Q11: clustered, mining
condition, both — plus source conditions — every translation-program
query shape), the pipeline must produce identical decoded rules and
identical golden dumps at the default chunk size and at a tiny one.

A second engine-level property drives the same contract below the
mining kernel: random rows through representative SELECT shapes
(filter, join, group/HAVING, ORDER BY, DISTINCT, subquery) and INSERT
.. SELECT shapes.  The answers must be identical — order and stored
types included — whether the source tables are read directly, through
a view or through a derived table, and at a tiny chunk size; the
oracle of the direct answers is sqlite3 (the same multisets).

A third property runs values no declared type would let into one
column together (equal but not identical numbers, ints beyond 64 bits)
through every access path and against sqlite3, and a fourth holds
``insert_columns`` (the batch executor's way into a table) to the
row-at-a-time ``insert``.
"""

import datetime
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, MiningSystem
from repro.sqlengine import vector
from repro.sqlengine.dump import dump_table_text
from repro.sqlengine import table as table_module
from repro.sqlengine.errors import SqlError
from repro.sqlengine.table import Table
from repro.sqlengine.types import SqlType
from tests.sqlite_server import SqliteServer

# ---------------------------------------------------------------------------
# MINE RULE shapes: one statement per translation-program classification,
# together covering every query Q0..Q11 the translator can emit
# ---------------------------------------------------------------------------

PURCHASE_COLUMNS = ("tr", "customer", "item", "date", "price", "qty")

STATEMENT_SHAPES = {
    # simple core: Q0..Q4 only
    "simple": (
        "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, "
        "1..1 item AS HEAD, SUPPORT, CONFIDENCE "
        "FROM Purchase GROUP BY customer "
        "EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.2"
    ),
    # simple + source condition (extra WHERE in Q0)
    "simple_filtered": (
        "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, "
        "1..1 item AS HEAD, SUPPORT, CONFIDENCE "
        "FROM Purchase WHERE price >= 20 GROUP BY customer "
        "EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.2"
    ),
    # general, clustered, no mining condition (Q5..Q9 family)
    "clustered": (
        "MINE RULE R AS SELECT DISTINCT 1..1 item AS BODY, "
        "1..1 item AS HEAD, SUPPORT, CONFIDENCE "
        "FROM Purchase GROUP BY customer "
        "CLUSTER BY date HAVING BODY.date < HEAD.date "
        "EXTRACTING RULES WITH SUPPORT: 0.05, CONFIDENCE: 0.1"
    ),
    # general, mining condition without CLUSTER BY (InputRules path)
    "mining_condition": (
        "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, "
        "1..1 item AS HEAD, SUPPORT, CONFIDENCE "
        "WHERE BODY.price >= 50 AND HEAD.price < 50 "
        "FROM Purchase GROUP BY customer "
        "EXTRACTING RULES WITH SUPPORT: 0.05, CONFIDENCE: 0.1"
    ),
    # the paper's full example: mining condition + CLUSTER BY + source
    # condition (Q10/Q11 included)
    "full": (
        "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, "
        "1..n item AS HEAD, SUPPORT, CONFIDENCE "
        "WHERE BODY.price >= 50 AND HEAD.price < 50 "
        "FROM Purchase "
        "WHERE date BETWEEN DATE '1995-01-01' AND DATE '1995-12-31' "
        "GROUP BY customer "
        "CLUSTER BY date HAVING BODY.date < HEAD.date "
        "EXTRACTING RULES WITH SUPPORT: 0.05, CONFIDENCE: 0.1"
    ),
}

_DATES = (
    datetime.date(1995, 1, 10),
    datetime.date(1995, 6, 15),
    datetime.date(1995, 12, 20),
)

purchase_rows = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=30),                   # tr
        st.sampled_from(["ada", "bob", "cleo", "dora"]),          # customer
        st.sampled_from(["boots", "coat", "hat", "ski", "sock",
                         "belt"]),                                # item
        st.sampled_from(_DATES),                                  # date
        st.sampled_from([10.0, 30.0, 50.0, 120.0, 250.0]),        # price
        st.integers(min_value=1, max_value=3),                    # qty
    ),
    min_size=1,
    max_size=40,
)


def _load_purchase(database, rows):
    database.create_table_from_rows(
        "Purchase",
        PURCHASE_COLUMNS,
        rows,
        types=None,
        replace=True,
    )


def chunk_rows(size):
    """``CHUNK_ROWS`` patched to *size* for the ``with`` block."""
    return mock.patch.object(vector, "CHUNK_ROWS", size)


def _run_pipeline(rows, statement, chunk=vector.CHUNK_ROWS):
    database = Database()
    _load_purchase(database, rows)
    system = MiningSystem(database=database)
    with chunk_rows(chunk):
        result = system.run(statement)
    out = result.output_table
    dumps = {
        table: dump_table_text(database, table)
        for table in (out, f"{out}_Bodies", f"{out}_Heads", f"{out}_Display")
        if database.catalog.has_table(table)
    }
    return result.rules, dumps


class TestPipelineBatchSizeInvariance:
    @settings(max_examples=5, deadline=None)
    @given(rows=purchase_rows, shape=st.sampled_from(sorted(STATEMENT_SHAPES)))
    def test_bit_identical_rules_and_dumps(self, rows, shape):
        statement = STATEMENT_SHAPES[shape]
        rules, dumps = _run_pipeline(rows, statement)
        small_rules, small_dumps = _run_pipeline(rows, statement, chunk=16)
        assert small_rules == rules
        assert small_dumps == dumps


# ---------------------------------------------------------------------------
# engine-level SELECT differential
# ---------------------------------------------------------------------------

#: how a shape reads a source table: ``{t}`` / ``{u}`` expand to one
#: of these, always bound to the plain table name
ACCESS = {
    "direct": "{name}",
    "view": "{name}_view {name}",
    "derived": "(SELECT * FROM {name}) {name}",
}

SELECT_SHAPES = (
    "SELECT a, b FROM {t} WHERE a > 3 ORDER BY a, b",
    "SELECT DISTINCT b FROM {t} ORDER BY b",
    # no ORDER BY: first-appearance order is part of the contract
    "SELECT DISTINCT b, a FROM {t}",
    "SELECT b, COUNT(*), SUM(a) FROM {t} GROUP BY b "
    "HAVING COUNT(*) >= 1 ORDER BY b",
    "SELECT t.a, u.c FROM {t}, {u} WHERE t.b = u.b ORDER BY t.a, u.c",
    # NULL join keys on both sides never match
    "SELECT t.a, t.b, u.b FROM {t}, {u} WHERE t.a = u.c",
    "SELECT t.a, u.b FROM {t} LEFT JOIN {u} ON t.a = u.c",
    "SELECT a FROM {t} WHERE b IN (SELECT b FROM {u}) ORDER BY a",
    "SELECT b, MAX(a), MIN(a) FROM {t} WHERE a >= 0 GROUP BY b ORDER BY b",
    "SELECT COUNT(*) FROM (SELECT DISTINCT b FROM {t}) d",
    "SELECT a, b FROM {t} ORDER BY b, a LIMIT 3 OFFSET 1",
    # a qualified order key names no output column: it is the select
    # item (or source column, or aggregate) it repeats
    "SELECT t.b, COUNT(*) FROM {t} GROUP BY t.b ORDER BY t.b DESC",
    "SELECT b, SUM(a) FROM {t} GROUP BY b ORDER BY SUM(a), t.b",
    "SELECT * FROM {t} ORDER BY t.b, t.a",
    # no ORDER BY below: each join, grouping and DISTINCT kernel must
    # emit one order on every access path.  A build side with distinct keys
    # (unique probe), with repeating keys (buckets), two keys with NULL
    # components, distinct keys but for one NULL, a residual over a
    # column no select item reads
    "SELECT t.a, t.b, d.b FROM {t}, (SELECT DISTINCT b FROM {u}) d "
    "WHERE t.b = d.b",
    "SELECT t.a, u.c FROM {t}, {u} WHERE t.b = u.b",
    "SELECT t.b, u.c FROM {t}, {u} WHERE t.b = u.b AND t.a = u.c",
    "SELECT t.b, d.c FROM {t}, (SELECT DISTINCT c FROM {u}) d "
    "WHERE t.a = d.c",
    "SELECT t.a FROM {t}, {u} WHERE t.b = u.b AND t.a > u.c",
    "SELECT COUNT(*) FROM (SELECT DISTINCT a FROM {t}) d",
    "SELECT COUNT(*) FROM {t} WHERE a > 100",
    "SELECT b, COUNT(*) FROM {t} WHERE a > 100 GROUP BY b",
    "SELECT DISTINCT a FROM {t}",
    "SELECT t.a, d.b FROM {t} LEFT JOIN (SELECT DISTINCT b FROM {u}) d "
    "ON t.b = d.b",
    "SELECT t.a, u.c FROM {t} LEFT JOIN {u} ON t.b = u.b AND u.c > t.a",
    # an ON clause with no equality: a keyless outer join
    "SELECT t.a, u.c FROM {t} LEFT JOIN {u} ON u.c > t.a",
    # subqueries (correlated ones bind the outer row per run), CASE,
    # theta and cross joins
    "SELECT a FROM {t} WHERE EXISTS (SELECT 1 FROM {u} WHERE u.c = t.a) "
    "ORDER BY a",
    "SELECT a, (SELECT MAX(c) FROM {u} WHERE u.b = t.b) FROM {t}",
    "SELECT a FROM {t} WHERE a NOT IN (SELECT c FROM {u})",
    "SELECT CASE WHEN a > 5 THEN 'big' WHEN a IS NULL THEN NULL "
    "ELSE b END FROM {t}",
    "SELECT t.a, u.c FROM {t}, {u} WHERE t.a < u.c",
    "SELECT t.b, u.b FROM {t} CROSS JOIN {u}",
)

#: statements with a side effect, each followed by the reads that
#: show what it stored
INSERT_SHAPES = (
    # auto-created target, types inferred from the first non-NULL value
    ("INSERT INTO auto_target (SELECT DISTINCT a, b FROM {t})",
     "auto_target"),
    ("CREATE TABLE ctas_target AS SELECT b, COUNT(*) AS n FROM {t} "
     "GROUP BY b", "ctas_target"),
    # a target with a secondary index: the index must see the new rows
    ("INSERT INTO indexed (SELECT a, b FROM {t})", "indexed"),
    # an explicit column list stays on the row-major path
    ("INSERT INTO indexed (b, a) (SELECT b, a FROM {t} WHERE a > 0)",
     "indexed"),
)

engine_rows = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=-5, max_value=20)),  # a
        st.sampled_from(["x", "y", "z", "w"]),                          # b
    ),
    min_size=0,
    max_size=30,
)

other_rows = st.lists(
    st.tuples(
        st.sampled_from(["x", "y", "q"]),                               # b
        st.one_of(st.none(), st.integers(min_value=0, max_value=9)),    # c
    ),
    min_size=0,
    max_size=10,
)


#: where sqlite3 answers differently on purpose: NULLs sort first
#: there (last here), which changes the rows a LIMIT keeps
NOT_SQLITE = {"SELECT a, b FROM {t} ORDER BY b, a LIMIT 3 OFFSET 1"}


def _outcome(database, sql):
    """What a statement answers, types included (``1``, ``1.0`` and
    ``True`` are equal but not identical) — or the error it raises."""
    try:
        return repr(database.query(sql))
    except SqlError as exc:
        return f"error: {type(exc).__name__}"


def _engine_database(t_rows, u_rows):
    database = Database()
    database.create_table_from_rows("t", ("a", "b"), t_rows)
    database.create_table_from_rows("u", ("b", "c"), u_rows)
    database.execute("CREATE VIEW t_view AS (SELECT * FROM t)")
    database.execute("CREATE VIEW u_view AS (SELECT * FROM u)")
    database.execute("CREATE TABLE indexed (a INTEGER, b VARCHAR)")
    database.execute("CREATE INDEX indexed_a ON indexed (a)")
    return database


def _engine_results(t_rows, u_rows, access="direct"):
    database = _engine_database(t_rows, u_rows)
    sources = {
        name: ACCESS[access].format(name=name) for name in ("t", "u")
    }
    results = [
        _outcome(database, sql.format(**sources)) for sql in SELECT_SHAPES
    ]
    for sql, target in INSERT_SHAPES:
        results.append(_outcome(database, sql.format(**sources)))
        results.append(_outcome(database, f"SELECT * FROM {target}"))
        results.append(repr(database.table(target).types))
    # through the index, not a scan
    results.append(_outcome(database, "SELECT b FROM indexed WHERE a = 3"))
    return results


def _multiset(rows):
    """Rows as a multiset; ``1``, ``1.0`` and ``True`` count as one
    value, as they do in both servers' comparisons."""
    return Counter(tuple(row) for row in rows)


def _multisets(execute, stored):
    """The direct SELECT shapes sqlite3 shares, and the rows each INSERT
    shape stored, through one server's *execute* and *stored*."""
    results = [
        _multiset(execute(sql.format(t="t", u="u")))
        for sql in SELECT_SHAPES if sql not in NOT_SQLITE
    ]
    for sql, target in INSERT_SHAPES:
        execute(sql.format(t="t", u="u"))
        results.append(_multiset(stored(target)))
    return results


def _sqlite_multisets(t_rows, u_rows):
    server = SqliteServer()
    try:
        server.load("t", ("a", "b"), t_rows)
        server.load("u", ("b", "c"), u_rows)
        server.execute("CREATE TABLE indexed (a INTEGER, b VARCHAR)")
        return _multisets(server.execute, lambda name: server.table(name)[1])
    finally:
        server.close()


#: examples of the engine-level properties: a fifth of the active
#: hypothesis profile's budget (20 under ``default``; CI's ``sql-ci``
#: profile, root conftest.py, runs more)
EXAMPLES = max(1, settings.default.max_examples // 5)


class TestEngineBatchSizeInvariance:
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(
        t_rows=engine_rows,
        u_rows=other_rows,
        access=st.sampled_from(sorted(ACCESS)),
    )
    def test_select_shapes_agree(self, t_rows, u_rows, access):
        """At the default and at a tiny chunk size, through a view and
        through a derived table the answers are identical, and the
        direct ones are sqlite3's multisets."""
        direct = _engine_results(t_rows, u_rows)
        for chunk in (vector.CHUNK_ROWS, 8):
            with chunk_rows(chunk):
                assert _engine_results(t_rows, u_rows, access) == direct
        database = _engine_database(t_rows, u_rows)
        assert _multisets(
            database.query, lambda name: database.table(name).rows
        ) == _sqlite_multisets(t_rows, u_rows)


# values no declared type would let into one column together: equal but
# not identical numbers, and an int an ``array('q')`` cannot hold
mixed_values = st.sampled_from(
    [None, 0, 1, 1.0, True, False, 2, 2.0, 2.5, 2**70, -(2**70)]
)
mixed_rows = st.lists(
    st.tuples(mixed_values, st.sampled_from(["x", "y"])),
    min_size=0,
    max_size=12,
)

MIXED_READS = (
    "SELECT DISTINCT a FROM {m}",
    "SELECT DISTINCT a, b FROM {m}",
    "SELECT a, COUNT(*) FROM {m} GROUP BY a",
    "SELECT m.a, n.a FROM {m}, {n} WHERE m.a = n.a",
    "SELECT m.a, n.a FROM {m} LEFT JOIN {n} ON m.a = n.a",
    "SELECT a FROM {m} WHERE a >= 1",
)
MIXED_SHAPES = MIXED_READS + (
    # first value decides the target's type; later ones coerce or fail
    # (sqlite3 types values, not columns: no oracle there)
    "INSERT INTO mixed_target (SELECT a, b FROM {m})",
    "SELECT * FROM mixed_target",
    "INSERT INTO mixed_distinct (SELECT DISTINCT a FROM {n})",
    "SELECT * FROM mixed_distinct",
)


def _mixed_database(m_rows, n_rows):
    database = Database()
    for name, rows in (("m", m_rows), ("n", n_rows)):
        # stored as given (the DELETE/UPDATE path), so no inferred
        # column type narrows the values
        database.create_table_from_rows(name, ("a", "b"), []).replace_rows(
            rows
        )
        database.execute(f"CREATE VIEW {name}_view AS (SELECT * FROM {name})")
    return database


def _mixed_results(m_rows, n_rows, access):
    database = _mixed_database(m_rows, n_rows)
    sources = {
        name: ACCESS[access].format(name=name) for name in ("m", "n")
    }
    return [_outcome(database, sql.format(**sources)) for sql in MIXED_SHAPES]


def _sqlite_storable(rows):
    """The rows sqlite3 can store: no int beyond 64 bits."""
    return [
        row for row in rows
        if not isinstance(row[0], int) or -(2**63) <= row[0] < 2**63
    ]


class TestMixedValuesAcrossAccessPaths:
    @settings(max_examples=max(25, EXAMPLES), deadline=None)
    @given(
        m_rows=mixed_rows,
        n_rows=mixed_rows,
        access=st.sampled_from(sorted(ACCESS)),
    )
    def test_mixed_numbers_nulls_and_big_ints(self, m_rows, n_rows, access):
        """Every access path answers what the direct one does, and the
        reads answer sqlite3's multisets over the rows it can store."""
        assert _mixed_results(m_rows, n_rows, access) == _mixed_results(
            m_rows, n_rows, "direct"
        )
        m_rows, n_rows = _sqlite_storable(m_rows), _sqlite_storable(n_rows)
        database = _mixed_database(m_rows, n_rows)
        server = SqliteServer()
        try:
            server.load("m", ("a", "b"), m_rows)
            server.load("n", ("a", "b"), n_rows)
            for sql in MIXED_READS:
                sql = sql.format(m="m", n="n")
                assert _multiset(database.query(sql)) == _multiset(
                    server.execute(sql)
                ), sql
        finally:
            server.close()

    def test_int_beyond_int64_promotes_the_target_vector(self):
        database = Database()
        database.create_table_from_rows("m", ("a",), [(1,), (2**70,), (3,)])
        database.execute("INSERT INTO big (SELECT a FROM m)")
        assert database.table("big").column_vector(0).kind == "obj"
        assert database.query("SELECT a FROM big") == [(1,), (2**70,), (3,)]


# ---------------------------------------------------------------------------
# insert_columns against the row-at-a-time insert
# ---------------------------------------------------------------------------

cell_values = st.one_of(
    st.none(),
    st.integers(min_value=-(2**65), max_value=2**65),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans(),
    st.sampled_from(["", "a", "b", "1995-01-10"]),
    st.sampled_from([datetime.date(1995, 1, 10), datetime.date(1996, 2, 29)]),
)
declared_types = st.one_of(st.none(), st.sampled_from(list(SqlType)))


@st.composite
def column_batches(draw):
    """Two batches of equally long columns plus the declared types."""
    width = draw(st.integers(min_value=1, max_value=3))
    types = [draw(declared_types) for _ in range(width)]
    batches = []
    for _ in range(2):
        length = draw(st.integers(min_value=0, max_value=8))
        batches.append([
            draw(st.lists(cell_values, min_size=length, max_size=length))
            for _ in range(width)
        ])
    return types, batches


def _table_state(table):
    return (
        repr(table.rows),
        repr(table.types),
        repr(sorted(table.indexes["ix"].entries.items(), key=repr)),
    )


def _layout(table):
    """What the vectors keep beside the values: each one's layout, NULL
    positions and dictionary in code order."""
    return [
        (vector.kind, len(vector), list(vector.nulls),
         list(vector.values or ()), dict(vector.index or {}))
        for vector in map(table.column_vector, range(table.arity))
    ]


class TestInsertColumns:
    @settings(max_examples=150, deadline=None)
    @given(data=column_batches())
    def test_insert_columns_matches_per_row_insert(self, data):
        types, batches = data
        names = [f"c{i}" for i in range(len(types))]
        per_row = Table("t", names, types)
        by_rows = Table("t", names, types)
        by_columns = Table("t", names, types)
        for table in (per_row, by_rows, by_columns):
            table.create_index("ix", ["c0"])
        # chunks of 3 rows: insert_many reads a batch of up to 8 rows
        # in up to three chunks
        with mock.patch.object(table_module, "BULK_CHUNK_ROWS", 3):
            for columns in batches:
                rows = list(zip(*columns))
                before = _table_state(by_rows), _layout(by_rows)
                try:
                    for row in rows:
                        per_row.insert(row)
                except SqlError as exc:
                    # a value its column's type refuses: every bulk path
                    # refuses the batch too, and stores none of it, not
                    # even the chunks before the refused one
                    for insert in (
                        lambda: by_rows.insert_many(iter(rows)),
                        lambda: by_columns.insert_columns(columns),
                    ):
                        with pytest.raises(type(exc)):
                            insert()
                    assert (_table_state(by_rows), _layout(by_rows)) == before
                    assert len(by_columns) == len(by_columns.rows)
                    assert by_columns.rows == by_rows.rows
                    return
                assert by_rows.insert_many(iter(rows)) == len(rows)
                assert by_columns.insert_columns(columns) == len(rows)
                reference = _table_state(per_row), _layout(per_row)
                assert (_table_state(by_rows), _layout(by_rows)) == reference
                assert _table_state(by_columns) == reference[0]

    def test_arity_mismatch_is_refused(self):
        table = Table("t", ["a", "b"])
        with pytest.raises(SqlError, match="expected 2 values, got 1"):
            table.insert_columns([[1, 2]])
        assert table.insert_columns([[], []]) == 0
        assert table.insert_columns([]) == 0
