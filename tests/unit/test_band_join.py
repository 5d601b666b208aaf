"""The band probe of a join: a residual conjunct comparing a bare
column of each side is answered by bisecting each bucket, sorted once
by its compared value.  Its rows are the residual path's rows in the
residual path's order — left-major, build order within a left row —
so everything numbered in that order (Q7's cluster couples, the core's
slots) stays as it is.  The residual path is forced by hiding the
shape: ``a.v + 0`` is an expression, not a column."""

import random

import pytest

from repro.sqlengine import Database


def _tables(column_type="INTEGER", values=range(6)):
    """``a`` and ``b``: repeated keys, a NULL key now and then, ties in
    ``v``, and build rows not sorted by ``v``."""
    rng = random.Random(7)
    database = Database()
    for name in ("a", "b"):
        database.execute(
            f"CREATE TABLE {name} (k INTEGER, v {column_type}, s VARCHAR)"
        )
        database.table(name).insert_many([
            (
                rng.choice([None, 0, 1, 2, 3]),
                rng.choice(values),
                rng.choice(["x", "y", "z"]),
            )
            for _ in range(40)
        ])
    return database


def _probe(database, sql):
    nodes = database.analyze(sql).nodes
    joins = [n for n in nodes if n["operator"].endswith("Join")]
    assert len(joins) == 1, nodes
    return joins[0].get("probe")


#: (band statement, the same with its band term hidden)
PAIRS = [
    *[
        (f"SELECT a.v, b.v, b.s FROM a, b WHERE a.k = b.k AND a.v {op} b.v",
         f"SELECT a.v, b.v, b.s FROM a, b WHERE a.k = b.k "
         f"AND a.v + 0 {op} b.v")
        for op in ("<", "<=", ">", ">=")
    ],
    # the right column first
    ("SELECT a.s, b.s FROM a JOIN b ON a.k = b.k AND b.v > a.v",
     "SELECT a.s, b.s FROM a JOIN b ON a.k = b.k AND b.v > a.v + 0"),
    # a LEFT JOIN pads a left row whose run is empty, in its place
    ("SELECT a.v, b.v FROM a LEFT JOIN b ON a.k = b.k AND a.v <= b.v",
     "SELECT a.v, b.v FROM a LEFT JOIN b ON a.k = b.k AND a.v + 0 <= b.v"),
    # another conjunct is tested on the band's pairs
    ("SELECT a.v, b.s FROM a LEFT JOIN b "
     "ON a.k = b.k AND a.v < b.v AND b.s <> 'y'",
     "SELECT a.v, b.s FROM a LEFT JOIN b "
     "ON a.k = b.k AND a.v + 0 < b.v AND b.s <> 'y'"),
    # coded VARCHAR columns compare as their values
    ("SELECT a.s, b.s, b.v FROM a, b WHERE a.k = b.k AND a.s < b.s",
     "SELECT a.s, b.s, b.v FROM a, b WHERE a.k = b.k AND a.s || '' < b.s"),
    # no key: every build row is one bucket
    ("SELECT a.v, b.v FROM a, b WHERE a.v > b.v",
     "SELECT a.v, b.v FROM a, b WHERE a.v + 0 > b.v"),
    ("SELECT a.v, b.v FROM a LEFT JOIN b ON b.v >= a.v",
     "SELECT a.v, b.v FROM a LEFT JOIN b ON b.v >= a.v + 0"),
]


@pytest.mark.parametrize("band, hidden", PAIRS)
def test_band_probe_keeps_the_residual_paths_rows_in_order(band, hidden):
    database = _tables()
    assert _probe(database, band) == "band"
    assert _probe(database, hidden) != "band"
    rows = database.query(band)
    assert rows and rows == database.query(hidden)


def test_a_nan_falls_back_to_the_residual_path():
    """``NaN < x`` is false for every ``x``, but bisection needs an
    order: a NaN among the compared values sends the join back to the
    bucket lists, whose rows are the residual path's."""
    database = _tables("REAL", [0.0, 1.5, 2.0, 3.0])
    database.execute(
        "INSERT INTO b VALUES (1, CAST('nan' AS FLOAT), 'x')"
    )
    band, hidden = PAIRS[0]
    assert _probe(database, band) == "buckets"
    assert database.query(band) == database.query(hidden)
    database.execute("DELETE FROM b WHERE NOT (v >= 0)")
    assert _probe(database, band) == "band"
    assert database.query(band) == database.query(hidden)
