"""Unit tests for the columnar storage layer and the batch
executor's observable surface.

Covered here: the adaptive :class:`ColumnVector` layouts, their
exact-promotion rules and decodes, the :class:`Table` contract over
them (DML, indexes, the read-only ``rows``), EXPLAIN ANALYZE's
per-node counters, and the two loops that work a chunk at a time: a
filter over a coded column (held under a memory bound), and a theta
join and a keyless LEFT JOIN testing their candidate pairs (a keyless
band join forms none).  The end-to-end chunk-size invariance net
lives in ``tests/property/test_columnar_differential.py``.
"""

import datetime
import tracemalloc
from array import array

import pytest

import repro.sqlengine as sqlengine
from repro.sqlengine import Database, Table, columnar, vector
from repro.sqlengine import table as table_module
from repro.sqlengine.columnar import ColumnVector
from repro.sqlengine.types import SqlType


class TestColumnVector:
    def test_int_layout_with_nulls(self):
        vector = ColumnVector()
        for value in (1, None, 3):
            vector.append(value)
        assert vector.kind == "int"
        assert vector.to_pylist() == [1, None, 3]
        assert vector.get(1) is None
        assert vector.has_nulls

    def test_string_dictionary_interns_repeats(self):
        vector = ColumnVector()
        for value in ("a", "b", "a", None, "a"):
            vector.append(value)
        assert vector.kind == "str"
        assert vector.values == ["a", "b"]  # two distinct codes only
        assert vector.to_pylist() == ["a", "b", "a", None, "a"]
        assert vector.has_nulls
        vector.data.remove(-1)
        assert not vector.has_nulls

    def test_leading_null_run_adopts_later_layout(self):
        vector = ColumnVector()
        for value in (None, None, "x"):
            vector.append(value)
        assert vector.kind == "str"
        assert vector.to_pylist() == [None, None, "x"]

    def test_promotion_keeps_values_exact(self):
        vector = ColumnVector()
        vector.append(7)
        vector.append(datetime.date(1995, 1, 1))  # int cannot hold it
        assert vector.kind == "obj"
        assert vector.to_pylist() == [7, datetime.date(1995, 1, 1)]

    def test_bool_and_overflow_go_to_obj(self):
        vector = ColumnVector()
        vector.append(True)
        assert vector.kind == "obj"
        big = ColumnVector()
        big.append(2**70)
        assert big.kind == "obj"
        assert big.to_pylist() == [2**70]

    @pytest.mark.parametrize("values", [
        (1, None, 3, None, 5),
        (1.5, None, 2.5),
        ("a", "b", None, "a"),
        (None, None, None),
        (True, 2**70, None),
    ])
    def test_tail_and_get_agree_with_the_full_decode(self, values):
        vector = ColumnVector()
        for value in values:
            vector.append(value)
        assert [vector.get(i) for i in range(len(values))] == list(values)
        for start in range(len(values) + 2):
            tail = vector.tail(start)
            assert tail.kind == vector.kind
            assert len(tail) == len(values[start:])
            assert tail.to_pylist() == list(values[start:])

    def test_tail_shares_the_string_dictionary(self):
        vector = ColumnVector()
        vector.extend(["a", "b", "a"])
        assert vector.tail(1).values is vector.values

    @pytest.mark.parametrize("values", [
        (1, None, 3, None, 5, 6, None),
        (1.5, None, 2.5),
        ("a", "b", None, "a", "c", "a", None, "b"),
        (None, None, None),
        (True, 2**70, None, "x"),
        (),
    ])
    def test_sample_and_decode_are_exact(self, values):
        vector = ColumnVector()
        vector.extend(list(values))
        full = list(values)
        assert vector.to_pylist() == full
        for stop in range(len(values) + 2):
            for stride in (1, 2, 3):
                assert vector.sample(stop, stride) == full[:stop:stride]
                for start in range(stop + 2):
                    assert vector.sample(stop, stride, start) == (
                        full[start:stop:stride]
                    )


class TestColumnarTable:
    def _table(self):
        table = Table("T", ("a", "b"), [SqlType.INTEGER, SqlType.VARCHAR])
        table.insert((1, "x"))
        table.insert((2, "y"))
        table.insert((None, "x"))
        return table

    def test_row_contract(self):
        table = self._table()
        assert len(table) == 3
        assert list(table) == [(1, "x"), (2, "y"), (None, "x")]
        assert table.get(table.rows[1], "b") == "y"

    def test_replace_and_truncate(self):
        table = self._table()
        table.replace_rows([(9, "z")])
        assert list(table) == [(9, "z")]
        table.truncate()
        assert len(table) == 0
        assert table.rows == []

    def test_secondary_index_maintained(self):
        table = self._table()
        index = table.create_index("ix_b", ("b",))
        assert list(index.lookup(("x",))) == [(1, "x"), (None, "x")]
        table.insert((4, "x"))
        assert len(index.lookup(("x",))) == 3

    def test_rows_refuse_append_and_item_assignment(self):
        # rows materializes the vectors: a write into it would miss them
        table = self._table()
        rows = table.rows
        for write in (
            lambda: rows.append((5, "w")),
            lambda: rows.extend([(5, "w")]),
            lambda: rows.__setitem__(0, (5, "w")),
            lambda: rows.__delitem__(0),
            lambda: rows.pop(),
        ):
            with pytest.raises(TypeError, match="read-only"):
                write()
        with pytest.raises(AttributeError):
            table.rows = [(5, "w")]
        assert len(table) == 3 and table.rows is rows
        assert table.column_lists()[0] == [1, 2, None]
        table.insert((5, "w"))
        assert table.rows == [(1, "x"), (2, "y"), (None, "x"), (5, "w")]

    def test_insert_coerces_to_declared_types(self):
        table = Table("T", ("a",), [SqlType.REAL])
        table.insert((1,))
        assert table.rows == [(1.0,)]

    @pytest.mark.parametrize("write", ["columnar", "row"])
    def test_tail_is_a_relation_over_the_stored_values(self, write):
        """Over vectors written in one column-wise ``insert_many`` or
        one ``insert`` per row alike."""
        table = Table("T", ("a", "b"), [SqlType.INTEGER, SqlType.VARCHAR])
        rows = [(1, "x"), (2, "y"), (None, "x")]
        if write == "columnar":
            table.insert_many(rows)
        else:
            for row in rows:
                table.insert(row)
        table.create_index("ix_b", ("b",))
        tail = table.tail(1, "T_tail")
        assert (tail.name, tail.columns, tail.types) == (
            "T_tail", table.columns, table.types
        )
        assert len(tail) == 2 and not tail.indexes
        assert tail.rows == [(2, "y"), (None, "x")]
        # the dictionary is shared, not copied
        assert tail.column_vector(1).values is table.column_vector(1).values
        ints, strs = tail.column_lists()
        assert ints == [2, None]  # a NULL: a list, not an array
        assert isinstance(strs, columnar.Coded) and list(strs) == ["y", "x"]
        assert table.tail(3, "e").rows == [] == table.tail(9, "e").rows
        assert table.sample(3, 1) == table.rows
        assert table.sample(3, 2) == [(1, "x"), (None, "x")]
        assert table.sample(3, 2, 1) == [(2, "y")]

    def test_rewrites_count_every_mutation_that_is_not_an_append(self):
        db = Database()
        db.execute("CREATE TABLE T (a INTEGER, b VARCHAR)")
        table = db.catalog.get_table("T")
        db.execute("INSERT INTO T VALUES (1, 'x')")
        table.insert((2, "y"))
        table.insert_many([(3, "z")])
        assert table.rewrites == 0
        db.execute("UPDATE T SET b = 'w' WHERE a = 1")
        assert table.rewrites == 1
        # a statement that matches no row rewrites nothing: the counter
        # stands and the index is the one built before
        entries = table.create_index("t_a", ["a"]).entries
        rows_before = list(table.rows)
        assert db.execute("UPDATE T SET b = 'w' WHERE a = 99").rowcount == 0
        assert db.execute("DELETE FROM T WHERE a = 99").rowcount == 0
        assert table.rewrites == 1
        assert table.indexes["t_a"].entries is entries
        assert table.rows == rows_before
        db.execute("DELETE FROM T WHERE a = 2")
        assert table.indexes["t_a"].entries is not entries
        db.execute("DELETE FROM T")
        assert table.rewrites == 3
        table.truncate()
        assert table.rewrites == 4
        table.replace_rows([(7, "q")])
        assert table.rewrites == 5

    def test_one_table_type(self):
        """Every table has the one layout: nothing chooses another."""
        for gone in ("ColumnarTable", "STORAGE_KINDS"):
            assert not hasattr(sqlengine, gone)
            assert not hasattr(columnar, gone)
        assert not hasattr(columnar, "make_table")
        database = Database()
        assert not hasattr(database, "storage_hints")
        assert not hasattr(database.catalog, "storage_of")
        database.execute("CREATE TABLE t (a INTEGER)")
        assert type(database.table("t")) is Table
        assert not hasattr(database.table("t"), "storage")


def _stored(table):
    """What a table holds, column by column: the values, the layout,
    the dictionary of a str column, and the declared types."""
    vectors = [table.column_vector(i) for i in range(table.arity)]
    return (
        [vector.to_pylist() for vector in vectors],
        [vector.kind for vector in vectors],
        [vector.values for vector in vectors],
        list(table.types),
    )


def _with_table(database, name, columns, types=None):
    table = Table(name, columns, types)
    database.catalog.create_table(table)
    return table


class TestScanRepresentations:
    """A scan hands out the stored layout: an array for a NULL-free
    int / float column, codes for a str column, a list otherwise; each
    a copy no later write reaches."""

    def _table(self):
        table = Table("T", ("i", "f", "s", "n"), [
            SqlType.INTEGER, SqlType.REAL, SqlType.VARCHAR, SqlType.INTEGER,
        ])
        table.insert_many([(1, 0.5, "x", None), (2, 1.5, None, 4)])
        return table

    def test_each_layout_has_its_representation(self):
        i, f, s, n = self._table().column_lists()
        assert (type(i), i.typecode, list(i)) == (array, "q", [1, 2])
        assert (type(f), f.typecode, list(f)) == (array, "d", [0.5, 1.5])
        assert isinstance(s, columnar.Coded) and list(s) == ["x", None]
        assert s[0] == "x" and s.decode() == ["x", None] and len(s) == 2
        assert n == [None, 4]

    def test_a_scan_hands_out_a_copy(self):
        table = self._table()
        i, f, s, n = table.column_lists()
        assert i is not table.column_vector(0).data
        assert s.codes is not table.column_vector(2).data
        table.insert((3, 2.5, "y", 5))
        assert (list(i), list(f), list(s), n) == (
            [1, 2], [0.5, 1.5], ["x", None], [None, 4]
        )


class TestMutationPathsKeepWritableLists:
    """UPDATE writes into and DELETE rebuilds from lists of the stored
    values; an undeclared column takes an array's type without being
    spliced.  Each statement here meets an array or codes."""

    def _database(self):
        database = Database()
        database.execute("CREATE TABLE t (a INTEGER, r REAL, s VARCHAR)")
        database.execute("INSERT INTO t VALUES (1, 0.5, 'x')")
        database.execute("INSERT INTO t VALUES (2, 1.5, 'y')")
        return database

    def test_update_sets_null_in_a_null_free_integer_column(self):
        database = self._database()
        database.execute("UPDATE t SET a = NULL WHERE a = 1")
        assert database.query("SELECT a, r, s FROM t") == [
            (None, 0.5, "x"), (2, 1.5, "y")
        ]
        assert database.table("t").column_vector(0).kind == "int"

    def test_update_writes_an_int_into_a_real_column(self):
        database = self._database()
        database.execute("UPDATE t SET r = a")
        table = database.table("t")
        assert table.column_vector(1).to_pylist() == [1.0, 2.0]
        assert table.column_vector(1).kind == "float"
        database.execute("UPDATE t SET r = 5 WHERE s = 'y'")
        assert database.query("SELECT r FROM t") == [(1.0,), (5.0,)]
        assert all(type(r) is float for (r,) in database.query(
            "SELECT r FROM t"
        ))

    def test_delete_rebuilds_from_the_stored_values(self):
        database = self._database()
        database.execute("DELETE FROM t WHERE s = 'x'")
        assert database.query("SELECT a, r, s FROM t") == [(2, 1.5, "y")]
        assert [database.table("t").column_vector(i).kind
                for i in range(3)] == ["int", "float", "str"]

    def test_insert_select_from_an_array_into_an_undeclared_column(self):
        database = self._database()
        target = _with_table(database, "u", ["a"])
        twin = Table("twin", ["a"])
        for table in (target, twin):
            table.insert((None,))
        database.execute("INSERT INTO u SELECT a FROM t")
        for row in database.query("SELECT a FROM t"):
            twin.insert(row)
        assert _stored(target) == _stored(twin)
        assert target.types == [SqlType.INTEGER]
        assert target.rows == [(None,), (1,), (2,)]


class TestSelfReferencingInserts:
    """A statement reads the table it appends to: it appends exactly
    the rows the table held before it, once."""

    def _database(self):
        database = Database()
        database.execute("CREATE TABLE t (a INTEGER, s VARCHAR)")
        database.table("t").insert_many([(1, "x"), (2, "y"), (3, None)])
        return database

    def test_insert_select_star_from_itself(self):
        database = self._database()
        before = database.query("SELECT a, s FROM t")
        assert database.execute("INSERT INTO t SELECT * FROM t").rowcount == 3
        assert database.query("SELECT a, s FROM t") == before * 2

    def test_self_join_insert(self):
        database = self._database()
        before = database.query("SELECT a, s FROM t")
        database.execute(
            "INSERT INTO t SELECT x.a, y.s FROM t x, t y WHERE x.a = y.a"
        )
        assert database.query("SELECT a, s FROM t") == before * 2

    def test_a_cached_plan_sees_rows_appended_after_it_ran(self):
        database = self._database()
        queries = ("SELECT a, s FROM t WHERE a IS NOT NULL",
                   "SELECT DISTINCT s FROM t")
        first = [database.query(sql) for sql in queries]
        database.execute("INSERT INTO t SELECT a + 10, 'z' FROM t")
        again = [database.query(sql) for sql in queries]
        assert again[0] == first[0] + [(11, "z"), (12, "z"), (13, "z")]
        assert again[1] == first[1] + [("z",)]
        assert database.cache_stats.plan_hits >= 2


class TestInsertSelectIsExact:
    """``INSERT ... SELECT`` appends a scan's arrays and codes without
    re-checking every value; what it stores is what per-row
    ``Table.insert`` stores from the same values."""

    @pytest.mark.parametrize(
        "source_type, values, scanned, target_type, prefix", [
            # the int64 bounds, into a declared and an undeclared column
            (SqlType.INTEGER, [2**63 - 1, -(2**63), 0], array,
             SqlType.INTEGER, [5]),
            (SqlType.INTEGER, [2**63 - 1, -(2**63)], array, None, [None]),
            # past int64, from a column created undeclared
            (None, [1, 2**70], list, SqlType.INTEGER, [3]),
            (None, [2**70, 1], list, None, []),
            # True into INTEGER, an int into REAL
            (SqlType.BOOLEAN, [True, False, None], list, SqlType.INTEGER, []),
            (SqlType.INTEGER, [1, 2, 3], array, SqlType.REAL, [0.5]),
            (SqlType.REAL, [1.5, -0.0], array, None, [None]),
            # VARCHAR into a dictionary that already holds some values,
            # into a fresh one, and into a type it must be coerced to
            (SqlType.VARCHAR, ["a", "b", None, "a", "c"], columnar.Coded,
             SqlType.VARCHAR, ["b", "x"]),
            (SqlType.VARCHAR, ["a", None, "b"], columnar.Coded,
             SqlType.VARCHAR, []),
            (SqlType.VARCHAR, [None, "b", "a"], columnar.Coded, None,
             [None]),
            (SqlType.VARCHAR, ["1995-01-10"], columnar.Coded,
             SqlType.DATE, []),
        ],
    )
    def test_stores_what_per_row_insert_stores(
        self, source_type, values, scanned, target_type, prefix
    ):
        database = Database()
        source = _with_table(database, "src", ["a"], [source_type])
        for value in values:
            source.insert((value,))
        assert type(source.column_lists()[0]) is scanned
        target = _with_table(database, "dst", ["a"], [target_type])
        twin = Table("twin", ["a"], [target_type])
        for value in prefix:
            target.insert((value,))
            twin.insert((value,))
        database.execute("INSERT INTO dst SELECT a FROM src")
        for value in source.column_vector(0).to_pylist():
            twin.insert((value,))
        assert _stored(target) == _stored(twin)


    def test_only_nulls_leave_an_undeclared_column_untyped(self):
        database = Database()
        database.execute("CREATE TABLE t (s VARCHAR)")
        database.table("t").insert_many([("x",), (None,)])
        target = _with_table(database, "u", ["s"])
        database.execute("INSERT INTO u SELECT s FROM t WHERE s IS NULL")
        assert target.types == [None]
        assert target.column_vector(0).kind == "empty"
        database.execute("INSERT INTO u SELECT s FROM t")
        assert target.types == [SqlType.VARCHAR]
        assert target.rows == [(None,), ("x",), (None,)]


class TestExplainAnalyzeCounters:
    def _database(self):
        database = Database()
        database.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
        for i in range(200):
            database.execute(
                f"INSERT INTO t VALUES ({i}, 'v{i % 11}')"
            )
        return database

    def test_nodes_report_rows_and_loops(self):
        database = self._database()
        analysis = database.analyze(
            "SELECT b, COUNT(*) FROM t WHERE a > 10 GROUP BY b"
        )
        assert analysis.nodes, analysis.text
        assert all(n["loops"] == 1 for n in analysis.nodes)
        assert [n["rows"] for n in analysis.nodes][-2:] == [189, 200]
        assert "batches" not in analysis.text
        assert "vectorized" not in analysis.text
        assert all("vectorized" not in n for n in analysis.nodes)

    def test_subquery_plans_report_rows_and_loops(self):
        database = self._database()
        # the subquery's plan is annotated like the outer one
        analysis = database.analyze(
            "SELECT a FROM t WHERE a = (SELECT MAX(a) FROM t)"
        )
        assert analysis.result.rows == [(199,)]
        assert {n["plan"] for n in analysis.nodes} == {0, 1}
        assert all(n["loops"] == 1 for n in analysis.nodes)

    def _with_u(self):
        database = self._database()
        database.execute("CREATE TABLE u (c INTEGER)")
        database.execute("INSERT INTO u VALUES (0), (2), (NULL), (4), (6)")
        return database

    @staticmethod
    def _residual_calls(database, sql, operator):
        """Run *sql*; the answer and how often the join *operator*'s
        residual kernel ran (once per candidate chunk)."""
        database.explain(sql)  # plans and caches the statement
        join = next(
            node for node in database._statement_cache[sql].plan.nodes()
            if type(node).__name__ == operator
        )
        calls = []
        kernel = join._residual.fn

        def counted(ctx, cols, n):
            calls.append(n)
            return kernel(ctx, cols, n)

        join._residual.fn = counted
        return database.query(sql), len(calls)

    def test_theta_join_tests_its_pairs_a_chunk_at_a_time(
        self, monkeypatch
    ):
        """A theta join answers left-major and builds its candidate
        pairs about ``CHUNK_ROWS`` at a time: at 16, 200 × 5 pairs in
        chunks of three left rows (15 pairs) take 67 chunks, not one
        of 1 000 pairs."""
        monkeypatch.setattr(vector, "CHUNK_ROWS", 16)
        rows, chunks = self._residual_calls(
            self._with_u(),
            "SELECT t.a, u.c FROM t, u WHERE MOD(t.a, 7) < u.c",
            "NestedLoopJoin",
        )
        assert chunks == 67
        # left-major, in the right side's order
        assert rows == [
            (a, c) for a in range(200) for c in (0, 2, 4, 6) if a % 7 < c
        ]

    def test_keyless_left_join_tests_its_pairs_a_chunk_at_a_time(
        self, monkeypatch
    ):
        """A LEFT JOIN whose ON holds no equality runs the theta join's
        chunked candidate loop, not one bucket of all 1 000 pairs, and
        pads each left row none of whose pairs passes with NULL in its
        place."""
        monkeypatch.setattr(vector, "CHUNK_ROWS", 16)
        rows, chunks = self._residual_calls(
            self._with_u(),
            "SELECT t.a, u.c FROM t LEFT JOIN u ON MOD(t.a, 7) + 3 < u.c",
            "LeftOuterHashJoin",
        )
        assert chunks == 67
        expected = []
        for a in range(200):
            matches = [(a, c) for c in (0, 2, 4, 6) if a % 7 + 3 < c]
            expected.extend(matches or [(a, None)])
        assert rows == expected

    def test_keyless_band_join_probes_one_bucket(self, monkeypatch):
        """A keyless join whose whole residual compares a NULL-free
        column of each side bisects all build rows as one bucket: it
        forms no candidate chunk (its residual kernel never runs), and
        answers left-major in the right side's order as the chunked
        loop does."""
        monkeypatch.setattr(vector, "CHUNK_ROWS", 16)
        database = self._database()
        database.execute("CREATE TABLE w (a INTEGER)")
        database.execute("INSERT INTO w VALUES (150), (3), (199), (3)")
        sql = "SELECT t.a, w.a FROM t, w WHERE t.a < w.a"
        analysis = database.analyze(sql)
        join = next(
            n for n in analysis.nodes if n["operator"] == "NestedLoopJoin"
        )
        assert join["probe"] == "band"
        assert "probe=band]" in analysis.text
        rows, chunks = self._residual_calls(database, sql, "NestedLoopJoin")
        assert chunks == 0
        assert rows == analysis.result.rows == [
            (a, c) for a in range(200) for c in (150, 3, 199, 3) if a < c
        ]


class TestBulkLoad:
    """``Table.insert_many`` reads its rows once, a chunk at a time (3
    rows here, so a few rows span several chunks), and stores what the
    row-at-a-time ``insert`` stores; a load that fails anywhere leaves
    the table as it was."""

    @pytest.fixture(autouse=True)
    def _small_chunks(self, monkeypatch):
        monkeypatch.setattr(table_module, "BULK_CHUNK_ROWS", 3)

    @staticmethod
    def _per_row(columns, types, rows):
        table = Table("T", columns, types)
        for row in rows:
            table.insert(row)
        return table

    def test_a_leading_null_run_that_ends_in_a_later_chunk(self):
        rows = [(None,)] * 4 + [(5,), (6.0,), (None,)]
        table = Table("T", ("a",))
        assert table.insert_many(rows) == 7
        assert table.types == [SqlType.INTEGER]
        assert table.rows == [(None,)] * 4 + [(5,), (6,), (None,)]
        assert table.column_vector(0).nulls == [0, 1, 2, 3, 6]
        assert _stored(table) == _stored(self._per_row(("a",), None, rows))

    def test_a_generator_is_read_once(self):
        produced = []

        def rows():
            for i in range(8):
                produced.append(i)
                yield (i, f"v{i}")

        stream = rows()
        table = Table("T", ("a", "b"))
        assert table.insert_many(stream) == 8
        assert produced == list(range(8))
        assert next(stream, None) is None
        assert table.rows == [(i, f"v{i}") for i in range(8)]

    def test_an_empty_iterable_stores_nothing(self):
        table = Table("T", ("a", "b"))
        assert table.insert_many(iter(())) == 0
        assert len(table) == 0 and table.types == [None, None]
        database = Database()
        empty = database.create_table_from_rows("E", ("a",), iter(()))
        assert database.table("E") is empty and len(empty) == 0

    def test_str_codes_in_first_appearance_order_across_chunks(self):
        values = ["b", "a", "b", "c", "a", "d", "c", "e"]
        table = Table("T", ("s",), [SqlType.VARCHAR])
        table.insert_many((value,) for value in values)
        vector = table.column_vector(0)
        assert vector.values == ["b", "a", "c", "d", "e"]
        assert list(vector.data) == [0, 1, 0, 2, 1, 3, 2, 4]
        assert _stored(table) == _stored(
            self._per_row(("s",), [SqlType.VARCHAR], [(v,) for v in values])
        )

    def test_index_entries_after_a_multi_chunk_load(self):
        rows = [(i % 3, f"v{i}") for i in range(10)]
        table = Table("T", ("k", "v"))
        index = table.create_index("ix_k", ("k",))
        table.insert((1, "first"))
        table.insert_many(rows)
        assert index.lookup((1,)) == [(1, "first")] + [
            row for row in rows if row[0] == 1
        ]
        assert sum(map(len, index.entries.values())) == 11

    @pytest.mark.parametrize("failure", ["refused", "arity", "raises"])
    def test_a_failed_load_leaves_the_table_as_it_was(self, failure):
        table = Table("T", ("a", "b"), [None, SqlType.VARCHAR])
        table.insert((None, "x"))
        index = table.create_index("ix_b", ("b",))
        before = repr(_stored(table)), table.rows, repr(index.entries)

        def rows():
            # a new dictionary value and a promotion past int64 land in
            # earlier chunks before the failure
            yield from [(1, "y"), (2, "x"), (2**70, "z"), (4, "w")]
            if failure == "raises":
                raise RuntimeError("source failed")
            yield (5, 6) if failure == "refused" else (5,)

        with pytest.raises((sqlengine.SqlError, RuntimeError)):
            table.insert_many(rows())
        assert (repr(_stored(table)), table.rows, repr(index.entries)) == before
        assert table.types == [None, SqlType.VARCHAR]
        assert table.column_vector(0).kind == "empty"
        table.insert_many([(7, "v")])
        assert table.rows == [(None, "x"), (7, "v")]
        assert table.column_vector(1).values == ["x", "v"]

    @pytest.mark.parametrize("failure", ["refused", "arity", "raises"])
    def test_replace_keeps_the_old_table_when_the_load_fails(self, failure):
        database = Database()
        old = database.create_table_from_rows(
            "T", ("a",), [(1,), (2,)], (SqlType.INTEGER,)
        )

        def rows():
            yield from [(3,), (4,), (5,), (6,)]
            if failure == "raises":
                raise RuntimeError("source failed")
            yield ("x",) if failure == "refused" else (7, 8)

        with pytest.raises((sqlengine.SqlError, RuntimeError)):
            database.create_table_from_rows(
                "T", ("a",), rows(), (SqlType.INTEGER,), replace=True
            )
        assert database.table("T") is old
        assert database.query("SELECT a FROM T") == [(1,), (2,)]
        new = database.create_table_from_rows(
            "T", ("a",), [(9,)], (SqlType.INTEGER,), replace=True
        )
        assert database.table("T") is new
        assert database.query("SELECT a FROM T") == [(9,)]


def test_a_bulk_load_holds_one_chunk_of_rows_not_their_copies():
    """``create_table_from_rows`` over 50 000 two-column rows peaks
    under 2 MiB above its input (kept columns ≈ 0.6 MiB).  Copying and
    transposing the whole input peaked at 4.6 MiB."""
    rows = [(i, f"v{i % 500}") for i in range(50_000)]
    database = Database()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        database.create_table_from_rows(
            "T", ("a", "b"), rows, (SqlType.INTEGER, SqlType.VARCHAR)
        )
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(database.table("T")) == 50_000
    assert peak < 2 * 2**20, f"{peak / 2**20:.2f} MiB"


def test_a_filter_decodes_one_chunk_of_a_coded_column(monkeypatch):
    """A filter evaluates its predicate ``CHUNK_ROWS`` rows at a time,
    so a coded column is decoded one slice at a time: over 50 000 rows
    the query below peaks under 2 MiB (≈ 0.7 MiB).  Evaluated over
    whole columns it peaks at ≈ 5.6 MiB, which the same bound fails."""
    n = 50_000
    database = Database()
    database.create_table_from_rows(
        "t", ("a", "b", "c"),
        ((i, f"v{i % 100}", float(i)) for i in range(n)),
        (SqlType.INTEGER, SqlType.VARCHAR, SqlType.REAL),
    )
    assert isinstance(
        database.table("t").column_lists([1])[1], columnar.Coded
    )
    sql = f"SELECT COUNT(*) FROM t WHERE b = 'v3' OR c > {n - 50.0}"
    bound = 2 * 2**20

    def peak():
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert database.query(sql) == [(549,)]
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    chunked = peak()
    assert chunked < bound, f"{chunked / 2**20:.2f} MiB"
    monkeypatch.setattr(vector, "CHUNK_ROWS", n)
    whole = peak()
    assert whole > bound, f"{whole / 2**20:.2f} MiB"
