"""Property-based dump/restore round-trip tests."""

import datetime

from hypothesis import example, given, settings, strategies as st

from repro.sqlengine import Database
from repro.sqlengine.dump import dump_database, load_database
from repro.sqlengine.lexer import KEYWORDS as _SQL_KEYWORDS
from repro.sqlengine.types import SqlType

texts = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs",), blacklist_characters="\r"
    ),
    max_size=12,
)

rows_strategy = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(-100, 100)),
        st.one_of(st.none(), texts),
        st.one_of(st.none(), st.floats(allow_nan=False,
                                       allow_infinity=False)),
        st.one_of(st.none(), st.dates(min_value=datetime.date(1990, 1, 1),
                                      max_value=datetime.date(2050, 1, 1))),
        st.one_of(st.none(), st.booleans()),
    ),
    max_size=25,
)


class TestRoundTrip:
    @given(rows=rows_strategy)
    # a backslash before "t": the restore once read it as a tab
    @example(rows=[(None, "\\t", None, None, None)])
    @settings(max_examples=40, deadline=None)
    def test_typed_table_roundtrips_exactly(self, rows, tmp_path_factory):
        db = Database()
        db.create_table_from_rows(
            "t",
            ("i", "s", "f", "d", "b"),
            rows,
            (
                SqlType.INTEGER,
                SqlType.VARCHAR,
                SqlType.REAL,
                SqlType.DATE,
                SqlType.BOOLEAN,
            ),
        )
        target = tmp_path_factory.mktemp("dump")
        dump_database(db, target)
        restored = load_database(target)
        assert restored.query("SELECT i, s, f, d, b FROM t") == db.query(
            "SELECT i, s, f, d, b FROM t"
        )

    @given(
        names=st.lists(
            st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,8}", fullmatch=True)
            .filter(lambda s: s.upper() not in _SQL_KEYWORDS),
            min_size=1,
            max_size=4,
            unique_by=lambda s: s.lower(),
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_many_tables_roundtrip(self, names, tmp_path_factory):
        db = Database()
        for index, name in enumerate(names):
            db.create_table_from_rows(
                name, ("x",), [(index,)], (SqlType.INTEGER,)
            )
        target = tmp_path_factory.mktemp("dump")
        dump_database(db, target)
        restored = load_database(target)
        for index, name in enumerate(names):
            assert restored.query(f"SELECT x FROM {name}") == [(index,)]
