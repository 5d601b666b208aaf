"""sqlite3 as a second SQL server for the translation programs.

The paper's first design goal is relational interoperability: the
kernel's translation programs (the setup and Q0..Q11) run on an
ordinary SQL92 server.  This module runs them on sqlite3, copies the
encoded tables it produced into a fresh :class:`Database`, and runs the
same core operator and postprocessor there, so that a test can compare
the four output tables with the system's own and with the reference
semantics (``tests/minerule_reference.py``).

The program text is the translator's, changed only by the rewrites
below.  The list *is* the measured interoperability result
(EXPERIMENTS.md, "Interoperability"):

1. ``CREATE`` / ``DROP SEQUENCE`` become host-side state;
2. ``seq.NEXTVAL`` becomes a registered ``nextval('seq')``;
3. ``DATE '...'`` becomes ISO text (and dates are stored as ISO text);
4. ``INSERT INTO t (SELECT ...)`` becomes ``CREATE TABLE t AS SELECT
   ...``, because the engine's INSERT creates a missing target;
5. the parentheses around ``CREATE VIEW v AS (SELECT ...)`` are dropped;
6. ``SELECT ... INTO :totg`` is bound host-side, and ``:mingroups``
   comes from ``min_group_count`` after Q1, as the preprocessor does.

Host variables stay ``:name`` parameters, which sqlite3 binds natively.
"""

from __future__ import annotations

import datetime
import re
import sqlite3
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.algorithms import get_algorithm
from repro.kernel.core.general import GeneralCoreOperator
from repro.kernel.core.inputs import CoreInputLoader, min_group_count
from repro.kernel.core.simple import SimpleCoreOperator
from repro.kernel.postprocessor import Postprocessor
from repro.kernel.program import TranslationProgram
from repro.sqlengine import Database

Rows = List[Tuple[Any, ...]]

_SEQUENCE = re.compile(
    r"^(CREATE|DROP) SEQUENCE (?:IF EXISTS )?(\w+)$", re.IGNORECASE
)
_NEXTVAL = re.compile(r"\b(\w+)\.NEXTVAL\b", re.IGNORECASE)
_DATE = re.compile(r"\bDATE\s+('[^']*')", re.IGNORECASE)
_INSERT_SELECT = re.compile(
    r"^INSERT INTO (\w+)( \([^()]*\))? \((SELECT .*)\)$",
    re.IGNORECASE | re.DOTALL,
)
_VIEW = re.compile(
    r"^(CREATE VIEW \w+ AS) \((SELECT .*)\)$", re.IGNORECASE | re.DOTALL
)
_SELECT_INTO = re.compile(
    r"^(SELECT .*?) INTO :(\w+) (FROM .*)$", re.IGNORECASE | re.DOTALL
)


def storable(value: Any) -> Any:
    """A value as sqlite3 stores it: dates as ISO text (rewrite 3)."""
    return value.isoformat() if isinstance(value, datetime.date) else value


class SqliteServer:
    """One in-memory sqlite3 database that accepts the engine's dialect
    through the six rewrites of this module."""

    def __init__(self) -> None:
        self.conn = sqlite3.connect(":memory:")
        self.sequences: Dict[str, int] = {}
        self.variables: Dict[str, Any] = {}
        self.conn.create_function("nextval", 1, self._nextval)

    def _nextval(self, name: str) -> int:
        self.sequences[name] += 1
        return self.sequences[name]

    def has_table(self, name: str) -> bool:
        return self.conn.execute(
            "SELECT 1 FROM sqlite_master WHERE type = 'table' "
            "AND lower(name) = lower(?)", (name,)
        ).fetchone() is not None

    def load(self, name: str, columns: Sequence[str], rows: Iterable) -> None:
        """A source table with untyped columns, so that sqlite3 keeps
        every value as given (no affinity conversion)."""
        self.conn.execute(f"CREATE TABLE {name} ({', '.join(columns)})")
        marks = ", ".join("?" for _ in columns)
        self.conn.executemany(
            f"INSERT INTO {name} VALUES ({marks})",
            [tuple(map(storable, row)) for row in rows],
        )

    def rewrite(self, sql: str) -> Optional[str]:
        """The statement sqlite3 runs for *sql*; None when the statement
        is host-side state only (rewrite 1)."""
        sequence = _SEQUENCE.match(sql)
        if sequence:
            verb, name = sequence.groups()
            if verb.upper() == "CREATE":
                self.sequences[name] = 0
            else:
                self.sequences.pop(name, None)
            return None
        sql = _NEXTVAL.sub(r"nextval('\1')", sql)
        sql = _DATE.sub(r"\1", sql)
        insert = _INSERT_SELECT.match(sql)
        if insert:
            target, column_list, select = insert.groups()
            if self.has_table(target):
                return f"INSERT INTO {target}{column_list or ''} {select}"
            return f"CREATE TABLE {target} AS {select}"
        view = _VIEW.match(sql)
        if view:
            return f"{view.group(1)} {view.group(2)}"
        return sql

    def execute(self, sql: str, params: Optional[Dict[str, Any]] = None) -> Rows:
        """Run one statement of the engine's dialect; the rows it
        answers (empty for DDL / DML)."""
        bound = {**self.variables, **(params or {})}
        into = _SELECT_INTO.match(sql)
        if into:
            head, variable, tail = into.groups()
            rows = self.execute(f"{head} {tail}", params)
            self.variables[variable] = rows[0][0]
            return rows
        statement = self.rewrite(sql)
        if statement is None:
            return []
        return self.conn.execute(statement, bound).fetchall()

    def table(self, name: str) -> Tuple[List[str], Rows]:
        cursor = self.conn.execute(f"SELECT * FROM {name}")
        return [d[0] for d in cursor.description], cursor.fetchall()

    def close(self) -> None:
        self.conn.close()


def run_program(program: TranslationProgram, server: SqliteServer) -> None:
    """Run *program*'s setup and preprocessing queries on *server*,
    binding ``:mingroups`` after Q1 (rewrite 6)."""
    for query in program.setup + program.preprocessing:
        server.execute(query.sql)
        if query.label == "Q1":
            server.variables["mingroups"] = min_group_count(
                program.statement.min_support, server.variables["totg"]
            )


def encoded_tables(
    program: TranslationProgram, server: SqliteServer
) -> Dict[str, Tuple[List[str], Rows]]:
    """The workspace tables *server* holds (views excluded)."""
    return {
        name: server.table(name)
        for name in program.workspace.all_tables()
        if server.has_table(name)
    }


def database_tables(
    database: Database, names: Iterable[str]
) -> Dict[str, Tuple[List[str], Rows]]:
    """The tables *names* of *database*, in :func:`encoded_tables`'
    form."""
    return {
        name: (list(database.table(name).columns), database.table(name).rows)
        for name in names
    }


def renamed(
    program: TranslationProgram, tables: Dict[str, Tuple[List[str], Rows]]
) -> Dict[str, Tuple[List[str], List[Tuple]]]:
    """*tables* with every Gid, Bid, Hid and Cid replaced by what it
    stands for (the group key, the element, the group and cluster key),
    dates as ISO text and rows as a sorted multiset: two servers number
    rows in different orders, so encoded tables compare only up to
    renaming."""
    names = program.workspace

    def meanings(table: str, strip_count: bool) -> Dict[Any, Tuple]:
        if table not in tables:
            return {}
        end = -1 if strip_count else None
        return {
            row[0]: tuple(map(storable, row[1:end]))
            for row in tables[table][1]
        }

    groups = meanings(names.valid_groups, False)
    bodies = meanings(names.bset, True)
    heads = meanings(names.hset, True) or bodies
    clusters = {
        row[0]: (groups.get(row[1]), tuple(map(storable, row[2:])))
        for row in tables.get(names.clusters, ((), ()))[1]
    }
    decoders = {
        "gid": groups, "bid": bodies, "hid": heads,
        "cid": clusters, "bcid": clusters, "hcid": clusters,
    }
    result = {}
    for table, (columns, rows) in tables.items():
        lowered = [column.lower() for column in columns]
        column_decoders = [decoders.get(column) for column in lowered]
        decoded = [
            tuple(
                ("id", decoder[value]) if decoder and value is not None
                else ("value", storable(value))
                for decoder, value in zip(column_decoders, row)
            )
            for row in rows
        ]
        result[table] = (lowered, sorted(decoded, key=repr))
    return result


def mine_copy(
    program: TranslationProgram, server: SqliteServer
) -> Database:
    """A fresh database holding *server*'s encoded tables and host
    variables, after the same core operator and postprocessor the
    system runs have mined it."""
    database = Database()
    for name, (columns, rows) in encoded_tables(program, server).items():
        database.create_table_from_rows(name, columns, rows)
    database.variables.update(
        totg=server.variables["totg"],
        mingroups=server.variables["mingroups"],
    )
    loader = CoreInputLoader(database, program.core)
    if program.core.simple:
        data, _ = loader.load_simple_columns()
        rules = SimpleCoreOperator(get_algorithm("apriori")).run(
            data, program.core
        )
    else:
        rules = GeneralCoreOperator().run(loader.load_general(), program.core)
    postprocessor = Postprocessor(database)
    postprocessor.store_encoded_rules(program, rules)
    postprocessor.decode(program)
    return database


def output_tables(database: Database, out: str) -> Dict[str, Rows]:
    """The four output relations of *out*, as stored."""
    return {
        name: database.query(f"SELECT * FROM {name}")
        for name in (out, f"{out}_Bodies", f"{out}_Heads", f"{out}_Display")
    }


def mine_on_sqlite(
    program: TranslationProgram,
    sources: Dict[str, Tuple[Sequence[str], Iterable]],
) -> Tuple[SqliteServer, Database]:
    """*program* run on sqlite3 over *sources* (table name -> (columns,
    rows)), then mined: the server and the database holding the output
    relations."""
    server = SqliteServer()
    for name, (columns, rows) in sources.items():
        server.load(name, columns, rows)
    run_program(program, server)
    return server, mine_copy(program, server)
