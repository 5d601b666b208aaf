"""An in-memory SQL92-subset relational engine.

This package is the "SQL server" substrate of the tightly-coupled data
mining architecture (Meo, Psaila & Ceri, ICDE 1998).  It provides the
relational functionality the paper's preprocessor and postprocessor rely
on: tables, views, Oracle-style sequences with ``NEXTVAL``, host
variables (``:name``), ``INSERT INTO .. SELECT``, joins, grouping with
``HAVING``, ``DISTINCT``, subqueries and three-valued logic.

The public entry point is :class:`~repro.sqlengine.engine.Database`::

    from repro.sqlengine import Database

    db = Database()
    db.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
    db.execute("INSERT INTO t VALUES (1, 'x')")
    rows = db.query("SELECT a, b FROM t WHERE a > :low", {"low": 0})
"""

from repro.sqlengine.engine import CacheStats, Database
from repro.sqlengine.errors import (
    CatalogError,
    ExecutionError,
    SqlError,
    SqlParseError,
    SqlTypeError,
)
from repro.sqlengine.table import Table
from repro.sqlengine.types import SqlType

__all__ = [
    "CacheStats",
    "CatalogError",
    "Database",
    "ExecutionError",
    "SqlError",
    "SqlParseError",
    "SqlType",
    "SqlTypeError",
    "Table",
]
