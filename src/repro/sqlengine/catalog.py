"""The catalog (data dictionary): tables, views, sequences, indexes.

The paper's translator "checks the correctness of the statement by
accessing the DBMS Data Dictionary" — :meth:`Catalog.describe` and
:meth:`Catalog.resolve_columns` provide that service to the mining
kernel.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.errors import CatalogError
from repro.sqlengine.table import Table
from repro.sqlengine.types import SqlType


@dataclass
class Sequence:
    """Oracle-style monotone integer generator (``seq.NEXTVAL``).

    ``nextval`` is atomic: concurrent job workers drawing from one
    sequence never observe a duplicate or skipped value.
    """

    name: str
    next_value: int = 1
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def nextval(self) -> int:
        with self._lock:
            value = self.next_value
            self.next_value += 1
            return value

    def nextvals(self, count: int) -> range:
        """*count* consecutive values reserved under one lock
        acquisition — what *count* ``nextval()`` calls in a row would
        return, with no other caller's value in between."""
        with self._lock:
            start = self.next_value
            self.next_value = start + count
        return range(start, start + count)

    def reset(self, start: int = 1) -> None:
        with self._lock:
            self.next_value = start


@dataclass
class View:
    """A named, non-materialized query (re-planned on each reference)."""

    name: str
    select: ast.Select


@dataclass
class Index:
    """Recorded index definition; used as a planning hint only."""

    name: str
    table: str
    columns: Tuple[str, ...]


class Catalog:
    """Case-insensitive namespace of database objects."""

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}
        self._views: Dict[str, View] = {}
        self._sequences: Dict[str, Sequence] = {}
        self._indexes: Dict[str, Index] = {}
        #: serializes DDL against concurrent lookups: every mutator
        #: (and the version bump) runs under it, so a plan-cache probe
        #: can never observe a half-applied create/drop
        self._lock = threading.RLock()
        #: monotone counter bumped by every DDL change; the engine's
        #: plan cache keys on it, so any catalog change evicts plans
        self.version = 0

    def _bump_version(self) -> None:
        with self._lock:
            self.version += 1

    # -- tables -----------------------------------------------------------

    def create_table(self, table: Table) -> None:
        key = table.name.lower()
        with self._lock:
            if key in self._tables or key in self._views:
                raise CatalogError(f"object {table.name!r} already exists")
            self._tables[key] = table
            self._bump_version()

    def get_table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"no such table: {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def drop_table(self, name: str, if_exists: bool = False) -> bool:
        key = name.lower()
        with self._lock:
            if key not in self._tables:
                if if_exists:
                    return False
                raise CatalogError(f"no such table: {name!r}")
            del self._tables[key]
            self._indexes = {
                k: ix for k, ix in self._indexes.items() if ix.table.lower() != key
            }
            self._bump_version()
            return True

    def tables(self) -> List[Table]:
        with self._lock:
            return list(self._tables.values())

    # -- views --------------------------------------------------------------

    def create_view(self, view: View, or_replace: bool = False) -> None:
        key = view.name.lower()
        with self._lock:
            if key in self._tables:
                raise CatalogError(
                    f"object {view.name!r} already exists as a table"
                )
            if key in self._views and not or_replace:
                raise CatalogError(f"view {view.name!r} already exists")
            self._views[key] = view
            self._bump_version()

    def get_view(self, name: str) -> View:
        try:
            return self._views[name.lower()]
        except KeyError:
            raise CatalogError(f"no such view: {name!r}") from None

    def has_view(self, name: str) -> bool:
        return name.lower() in self._views

    def drop_view(self, name: str, if_exists: bool = False) -> bool:
        key = name.lower()
        with self._lock:
            if key not in self._views:
                if if_exists:
                    return False
                raise CatalogError(f"no such view: {name!r}")
            del self._views[key]
            self._bump_version()
            return True

    def views(self) -> List[View]:
        with self._lock:
            return list(self._views.values())

    # -- sequences ------------------------------------------------------------

    def create_sequence(self, name: str, start: int = 1) -> Sequence:
        key = name.lower()
        with self._lock:
            if key in self._sequences:
                raise CatalogError(f"sequence {name!r} already exists")
            seq = Sequence(name, start)
            self._sequences[key] = seq
            self._bump_version()
            return seq

    def get_sequence(self, name: str) -> Sequence:
        try:
            return self._sequences[name.lower()]
        except KeyError:
            raise CatalogError(f"no such sequence: {name!r}") from None

    def has_sequence(self, name: str) -> bool:
        return name.lower() in self._sequences

    def drop_sequence(self, name: str, if_exists: bool = False) -> bool:
        key = name.lower()
        with self._lock:
            if key not in self._sequences:
                if if_exists:
                    return False
                raise CatalogError(f"no such sequence: {name!r}")
            del self._sequences[key]
            self._bump_version()
            return True

    # -- indexes -----------------------------------------------------------

    def create_index(self, index: Index) -> None:
        key = index.name.lower()
        with self._lock:
            if key in self._indexes:
                raise CatalogError(f"index {index.name!r} already exists")
            table = self.get_table(index.table)
            table.create_index(index.name, index.columns)
            self._indexes[key] = index
            self._bump_version()

    def drop_index(self, name: str, if_exists: bool = False) -> bool:
        key = name.lower()
        with self._lock:
            if key not in self._indexes:
                if if_exists:
                    return False
                raise CatalogError(f"no such index: {name!r}")
            index = self._indexes.pop(key)
            if self.has_table(index.table):
                self.get_table(index.table).drop_index(name)
            self._bump_version()
            return True

    # -- data dictionary services -------------------------------------------

    def exists(self, name: str) -> bool:
        key = name.lower()
        return key in self._tables or key in self._views

    def describe(self, name: str) -> List[Tuple[str, Optional[SqlType]]]:
        """Column names and types of a table (views are resolved lazily
        by the executor, so only their names are known here)."""
        key = name.lower()
        if key in self._tables:
            table = self._tables[key]
            return list(zip(table.columns, table.types))
        raise CatalogError(f"no such table: {name!r}")

    def storage_of(self, name: str) -> str:
        """Physical layout of a base table ("row" or "columnar")."""
        return getattr(self.get_table(name), "storage", "row")
