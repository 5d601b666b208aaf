"""In-memory table storage.

A :class:`Table` is a schema (ordered column names with SQL types)
stored as one :class:`~repro.sqlengine.columnar.ColumnVector` per
column.  Every table has this one layout: the source tables a user
loads and the encoded tables the preprocessor materializes alike.  The
batch executor (:mod:`repro.sqlengine.vector`) and the core loaders
read the vectors as scan columns (:meth:`Table.column_lists`: arrays,
dictionary codes or lists); ``rows`` is a read-only materialization
for DML, index lookups and dumps.  Writes go
through the table (``insert``, ``insert_columns``, ``truncate``), which
coerces to the declared types, so a declared type is a fact the
executor's typed kernels may trust; ``replace_rows`` stores its rows
as given and requires them to fit the declared types already.

Column lookup is case-insensitive, matching the catalog's identifier
semantics.
"""

from __future__ import annotations

import datetime
from array import array
from itertools import islice
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.sqlengine.columnar import Coded, ColumnVector
from repro.sqlengine.errors import CatalogError, ExecutionError
from repro.sqlengine.types import SqlType, coerce, infer_type

Row = Tuple[Any, ...]

#: rows :meth:`Table.insert_many` holds as Python tuples at once
BULK_CHUNK_ROWS = 4096


class TableIndex:
    """A hash index over one or more columns.

    Maps a key tuple (one value per indexed column) to the list of
    rows carrying it.  NULL keys are not indexed — SQL equality can
    never select them.
    """

    __slots__ = ("name", "columns", "positions", "entries")

    def __init__(self, name: str, columns: Tuple[str, ...],
                 positions: Tuple[int, ...]):
        self.name = name
        self.columns = columns
        self.positions = positions
        self.entries: Dict[Tuple[Any, ...], List[Row]] = {}

    def key_of(self, row: Row) -> Optional[Tuple[Any, ...]]:
        key = tuple(row[i] for i in self.positions)
        if any(v is None for v in key):
            return None
        return key

    def add(self, row: Row) -> None:
        key = self.key_of(row)
        if key is not None:
            self.entries.setdefault(key, []).append(row)

    def lookup(self, key: Tuple[Any, ...]) -> List[Row]:
        return self.entries.get(key, [])

    def rebuild(self, rows: Iterable[Row]) -> None:
        self.entries = {}
        for row in rows:
            self.add(row)


class RowList(list):
    """The rows of a table, read-only: a materialization of its
    column vectors, so a write into it would silently miss them."""

    __slots__ = ()

    def _refuse(self, *args: Any, **kwargs: Any) -> None:
        raise TypeError(
            "Table.rows is read-only: write through the table "
            "(insert, replace_rows, truncate)"
        )

    append = extend = insert = pop = remove = clear = _refuse
    sort = reverse = _refuse
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse


#: the Python type ``coerce`` hands back unchanged, per declared type
_CANONICAL = {
    SqlType.INTEGER: int,
    SqlType.REAL: float,
    SqlType.VARCHAR: str,
    SqlType.DATE: datetime.date,
    SqlType.BOOLEAN: bool,
}


#: the declared type an ``array`` column of each typecode already has
_ARRAY_TYPE = {"q": SqlType.INTEGER, "d": SqlType.REAL}


def _fit_column(
    column: Sequence[Any], declared: Optional[SqlType]
) -> Tuple[Sequence[Any], Optional[set], Optional[SqlType]]:
    """*column* coerced to *declared* with one type pass, as
    ``(values, the set of their Python types or None, type)``; an
    undeclared type is the first non-NULL value's (``coerce`` leaves
    that value and the NULLs before it as they are).  An ``array`` or
    :class:`Coded` column that already has the type comes back as it
    is, unread."""
    if type(column) is array:
        own = _ARRAY_TYPE[column.typecode]
        if declared is None or declared is own:
            return column, None, own
        column = column.tolist()
    elif type(column) is Coded:
        if declared is SqlType.VARCHAR:
            return column, None, declared
        if declared is None:
            if any(code >= 0 for code in column.codes):
                declared = SqlType.VARCHAR
            return column, None, declared
        column = column.decode()
    kinds = set(map(type, column))
    if declared is None:
        first = next((v for v in column if v is not None), None)
        if first is None:
            return column, kinds, None
        declared = infer_type(first)
    canonical = _CANONICAL[declared]
    if kinds <= {canonical, type(None)}:
        return column, kinds, declared
    return [
        v if type(v) is canonical or v is None else coerce(v, declared)
        for v in column
    ], None, declared


class Table:
    """A mutable relation with a fixed schema, one vector per column.

    Secondary hash indexes (:class:`TableIndex`) are maintained on
    every mutation; the planner uses them for equality lookups."""

    def __init__(
        self,
        name: str,
        columns: Sequence[str],
        types: Optional[Sequence[Optional[SqlType]]] = None,
    ):
        if len(set(c.lower() for c in columns)) != len(columns):
            raise CatalogError(f"duplicate column name in table {name!r}")
        self.name = name
        self.columns: Tuple[str, ...] = tuple(columns)
        self.types: List[Optional[SqlType]] = (
            list(types) if types is not None else [None] * len(columns)
        )
        if len(self.types) != len(self.columns):
            raise CatalogError(
                f"table {name!r}: {len(columns)} columns but {len(self.types)} types"
            )
        self._index: Dict[str, int] = {c.lower(): i for i, c in enumerate(columns)}
        #: secondary indexes by lowered name
        self.indexes: Dict[str, TableIndex] = {}
        #: mutations that were not appends (DELETE, UPDATE, truncate):
        #: a reader that remembered a row count compares this to know
        #: the rows below it are still the ones it saw
        self.rewrites = 0
        self._vectors: List[ColumnVector] = [ColumnVector() for _ in self.columns]
        self._length = 0
        #: the cached ``rows`` materialization; every write drops it
        self._rows: Optional[RowList] = None

    # -- schema ----------------------------------------------------------

    def column_index(self, column: str) -> int:
        """Position of *column* (case-insensitive); :class:`CatalogError`
        if absent."""
        try:
            return self._index[column.lower()]
        except KeyError:
            raise CatalogError(
                f"no column {column!r} in table {self.name!r} "
                f"(columns: {', '.join(self.columns)})"
            ) from None

    @property
    def arity(self) -> int:
        return len(self.columns)

    # -- reads -----------------------------------------------------------

    def column_vector(self, position: int) -> ColumnVector:
        return self._vectors[position]

    def column_lists(
        self, positions: Optional[Sequence[int]] = None
    ) -> List[Optional[Sequence[Any]]]:
        """The columns as scans read them (no row tuples), each a copy
        no later write reaches (:meth:`ColumnVector.scan`): an
        ``array`` for a NULL-free int or float column, :class:`Coded`
        for a str column, a list otherwise.  All of them, or only those
        at *positions* with ``None`` elsewhere.  Indexing and iterating
        any of them gives the values; none is to be written into."""
        if positions is None:
            return [vector.scan() for vector in self._vectors]
        out: List[Optional[Sequence[Any]]] = [None] * len(self._vectors)
        for position in positions:
            out[position] = self._vectors[position].scan()
        return out

    @property
    def rows(self) -> RowList:
        """The row tuples, materialized once per version of the table
        and read-only."""
        rows = self._rows
        if rows is None:
            rows = self._rows = RowList(
                zip(*(vector.to_pylist() for vector in self._vectors))
            )
        return rows

    def sample(self, stop: int, stride: int, start: int = 0) -> List[Row]:
        """The rows at positions ``start, start + stride, ...`` below
        *stop*, read column-wise: no other row is touched."""
        return list(zip(*(v.sample(stop, stride, start) for v in self._vectors)))

    def tail(self, start: int, name: str) -> "Table":
        """The rows from position *start* on as a relation of their
        own called *name*: same columns and types, the stored values
        shared (no insert, no coercion), no secondary indexes.  A
        read-only view for one query; the cost is the tail's length."""
        out = Table(name, self.columns, self.types)
        out._vectors = [vector.tail(start) for vector in self._vectors]
        out._length = max(self._length - start, 0)
        return out

    def get(self, row: Row, column: str) -> Any:
        return row[self.column_index(column)]

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name!r}, {self._length} rows)"

    # -- writes ----------------------------------------------------------

    def insert(self, values: Sequence[Any]) -> None:
        """Append one row, coercing values to declared column types (an
        undeclared type is inferred from the column's first non-NULL
        value)."""
        if len(values) != len(self.columns):
            raise ExecutionError(
                f"INSERT into {self.name!r}: expected {len(self.columns)} "
                f"values, got {len(values)}"
            )
        types = self.types
        vectors = self._vectors
        stored: Optional[List[Any]] = [] if self.indexes else None
        for i, value in enumerate(values):
            declared = types[i]
            if declared is None:
                if value is not None:
                    types[i] = infer_type(value)
            else:
                value = coerce(value, declared)
            vectors[i].append(value)
            if stored is not None:
                stored.append(value)
        self._length += 1
        self._rows = None
        if stored is not None:
            row = tuple(stored)
            for table_index in self.indexes.values():
                table_index.add(row)

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        """Bulk append of *rows*, read once, :data:`BULK_CHUNK_ROWS` at
        a time: each chunk is transposed and appended by
        :meth:`insert_columns`, so a load holds one chunk of rows beside
        the columns it fills.  All or nothing: a wrong arity or a
        refused value in any chunk, or an exception from *rows* itself,
        leaves the table as it was."""
        arity = len(self.columns)
        rows = iter(rows)
        length, types, cached = self._length, list(self.types), self._rows
        marks = [vector.mark() for vector in self._vectors]
        count = 0
        try:
            while True:
                chunk = list(map(tuple, islice(rows, BULK_CHUNK_ROWS)))
                if not chunk:
                    return count
                for row in chunk:
                    if len(row) != arity:
                        raise ExecutionError(
                            f"INSERT into {self.name!r}: expected {arity} "
                            f"values, got {len(row)}"
                        )
                count += self.insert_columns(
                    [list(column) for column in zip(*chunk)]
                )
        except BaseException:
            grown = self._length != length
            for vector, mark in zip(self._vectors, marks):
                vector.rollback(mark)
            self.types[:] = types
            self._length = length
            self._rows = cached
            if grown:  # the chunks that went in reached the indexes too
                for table_index in self.indexes.values():
                    table_index.rebuild(self.rows)
            raise

    def insert_columns(self, columns: Sequence[Sequence[Any]]) -> int:
        """Column-wise bulk append (one type pass per column) of equally
        long columns, one per table column: lists, or the arrays and
        :class:`Coded` columns a scan hands out (appended without
        reading their values); they are only read.

        Semantically identical to per-row :meth:`insert`: declared
        types coerce every value, an undeclared type is inferred from
        the column's first non-NULL value and applied to the values
        after it — exactly the order the per-row path would see.
        """
        count = len(columns[0]) if columns else 0
        if not count:
            return 0
        if len(columns) != len(self.columns):
            raise ExecutionError(
                f"INSERT into {self.name!r}: expected {len(self.columns)} "
                f"values, got {len(columns)}"
            )
        # coerce every column before touching the table: a value that
        # does not fit its column's type must leave it unchanged
        fitted = list(map(_fit_column, columns, self.types))
        self.types[:] = [declared for _, _, declared in fitted]
        for vector, (col, kinds, _) in zip(self._vectors, fitted):
            vector.extend(col, kinds)
        self._length += count
        self._rows = None
        if self.indexes:
            for row in zip(*(col for col, _, _ in fitted)):
                for table_index in self.indexes.values():
                    table_index.add(row)
        return count

    def truncate(self) -> None:
        self.rewrites += 1
        self._vectors = [ColumnVector() for _ in self.columns]
        self._length = 0
        self._rows = None
        for table_index in self.indexes.values():
            table_index.entries = {}

    def replace_rows(self, rows: List[Row]) -> None:
        """Store *rows* in place of the table's rows (the DELETE/UPDATE
        path) and rebuild indexes.

        The values are stored as given, with no coercion and no type
        inference, so *rows* must already fit ``types``: every value in
        a declared column has that type's Python shape (or is NULL).
        Values of mixed types belong only in undeclared columns, which
        stay untyped as long as nothing is inserted into them."""
        self.rewrites += 1
        self._vectors = [ColumnVector() for _ in self.columns]
        for vector, column in zip(self._vectors, zip(*rows)):
            vector.extend(column)
        self._length = len(rows)
        self._rows = RowList(map(tuple, rows))
        for table_index in self.indexes.values():
            table_index.rebuild(self._rows)

    # -- secondary indexes ----------------------------------------------

    def create_index(self, name: str, columns: Sequence[str]) -> TableIndex:
        key = name.lower()
        if key in self.indexes:
            raise CatalogError(f"index {name!r} already exists on "
                               f"{self.name!r}")
        positions = tuple(self.column_index(c) for c in columns)
        table_index = TableIndex(name, tuple(columns), positions)
        table_index.rebuild(self.rows)
        self.indexes[key] = table_index
        return table_index

    def drop_index(self, name: str) -> None:
        self.indexes.pop(name.lower(), None)

    # -- presentation ------------------------------------------------------

    def pretty(self, limit: Optional[int] = None) -> str:
        """Render an ASCII table (used by examples and benches)."""
        return format_rows(self.columns, self.rows, limit)


def format_rows(
    columns: Sequence[str], rows: Sequence[Row], limit: Optional[int] = None
) -> str:
    """*rows* under a *columns* header as an ASCII table, the first
    *limit* of them when given."""
    shown = rows if limit is None else rows[:limit]
    cells = [[_fmt(v) for v in row] for row in shown]
    widths = [len(c) for c in columns]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
    header = "|" + "|".join(
        f" {c.ljust(w)} " for c, w in zip(columns, widths)
    ) + "|"
    lines = [sep, header, sep]
    for row in cells:
        lines.append(
            "|" + "|".join(f" {c.ljust(w)} " for c, w in zip(row, widths)) + "|"
        )
    lines.append(sep)
    if limit is not None and len(rows) > limit:
        lines.append(f"... ({len(rows) - limit} more rows)")
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)
