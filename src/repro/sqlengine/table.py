"""In-memory table storage.

A :class:`Table` is a schema (ordered column names with SQL types) plus
a list of row tuples.  Column lookup is case-insensitive, matching the
catalog's identifier semantics.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.sqlengine.errors import CatalogError, ExecutionError
from repro.sqlengine.types import SqlType, coerce, infer_type

Row = Tuple[Any, ...]


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


class Table:
    """A mutable heap of rows with a fixed schema.

    Secondary hash indexes (:class:`TableIndex`) are maintained on
    every mutation; the planner uses them for equality lookups."""

    #: physical layout discriminator; ColumnarTable overrides this —
    #: the planner/vectorizer branch on it instead of isinstance so
    #: duck-typed test doubles keep working
    storage = "row"

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
        self.rows: List[Row] = []
        self._index: Dict[str, int] = {c.lower(): i for i, c in enumerate(columns)}
        #: secondary indexes by lowered name
        self.indexes: Dict[str, TableIndex] = {}
        #: mutations that were not appends (DELETE, UPDATE, truncate):
        #: a reader that remembered a row count compares this to know
        #: the rows below it are still the ones it saw
        self.rewrites = 0

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

    def has_column(self, column: str) -> bool:
        return column.lower() in self._index

    @property
    def arity(self) -> int:
        return len(self.columns)

    # -- data ------------------------------------------------------------

    def insert(self, values: Sequence[Any]) -> None:
        """Append one row, coercing values to declared column types."""
        if len(values) != self.arity:
            raise ExecutionError(
                f"INSERT into {self.name!r}: expected {self.arity} values, "
                f"got {len(values)}"
            )
        row = []
        for i, value in enumerate(values):
            declared = self.types[i]
            if declared is None:
                if value is not None:
                    self.types[i] = infer_type(value)
                row.append(value)
            else:
                row.append(coerce(value, declared))
        stored = tuple(row)
        self.rows.append(stored)
        for table_index in self.indexes.values():
            table_index.add(stored)

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    def insert_columns(self, columns: Sequence[List[Any]]) -> int:
        """Append equally long value lists, one per table column (the
        batch executor's result shape)."""
        return self.insert_many(zip(*columns))

    def column_lists(
        self, positions: Optional[Sequence[int]] = None
    ) -> List[Optional[List[Any]]]:
        """The row tuples transposed into one value list per column:
        all of them, or only those at *positions* with ``None``
        elsewhere (the call a columnar table answers from its
        vectors)."""
        if positions is None:
            positions = range(self.arity)
        out: List[Optional[List[Any]]] = [None] * self.arity
        for position in positions:
            out[position] = list(map(itemgetter(position), self.rows))
        return out

    def row(self, position: int) -> Row:
        """The stored row at *position*, without touching any other."""
        return self.rows[position]

    def tail(self, start: int, name: str) -> "Table":
        """The rows from position *start* on as a relation of their
        own called *name*: same columns, types and storage, the stored
        values shared (no insert, no coercion), no secondary indexes.
        A read-only view for one query; the cost is the tail's length."""
        out = Table(name, self.columns, self.types)
        out.rows = self.rows[start:]
        return out

    def truncate(self) -> None:
        self.rewrites += 1
        self.rows.clear()
        for table_index in self.indexes.values():
            table_index.entries = {}

    def replace_rows(self, rows: List[Row]) -> None:
        """Swap the row list (DELETE/UPDATE path) and rebuild indexes."""
        self.rewrites += 1
        self.rows = rows
        for table_index in self.indexes.values():
            table_index.rebuild(rows)

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

    def index_covering(self, columns: Sequence[str]) -> Optional[TableIndex]:
        """An index whose column set equals *columns* (any order)."""
        wanted = {c.lower() for c in columns}
        for table_index in self.indexes.values():
            if {c.lower() for c in table_index.columns} == wanted:
                return table_index
        return None

    def get(self, row: Row, column: str) -> Any:
        return row[self.column_index(column)]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name!r}, {len(self.rows)} rows)"

    # -- presentation ------------------------------------------------------

    def pretty(self, limit: Optional[int] = None) -> str:
        """Render an ASCII table (used by examples and benches)."""
        rows = self.rows if limit is None else self.rows[:limit]
        cells = [[_fmt(v) for v in row] for row in rows]
        widths = [len(c) for c in self.columns]
        for row in cells:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
        header = "|" + "|".join(
            f" {c.ljust(w)} " for c, w in zip(self.columns, widths)
        ) + "|"
        lines = [sep, header, sep]
        for row in cells:
            lines.append(
                "|" + "|".join(f" {c.ljust(w)} " for c, w in zip(row, widths)) + "|"
            )
        lines.append(sep)
        if limit is not None and len(self.rows) > limit:
            lines.append(f"... ({len(self.rows) - limit} more rows)")
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)
