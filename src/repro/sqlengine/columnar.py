"""Columnar table storage: typed column vectors behind the Table API.

The encoded tables the preprocessor materializes are narrow, long and
string-heavy (``MR_Bset.name`` repeats every distinct item value once
per occurrence) — exactly the shape dictionary encoding and typed
arrays were invented for.  A :class:`ColumnarTable` stores each column
as one adaptive :class:`ColumnVector`:

=========  ==============================================================
kind       physical layout
=========  ==============================================================
empty      no non-NULL value seen yet (``None`` run length only)
int        ``array('q')`` machine words + NULL position list
float      ``array('d')`` + NULL position list
str        dictionary encoding: ``array('i')`` codes into an interned
           value list (``-1`` = NULL)
obj        plain Python list (dates, booleans, mixed/overflowing values)
=========  ==============================================================

A vector *promotes* itself (int -> float -> obj, str -> obj) when a
value arrives that its layout cannot hold exactly — values are never
coerced by storage, so the materialized rows are bit-identical to what
a row :class:`~repro.sqlengine.table.Table` would hold.

``ColumnarTable`` keeps the full ``Table`` contract: ``rows`` is a
lazily materialized (and cached) list of tuples, so the row executor,
DML, dumps and secondary indexes keep working unchanged; the vectorized
executor (:mod:`repro.sqlengine.vector`) reads the column vectors
directly and never pays the materialization.
"""

from __future__ import annotations

import datetime
from array import array
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.sqlengine.errors import CatalogError, ExecutionError
from repro.sqlengine.table import Row, Table, TableIndex
from repro.sqlengine.types import SqlType, coerce, infer_type

try:  # numpy accelerates typed filter kernels; it is optional
    import numpy as _np
except ImportError:  # pragma: no cover - depends on the environment
    _np = None

#: bounds of an ``array('q')`` element
_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

#: storage kind names ``Database.storage_hints`` accepts
STORAGE_KINDS = ("row", "columnar")


class ColumnVector:
    """One adaptive typed column.

    Appends are exact: a value the current layout cannot represent
    promotes the whole vector (decoding what was stored so far), so
    ``to_pylist()`` always returns the appended values unchanged.
    """

    __slots__ = ("kind", "data", "nulls", "values", "index", "length")

    def __init__(self) -> None:
        self.kind = "empty"
        self.data: Any = None
        #: positions holding NULL (int/float kinds only)
        self.nulls: List[int] = []
        #: interned values (str kind only)
        self.values: Optional[List[str]] = None
        self.index: Optional[Dict[str, int]] = None
        self.length = 0

    # -- writes ---------------------------------------------------------

    def append(self, value: Any) -> None:
        kind = self.kind
        if kind == "int":
            self._append_int(value)
        elif kind == "str":
            self._append_str(value)
        elif kind == "obj":
            self.data.append(value)
        elif kind == "float":
            self._append_float(value)
        else:
            self._append_first(value)
        self.length += 1

    def _append_first(self, value: Any) -> None:
        if value is None:
            self.nulls.append(self.length)
            # leading NULL run: stay "empty" until a typed value shows
            # the layout; record a placeholder so positions line up
            if self.data is None:
                self.data = []
            self.data.append(None)
            return
        prefix = self.data or []
        if isinstance(value, bool):
            self.kind = "obj"
            self.data = list(prefix)
            self.nulls = []
            self.data.append(value)
        elif isinstance(value, int):
            if _INT64_MIN <= value <= _INT64_MAX:
                self.kind = "int"
                self.data = array("q", [0] * len(prefix))
                self.data.append(value)
            else:
                self.kind = "obj"
                self.data = list(prefix)
                self.nulls = []
                self.data.append(value)
        elif isinstance(value, float):
            self.kind = "float"
            self.data = array("d", [0.0] * len(prefix))
            self.data.append(value)
        elif isinstance(value, str):
            self.kind = "str"
            codes = array("i", [-1] * len(prefix))
            self.data = codes
            self.values = []
            self.index = {}
            self.nulls = []
            codes.append(self._intern(value))
        else:
            self.kind = "obj"
            self.data = list(prefix)
            self.nulls = []
            self.data.append(value)

    def _append_int(self, value: Any) -> None:
        if value is None:
            self.nulls.append(self.length)
            self.data.append(0)
            return
        if isinstance(value, int) and not isinstance(value, bool):
            if _INT64_MIN <= value <= _INT64_MAX:
                self.data.append(value)
                return
        self._promote_obj()
        self.data.append(value)

    def _append_float(self, value: Any) -> None:
        if value is None:
            self.nulls.append(self.length)
            self.data.append(0.0)
            return
        if isinstance(value, float):
            self.data.append(value)
            return
        self._promote_obj()
        self.data.append(value)

    def _append_str(self, value: Any) -> None:
        if value is None:
            self.data.append(-1)
            return
        if isinstance(value, str):
            self.data.append(self._intern(value))
            return
        self._promote_obj()
        self.data.append(value)

    def extend(self, values: Sequence[Any]) -> None:
        """Bulk append with one layout dispatch per run, not per value.

        Values the settled layout cannot hold exactly fall back to the
        per-value path (which promotes), so the result is identical to
        appending one by one.
        """
        position = 0
        total = len(values)
        while self.kind == "empty" and position < total:
            self.append(values[position])
            position += 1
        kind = self.kind
        data = self.data
        if position < total and kind in ("int", "str"):
            # exact bulk paths: one C-level pass when every remaining
            # value already has the layout's own Python type
            tail = values[position:] if position else values
            kinds = set(map(type, tail))
            if kind == "int" and kinds == {int} and (
                _INT64_MIN <= min(tail) and max(tail) <= _INT64_MAX
            ):
                data.extend(tail)
                self.length += total - position
                return
            if kind == "str" and kinds == {str}:
                index = self.index
                interned = self.values
                for value in dict.fromkeys(tail):  # first-appearance order
                    if value not in index:
                        index[value] = len(interned)
                        interned.append(value)
                data.extend(map(index.__getitem__, tail))
                self.length += total - position
                return
        if kind == "int":
            nulls = self.nulls
            length = self.length
            while position < total:
                value = values[position]
                if type(value) is int:
                    if not _INT64_MIN <= value <= _INT64_MAX:
                        break
                    data.append(value)
                elif value is None:
                    nulls.append(length)
                    data.append(0)
                else:
                    break
                length += 1
                position += 1
            self.length = length
        elif kind == "str":
            index = self.index
            interned = self.values
            length = self.length
            while position < total:
                value = values[position]
                if type(value) is str:
                    code = index.get(value)
                    if code is None:
                        code = len(interned)
                        index[value] = code
                        interned.append(value)
                    data.append(code)
                elif value is None:
                    data.append(-1)
                else:
                    break
                length += 1
                position += 1
            self.length = length
        elif kind == "float":
            nulls = self.nulls
            length = self.length
            while position < total:
                value = values[position]
                if type(value) is float:
                    data.append(value)
                elif value is None:
                    nulls.append(length)
                    data.append(0.0)
                else:
                    break
                length += 1
                position += 1
            self.length = length
        elif kind == "obj":
            tail = values[position:] if position else values
            data.extend(tail)
            self.length += total - position
            position = total
        for i in range(position, total):
            self.append(values[i])

    def _intern(self, value: str) -> int:
        code = self.index.get(value)
        if code is None:
            code = len(self.values)
            self.index[value] = code
            self.values.append(value)
        return code

    def _promote_obj(self) -> None:
        self.data = self.to_pylist()
        self.kind = "obj"
        self.nulls = []
        self.values = None
        self.index = None

    # -- reads ----------------------------------------------------------

    def to_pylist(self) -> List[Any]:
        """The column as a fresh Python list with exact values."""
        kind = self.kind
        if kind in ("int", "float"):
            out: List[Any] = list(self.data)
            for position in self.nulls:
                out[position] = None
            return out
        if kind == "str":
            values = self.values
            return [None if code < 0 else values[code] for code in self.data]
        if kind == "obj":
            return list(self.data)
        return [None] * self.length

    def get(self, position: int) -> Any:
        kind = self.kind
        if kind == "str":
            code = self.data[position]
            return None if code < 0 else self.values[code]
        if kind in ("int", "float"):
            nulls = self.nulls  # ascending: positions are appended in order
            if nulls:
                at = bisect_left(nulls, position)
                if at < len(nulls) and nulls[at] == position:
                    return None
            return self.data[position]
        if kind == "obj":
            return self.data[position]
        return None

    def tail(self, start: int) -> "ColumnVector":
        """The values from position *start* on as a vector of their
        own: the layout's slice, a str vector's dictionary shared.  A
        read-only view (an append could intern into the shared
        dictionary); the cost is the tail's length."""
        out = ColumnVector()
        out.kind = self.kind
        out.length = max(self.length - start, 0)
        if self.data is not None:
            out.data = self.data[start:]
        nulls = self.nulls
        out.nulls = [p - start for p in nulls[bisect_left(nulls, start):]]
        out.values = self.values
        out.index = self.index
        return out

    @property
    def has_nulls(self) -> bool:
        if self.kind == "str":
            return any(code < 0 for code in self.data)
        if self.kind == "obj":
            return any(v is None for v in self.data)
        if self.kind == "empty":
            return self.length > 0
        return bool(self.nulls)

    def numpy(self):
        """The column as a numpy array when its layout is numeric and
        NULL-free (None otherwise) — the fast filter kernel input."""
        if _np is None or self.nulls:
            return None
        if self.kind == "int":
            return _np.frombuffer(self.data, dtype=_np.int64)
        if self.kind == "float":
            return _np.frombuffer(self.data, dtype=_np.float64)
        return None

    def nbytes(self) -> int:
        """Approximate heap footprint of the physical layout."""
        if self.kind in ("int", "float", "str"):
            size = self.data.itemsize * len(self.data)
            if self.kind == "str":
                size += sum(len(v) + 49 for v in self.values)
            return size + 8 * len(self.nulls)
        if self.kind == "obj":
            return 56 * len(self.data)
        return 8 * self.length

    def __len__(self) -> int:
        return self.length


#: the Python type ``coerce`` hands back unchanged, per declared type
_CANONICAL = {
    SqlType.INTEGER: int,
    SqlType.REAL: float,
    SqlType.VARCHAR: str,
    SqlType.DATE: datetime.date,
    SqlType.BOOLEAN: bool,
}


def _coerce_column(values: List[Any], declared: SqlType) -> List[Any]:
    """Coerce a whole column.  Values that already have the declared
    type's canonical Python shape are skipped (``coerce`` would return
    them unchanged); when that is all of them, *values* itself comes
    back."""
    canonical = _CANONICAL[declared]
    if set(map(type, values)) <= {canonical, type(None)}:
        return values
    return [
        v if type(v) is canonical or v is None else coerce(v, declared)
        for v in values
    ]


class ColumnarTable(Table):
    """A :class:`Table` whose physical layout is one vector per column.

    The row-oriented API (``rows``, iteration, DML through
    ``replace_rows``) stays available through a cached materialization,
    so every existing consumer works unchanged; mutations go to the
    vectors and invalidate the cache.
    """

    storage = "columnar"

    def __init__(
        self,
        name: str,
        columns: Sequence[str],
        types: Optional[Sequence[Optional[SqlType]]] = None,
    ):
        # mirrors Table.__init__ minus the row list (rows is a property
        # here, so the base class assignment would not bind)
        if len(set(c.lower() for c in columns)) != len(columns):
            raise CatalogError(f"duplicate column name in table {name!r}")
        self.name = name
        self.columns = tuple(columns)
        self.types = list(types) if types is not None else [None] * len(columns)
        if len(self.types) != len(self.columns):
            raise CatalogError(
                f"table {name!r}: {len(columns)} columns but "
                f"{len(self.types)} types"
            )
        self._index = {c.lower(): i for i, c in enumerate(columns)}
        self.indexes: Dict[str, TableIndex] = {}
        self._vectors: List[ColumnVector] = [
            ColumnVector() for _ in self.columns
        ]
        self._length = 0
        self._rows_cache: Optional[List[Row]] = None
        #: bumped on every mutation; vector scans key batch caches on it
        self.data_version = 0
        self.rewrites = 0

    # -- columnar access -------------------------------------------------

    def _sync_external(self) -> None:
        """Absorb out-of-band mutation of the materialized row list.

        ``Table.rows`` is a public mutable list and a few consumers
        (dump restore, tests) append to it directly.  Here ``rows``
        hands out a cached materialization, so such appends bypass the
        vectors; a length drift between the cache and the encoded
        columns re-encodes from the cache (the mutated view wins, as
        it would on the row layout)."""
        cache = self._rows_cache
        if cache is not None and len(cache) != self._length:
            self._encode_rows(list(cache))
            for table_index in self.indexes.values():
                table_index.rebuild(self._rows_cache)

    def column_vector(self, position: int) -> ColumnVector:
        self._sync_external()
        return self._vectors[position]

    def column_lists(
        self, positions: Optional[Sequence[int]] = None
    ) -> List[Optional[List[Any]]]:
        """Columns materialized as Python lists (no row tuples): all of
        them, or only those at *positions* with ``None`` elsewhere."""
        self._sync_external()
        if positions is None:
            return [vector.to_pylist() for vector in self._vectors]
        out: List[Optional[List[Any]]] = [None] * len(self._vectors)
        for position in positions:
            out[position] = self._vectors[position].to_pylist()
        return out

    def nbytes(self) -> int:
        return sum(vector.nbytes() for vector in self._vectors)

    # -- Table contract ---------------------------------------------------

    @property
    def rows(self) -> List[Row]:
        cache = self._rows_cache
        if cache is None:
            if self._length == 0:
                cache = []
            else:
                cache = list(zip(*(v.to_pylist() for v in self._vectors)))
            self._rows_cache = cache
        return cache

    @rows.setter
    def rows(self, new_rows: List[Row]) -> None:
        # assignment re-encodes (the DELETE/UPDATE replace path)
        self.rewrites += 1
        self._encode_rows(new_rows)

    def row(self, position: int) -> Row:
        self._sync_external()
        return tuple(vector.get(position) for vector in self._vectors)

    def tail(self, start: int, name: str) -> "ColumnarTable":
        self._sync_external()
        out = ColumnarTable(name, self.columns, self.types)
        out._vectors = [vector.tail(start) for vector in self._vectors]
        out._length = max(self._length - start, 0)
        return out

    def insert(self, values: Sequence[Any]) -> None:
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
        self._rows_cache = None
        self.data_version += 1
        if stored is not None:
            row = tuple(stored)
            for table_index in self.indexes.values():
                table_index.add(row)

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        """Bulk append: transposes and hands over to
        :meth:`insert_columns`."""
        rows = [tuple(row) for row in rows]
        arity = len(self.columns)
        for row in rows:
            if len(row) != arity:
                raise ExecutionError(
                    f"INSERT into {self.name!r}: expected {arity} "
                    f"values, got {len(row)}"
                )
        return self.insert_columns([list(column) for column in zip(*rows)])

    def insert_columns(self, columns: Sequence[List[Any]]) -> int:
        """Column-wise bulk append (one type dispatch per column) of
        equally long value lists, one per table column; the lists are
        only read.

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
        types = list(self.types)
        coerced: List[List[Any]] = []
        for i, col in enumerate(columns):
            declared = types[i]
            if declared is None:
                for k, value in enumerate(col):
                    if value is not None:
                        declared = infer_type(value)
                        rest = col[k + 1 :]
                        fitted = _coerce_column(rest, declared)
                        if fitted is not rest:
                            col = col[: k + 1] + fitted
                        break
            else:
                col = _coerce_column(col, declared)
            coerced.append(col)
            types[i] = declared
        self.types[:] = types
        for vector, col in zip(self._vectors, coerced):
            vector.extend(col)
        self._length += count
        self._rows_cache = None
        self.data_version += 1
        if self.indexes:
            for row in zip(*coerced):
                for table_index in self.indexes.values():
                    table_index.add(row)
        return count

    def truncate(self) -> None:
        self.rewrites += 1
        self._vectors = [ColumnVector() for _ in self.columns]
        self._length = 0
        self._rows_cache = None
        self.data_version += 1
        for table_index in self.indexes.values():
            table_index.entries = {}

    def replace_rows(self, rows: List[Row]) -> None:
        self.rewrites += 1
        self._encode_rows(rows)
        for table_index in self.indexes.values():
            table_index.rebuild(self._rows_cache)

    def _encode_rows(self, rows: List[Row]) -> None:
        self._vectors = [ColumnVector() for _ in self.columns]
        for row in rows:
            for vector, value in zip(self._vectors, row):
                vector.append(value)
        self._length = len(rows)
        self._rows_cache = [
            row if isinstance(row, tuple) else tuple(row) for row in rows
        ]
        self.data_version += 1

    def __len__(self) -> int:
        self._sync_external()
        return self._length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnarTable({self.name!r}, {self._length} rows)"


def make_table(
    kind: str,
    name: str,
    columns: Sequence[str],
    types: Optional[Sequence[Optional[SqlType]]] = None,
) -> Table:
    """Build a table of the requested storage *kind*."""
    if kind not in STORAGE_KINDS:
        raise ValueError(
            f"unknown storage {kind!r}; choose from {STORAGE_KINDS}"
        )
    if kind == "columnar":
        return ColumnarTable(name, columns, types)
    return Table(name, columns, types)

