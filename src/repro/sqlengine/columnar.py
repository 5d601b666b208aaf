"""Column vectors: the physical layout of every table.

A :class:`~repro.sqlengine.table.Table` stores each column as one
adaptive :class:`ColumnVector`.  The encoded tables the preprocessor
materializes are narrow, long and string-heavy (``MR_Bset.name``
repeats every distinct item value once per occurrence), exactly the
shape dictionary encoding and typed arrays were invented for; source
tables get the same layout, so one table type serves the paper's whole
SQL side:

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
value arrives that its layout cannot hold exactly: values are never
coerced by storage (the table coerces to declared types before it
appends), so ``to_pylist()`` returns exactly the values appended.

A scan reads a vector through :meth:`ColumnVector.scan`, which hands
out the layout rather than decoded values: a NULL-free int / float
column as a copy of its ``array`` (the type is the NULL-free proof), a
str column as :class:`Coded`, anything else as a list.  ``extend``
takes all three back, an array or codes without reading a value;
``mark`` / ``rollback`` undo the appends of a bulk load that fails
part-way.  The functions at the end of the module are how the executor
moves and compares such columns.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: the one Python type of the non-NULL values of each typed layout
_LAYOUT_TYPE = {"int": int, "float": float, "str": str}

#: bounds of an ``array('q')`` element
_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


class Coded:
    """A str column as dictionary codes (``-1`` = NULL) into
    ``lookup``, a snapshot of the vector's values with None appended
    (code ``-1`` decodes without a branch, ≈ 1.5x faster than testing
    each code), beside ``index``, the vector's live value -> code map
    (append-only, so it maps every value of the snapshot).  Equal codes
    are equal values; indexing and iteration decode, so a reader that
    wants values may treat it as a read-only sequence."""

    __slots__ = ("codes", "lookup", "index")

    def __init__(self, codes: Sequence[int], lookup: List[Any],
                 index: Dict[str, int]):
        self.codes = codes
        self.lookup = lookup
        self.index = index

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, key: Any) -> Any:
        if isinstance(key, slice):
            return Coded(self.codes[key], self.lookup, self.index)
        return self.lookup[self.codes[key]]

    def __iter__(self) -> Iterator[Any]:
        return map(self.lookup.__getitem__, self.codes)

    def decode(self) -> List[Any]:
        lookup = self.lookup
        return [lookup[code] for code in self.codes]


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
        if isinstance(value, int) and not isinstance(value, bool) and (
            _INT64_MIN <= value <= _INT64_MAX
        ):
            self._become_array("q")
        elif isinstance(value, float):
            self._become_array("d")
        elif isinstance(value, str):
            self._become_str()
            value = self._intern(value)
        else:
            self.kind = "obj"
            self.data = list(self.data or [])
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

    def extend(self, values: Sequence[Any],
               kinds: Optional[set] = None) -> None:
        """Bulk append with one layout dispatch per run, not per value.

        An ``array`` of this layout is copied in, a :class:`Coded`
        column remapped into this dictionary (one intern per distinct
        value).  A list costs one type pass, none when the caller
        passes the set of its value types as *kinds*.  Values the
        settled layout cannot hold exactly fall back to the per-value
        path (which promotes): the result is identical to appending
        one by one.
        """
        if type(values) is array:
            return self._extend_array(values)
        if type(values) is Coded:
            return self._extend_coded(values)
        position = 0
        total = len(values)
        while self.kind == "empty" and position < total:
            self.append(values[position])
            position += 1
        kind = self.kind
        data = self.data
        pytype = _LAYOUT_TYPE.get(kind)
        if position < total and pytype is not None:
            # exact bulk paths: one C-level pass when every remaining
            # value already has the layout's own Python type
            tail = values[position:] if position else values
            if kinds is None or position:
                kinds = set(map(type, tail))
            if kinds == {pytype} and kind == "str":
                for value in dict.fromkeys(tail):  # first-appearance order
                    self._intern(value)
                data.extend(map(self.index.__getitem__, tail))
                self.length += total - position
                return
            if kinds == {pytype}:
                try:  # OverflowError is the int64 check; it appends none
                    data.fromlist(tail if type(tail) is list else list(tail))
                except OverflowError:
                    pass
                else:
                    self.length += total - position
                    return
        if pytype is not None:
            # a run of the layout's own values and NULLs
            nulls = self.nulls
            length = self.length
            null = -1 if kind == "str" else pytype()
            while position < total:
                value = values[position]
                if type(value) is pytype:
                    if kind == "str":
                        value = self._intern(value)
                    try:
                        data.append(value)
                    except OverflowError:
                        break
                elif value is None:
                    if kind != "str":
                        nulls.append(length)
                    data.append(null)
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

    def _extend_array(self, values: array) -> None:
        if self.kind == "empty" and values:
            self._become_array(values.typecode)
        if self.kind != ("int" if values.typecode == "q" else "float"):
            return self.extend(values.tolist())
        self.data.extend(values)
        self.length += len(values)

    def _extend_coded(self, column: Coded) -> None:
        codes = column.codes
        if self.kind == "str" and column.index is self.index:
            self.data.extend(codes)  # this vector's own codes
            self.length += len(codes)
            return
        used = [code for code in dict.fromkeys(codes) if code >= 0]
        if self.kind == "empty" and used:
            self._become_str()
        if self.kind != "str":
            return self.extend(column.decode())
        lookup = column.lookup
        remap = list(range(len(lookup) - 1)) + [-1]
        for code in used:  # first-appearance order, as one by one
            remap[code] = self._intern(lookup[code])
        if any(remap[code] != code for code in used):
            codes = [remap[code] for code in codes]
        self.data.extend(codes)
        self.length += len(codes)

    def _become_array(self, typecode: str) -> None:
        """Take the int / float layout: zeros under a leading NULL run,
        whose positions ``nulls`` already holds."""
        self.kind = "int" if typecode == "q" else "float"
        self.data = array(typecode, bytes(8 * self.length))

    def _become_str(self) -> None:
        """Take the str layout: a leading NULL run becomes ``-1``s."""
        self.kind = "str"
        self.data = array("i", [-1] * self.length)
        self.values = []
        self.index = {}
        self.nulls = []

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

    def mark(self) -> Tuple[Any, ...]:
        """The vector's state for :meth:`rollback`.  An append only
        grows ``data``, ``nulls`` and the dictionary, or replaces them
        (a layout change) and leaves the old ones as they were, so the
        fields and the containers' lengths are the whole state."""
        values = self.values
        return (self.kind, self.data, self.nulls, values, self.index,
                self.length, len(self.nulls), len(values or ()))

    def rollback(self, mark: Tuple[Any, ...]) -> None:
        """Drop every value appended since :meth:`mark` gave *mark*:
        the layout, the dictionary and its codes are again the marked
        ones."""
        (self.kind, self.data, self.nulls, self.values, self.index,
         self.length, nulls, values) = mark
        if self.data is not None:
            del self.data[self.length:]
        del self.nulls[nulls:]
        if self.values is not None:
            for value in self.values[values:]:
                del self.index[value]
            del self.values[values:]

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
            return self._coded(self.data).decode()
        if kind == "obj":
            return list(self.data)
        return [None] * self.length

    def _coded(self, codes: Sequence[int]) -> Coded:
        return Coded(codes, self.values + [None], self.index)

    def scan(self) -> Any:
        """The column as a scan hands it out, a copy that no later write
        reaches: an ``array`` when the column is int or float and
        NULL-free, :class:`Coded` when it is str, else a list."""
        kind = self.kind
        if kind == "str":
            return self._coded(self.data[:])
        if kind in ("int", "float") and not self.has_nulls:
            return self.data[:]
        return self.to_pylist()

    def sample(self, stop: int, stride: int, start: int = 0) -> List[Any]:
        """The values at positions ``start, start + stride, ...`` below
        *stop*, exact as :meth:`to_pylist` gives them; the cost is the
        sample's length (plus the NULL positions in ``[start, stop)``)."""
        kind = self.kind
        if kind == "str":
            return self._coded(self.data[start:stop:stride]).decode()
        if kind == "obj":
            return self.data[start:stop:stride]
        if kind == "empty":
            return [None] * len(range(start, min(stop, self.length), stride))
        out: List[Any] = list(self.data[start:stop:stride])
        nulls = self.nulls
        for position in nulls[bisect_left(nulls, start):bisect_left(nulls, stop)]:
            if (position - start) % stride == 0:
                out[(position - start) // stride] = None
        return out

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
            return -1 in self.data
        if self.kind == "obj":
            return any(v is None for v in self.data)
        if self.kind == "empty":
            return self.length > 0
        return bool(self.nulls)

    def __len__(self) -> int:
        return self.length


# -- scan columns: how the executor moves and compares them -------------


def decoded(col: Any) -> Any:
    """*col* with its codes decoded: what an expression reads."""
    return col.decode() if type(col) is Coded else col


def equality_keys(col: Any) -> Any:
    """What *col*'s equality compares: a coded column's codes."""
    return col.codes if type(col) is Coded else col


def like(col: Any, keys: Iterable[Any]) -> Any:
    """A column in *col*'s representation holding *keys* (values, or
    codes of *col*'s dictionary)."""
    if type(col) is Coded:
        return Coded(list(keys), col.lookup, col.index)
    if type(col) is array:
        return array(col.typecode, keys)
    return list(keys)


def take(col: Any, idxs: Iterable[int]) -> Any:
    """The rows at *idxs*, in *col*'s representation."""
    if type(col) is Coded:
        codes = col.codes
        return Coded([codes[i] for i in idxs], col.lookup, col.index)
    return like(col, [col[i] for i in idxs])


def take_padded(col: Any, idxs: Iterable[Optional[int]]) -> Any:
    """The rows at *idxs*, an index of None a NULL (outer-join padding):
    a coded column pads with code ``-1``, any other becomes a list."""
    if type(col) is Coded:
        codes = col.codes
        return Coded([-1 if i is None else codes[i] for i in idxs],
                     col.lookup, col.index)
    return [None if i is None else col[i] for i in idxs]


def null_free(col: Any) -> bool:
    """Holds the value list *col* no NULL?  An array answers by type."""
    return type(col) is array or None not in col


def comparable_keys(
    lkeys: List[Any], rkeys: List[Any]
) -> Tuple[List[Any], List[Any]]:
    """Equi-join key columns that compare as they are.  Where both
    sides are coded the probe (left) side keeps its codes and the build
    side's distinct values are translated into them once: a value the
    probe side lacks gets a code of its own below ``-1`` and a NULL
    becomes None, so neither matches and distinct build keys stay
    distinct.  Every other key is decoded."""
    lout, rout = [], []
    for lk, rk in zip(lkeys, rkeys):
        if type(lk) is Coded and type(rk) is Coded:
            index = lk.index
            lookup = [
                index.get(value, -2 - code)
                for code, value in enumerate(rk.lookup[:-1])
            ] + [None]
            lout.append(lk.codes)
            rout.append([lookup[code] for code in rk.codes])
        else:
            lout.append(decoded(lk))
            rout.append(decoded(rk))
    return lout, rout
