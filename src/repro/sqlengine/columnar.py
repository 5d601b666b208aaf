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
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence

#: bounds of an ``array('q')`` element
_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


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
            return _decode(self.values, self.data)
        if kind == "obj":
            return list(self.data)
        return [None] * self.length

    def sample(self, stop: int, stride: int) -> List[Any]:
        """The values at positions ``0, stride, 2 * stride, ...`` below
        *stop*, exact as :meth:`to_pylist` gives them; the cost is the
        sample's length (plus the NULL positions below *stop*)."""
        kind = self.kind
        if kind == "str":
            return _decode(self.values, self.data[0:stop:stride])
        if kind == "obj":
            return self.data[0:stop:stride]
        if kind == "empty":
            return [None] * len(range(0, min(stop, self.length), stride))
        out: List[Any] = list(self.data[0:stop:stride])
        nulls = self.nulls
        for position in nulls[: bisect_left(nulls, stop)]:
            if position % stride == 0:
                out[position // stride] = None
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
            return any(code < 0 for code in self.data)
        if self.kind == "obj":
            return any(v is None for v in self.data)
        if self.kind == "empty":
            return self.length > 0
        return bool(self.nulls)

    def __len__(self) -> int:
        return self.length


def _decode(values: List[str], codes: array) -> List[Any]:
    """Dictionary *codes* to their interned *values*, ``-1`` to None.
    The lookup list's last slot is None, so code ``-1`` indexes it and
    the loop has no branch (≈ 1.5x faster than testing each code)."""
    lookup = values + [None]
    return [lookup[code] for code in codes]
