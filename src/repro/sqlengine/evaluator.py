"""Row environments and the value semantics of scalar expressions.

What the closure compiler (row executor) and the batch kernels share:
frames and environments, three-valued logic, comparison, arithmetic,
LIKE, the scalar functions and the aggregate reductions.  Comparisons
against NULL yield UNKNOWN (represented as ``None``), AND/OR/NOT
combine truth values per the standard tables, and WHERE/HAVING keep
only rows whose predicate is exactly TRUE.
"""

from __future__ import annotations

import datetime
import decimal
import functools
import math
import re
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.errors import CatalogError, ExecutionError, SqlTypeError
from repro.sqlengine.parser import AGGREGATE_NAMES
from repro.sqlengine.types import is_comparable

# ---------------------------------------------------------------------------
# Frames and environments
# ---------------------------------------------------------------------------


class Frame:
    """Compile-time schema of a row environment.

    A frame is an ordered list of *sources*; each source has a binding
    name (table alias, lowered; possibly ``None``) and a column list.
    At run time an :class:`Env` pairs a frame with one row tuple per
    source.
    """

    __slots__ = ("sources", "_by_qualified", "_by_name")

    def __init__(self, sources: Sequence[Tuple[Optional[str], Sequence[str]]]):
        self.sources: List[Tuple[Optional[str], Tuple[str, ...]]] = [
            (name.lower() if name else None, tuple(columns))
            for name, columns in sources
        ]
        self._by_qualified: Dict[Tuple[str, str], Tuple[int, int]] = {}
        self._by_name: Dict[str, List[Tuple[int, int]]] = {}
        for src_idx, (name, columns) in enumerate(self.sources):
            for col_idx, column in enumerate(columns):
                col_key = column.lower()
                if name is not None:
                    self._by_qualified.setdefault((name, col_key), (src_idx, col_idx))
                self._by_name.setdefault(col_key, []).append((src_idx, col_idx))

    @classmethod
    def single(cls, name: Optional[str], columns: Sequence[str]) -> "Frame":
        return cls([(name, columns)])

    def combine(self, other: "Frame") -> "Frame":
        return Frame(self.sources + other.sources)

    def lookup(self, qualifier: Optional[str], name: str) -> Optional[Tuple[int, int]]:
        """Resolve a column reference to (source index, column index).

        Returns ``None`` when the name is not visible in this frame
        (the caller then consults the parent environment).  Ambiguous
        unqualified names raise.
        """
        if qualifier is not None:
            return self._by_qualified.get((qualifier.lower(), name.lower()))
        hits = self._by_name.get(name.lower())
        if not hits:
            return None
        if len(hits) > 1:
            raise CatalogError(f"ambiguous column reference: {name!r}")
        return hits[0]

    def star_columns(self, qualifier: Optional[str]) -> List[Tuple[int, int, str]]:
        """Expand ``*`` / ``alias.*`` to (source, column, display name)."""
        out: List[Tuple[int, int, str]] = []
        for src_idx, (name, columns) in enumerate(self.sources):
            if qualifier is not None and name != qualifier.lower():
                continue
            for col_idx, column in enumerate(columns):
                out.append((src_idx, col_idx, column))
        if qualifier is not None and not out:
            raise CatalogError(f"unknown table alias in {qualifier}.*")
        return out

    @property
    def flat_columns(self) -> List[str]:
        return [c for _, columns in self.sources for c in columns]


class Env:
    """Run-time row environment: a frame plus one row per source, with
    an optional parent (for correlated subqueries) and optional group
    membership (for aggregate evaluation)."""

    __slots__ = ("frame", "rows", "parent", "group")

    def __init__(
        self,
        frame: Frame,
        rows: Sequence[Tuple[Any, ...]],
        parent: Optional["Env"] = None,
        group: Optional[List["Env"]] = None,
    ):
        self.frame = frame
        self.rows = rows
        self.parent = parent
        self.group = group

    def resolve(self, qualifier: Optional[str], name: str) -> Any:
        env: Optional[Env] = self
        while env is not None:
            hit = env.frame.lookup(qualifier, name)
            if hit is not None:
                src_idx, col_idx = hit
                return env.rows[src_idx][col_idx]
            env = env.parent
        target = f"{qualifier}.{name}" if qualifier else name
        raise CatalogError(f"unknown column reference: {target!r}")

    def child(self, frame: Frame, rows: Sequence[Tuple[Any, ...]]) -> "Env":
        return Env(frame, rows, parent=self)

    def with_group(self, group: List["Env"]) -> "Env":
        return Env(self.frame, self.rows, parent=self.parent, group=group)


# ---------------------------------------------------------------------------
# Three-valued logic helpers
# ---------------------------------------------------------------------------


def tvl_and(left: Optional[bool], right: Optional[bool]) -> Optional[bool]:
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def tvl_or(left: Optional[bool], right: Optional[bool]) -> Optional[bool]:
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def tvl_not(value: Optional[bool]) -> Optional[bool]:
    if value is None:
        return None
    return not value


def compare(op: str, left: Any, right: Any) -> Optional[bool]:
    """SQL comparison with NULL propagation and type checking."""
    if left is None or right is None:
        return None
    if isinstance(left, bool) or isinstance(right, bool):
        # booleans compare as integers (SQL engines vary; we pick int)
        left = int(left) if isinstance(left, bool) else left
        right = int(right) if isinstance(right, bool) else right
    if not is_comparable(left, right):
        raise SqlTypeError(f"cannot compare {left!r} with {right!r}")
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise ExecutionError(f"unknown comparison operator {op!r}")


@functools.lru_cache(maxsize=512)
def _like_to_regex(
    pattern: str, escape: Optional[str] = None
) -> "re.Pattern[str]":
    """Translate a LIKE pattern (with optional ESCAPE character) to a
    compiled regex.  Cached: the translation programs replay the same
    patterns for every MINE RULE execution, and a non-constant
    pattern is translated once per row."""
    out = []
    i, size = 0, len(pattern)
    while i < size:
        ch = pattern[i]
        if escape is not None and ch == escape:
            if i + 1 >= size:
                raise ExecutionError(
                    "LIKE pattern ends with its escape character"
                )
            follower = pattern[i + 1]
            if follower not in ("%", "_", escape):
                raise ExecutionError(
                    f"invalid LIKE escape sequence {ch + follower!r}: "
                    f"the escape character must precede %, _ or itself"
                )
            out.append(re.escape(follower))
            i += 2
            continue
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
        i += 1
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


def _escape_char(value: Any) -> str:
    """Validate a LIKE ESCAPE operand: exactly one character."""
    if not isinstance(value, str) or len(value) != 1:
        raise ExecutionError(
            f"LIKE ESCAPE must be a single character, got {value!r}"
        )
    return value


# ---------------------------------------------------------------------------
# Scalar functions
# ---------------------------------------------------------------------------


def _fn_substr(args: List[Any]) -> Any:
    """Oracle-flavour SUBSTR: positions are 1-based, 0 counts as 1, a
    negative start counts back from the end of the string, and a start
    beyond either end — or a length below 1 — yields NULL."""
    if any(a is None for a in args):
        return None
    string = args[0]
    if not isinstance(string, str):
        raise SqlTypeError(f"SUBSTR requires a string, got {string!r}")
    start = int(args[1])
    length = int(args[2]) if len(args) > 2 else None
    size = len(string)
    if start > 0:
        begin = start - 1
    elif start == 0:
        begin = 0
    else:
        begin = size + start
        if begin < 0:
            return None
    if begin >= size:
        return None
    if length is None:
        return string[begin:]
    if length < 1:
        return None
    return string[begin : begin + length]


def _sql_round(x: Any, n: Any = 0) -> Any:
    """ROUND with SQL semantics: decimal, half away from zero (Python's
    ``round`` rounds half to even and works on binary floats, so
    ``round(2.5) == 2`` and ``round(2.675, 2) == 2.67``)."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise SqlTypeError(f"ROUND requires a numeric argument, got {x!r}")
    if isinstance(x, float) and not math.isfinite(x):
        return x
    digits = int(n)
    quantum = decimal.Decimal(1).scaleb(-digits)
    value = decimal.Decimal(str(x)).quantize(
        quantum, rounding=decimal.ROUND_HALF_UP
    )
    return int(value) if isinstance(x, int) else float(value)


def _sql_mod(a: Any, b: Any) -> Any:
    """MOD with SQL semantics: the result takes the dividend's sign
    (``MOD(-7, 3) = -1``), unlike Python's floored ``%`` which takes
    the divisor's; Oracle additionally defines ``MOD(n, 0) = n``."""
    for operand in (a, b):
        if isinstance(operand, bool) or not isinstance(operand, (int, float)):
            raise SqlTypeError(
                f"MOD requires numeric arguments, got {operand!r}"
            )
    if b == 0:
        return a
    return _dividend_sign_mod(a, b)


def _dividend_sign_mod(a: Any, b: Any) -> Any:
    if isinstance(a, int) and isinstance(b, int):
        remainder = abs(a) % abs(b)
        return -remainder if a < 0 else remainder
    return math.fmod(a, b)


def _null_through(fn: Callable[..., Any]) -> Callable[[List[Any]], Any]:
    def wrapped(args: List[Any]) -> Any:
        if any(a is None for a in args):
            return None
        return fn(*args)

    return wrapped


def _date_part(getter: Callable[[datetime.date], int]) -> Callable:
    def fn(args: List[Any]) -> Any:
        if args[0] is None:
            return None
        value = args[0]
        if not isinstance(value, datetime.date):
            raise SqlTypeError(f"expected a DATE, got {value!r}")
        return getter(value)

    return fn


SCALAR_FUNCTIONS: Dict[str, Callable[[List[Any]], Any]] = {
    "YEAR": _date_part(lambda d: d.year),
    "MONTH": _date_part(lambda d: d.month),
    "DAY": _date_part(lambda d: d.day),
    "WEEKDAY": _date_part(lambda d: d.weekday()),
    "UPPER": _null_through(lambda s: s.upper()),
    "LOWER": _null_through(lambda s: s.lower()),
    "LENGTH": _null_through(len),
    "TRIM": _null_through(lambda s: s.strip()),
    "ABS": _null_through(abs),
    "ROUND": _null_through(_sql_round),
    "FLOOR": _null_through(lambda x: int(math.floor(x))),
    "CEIL": _null_through(lambda x: int(math.ceil(x))),
    "CEILING": _null_through(lambda x: int(math.ceil(x))),
    "MOD": _null_through(_sql_mod),
    "POWER": _null_through(lambda a, b: a ** b),
    "SQRT": _null_through(math.sqrt),
    "SUBSTR": _fn_substr,
    "SUBSTRING": _fn_substr,
    "SIGN": _null_through(lambda x: (x > 0) - (x < 0)),
}


# ---------------------------------------------------------------------------
# Helpers shared by the closure compiler and the batch kernels
# ---------------------------------------------------------------------------


def _as_truth(value: Any) -> Optional[bool]:
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    raise SqlTypeError(f"expected a boolean condition, got {value!r}")


def contains_aggregate(expr: ast.Expression) -> bool:
    for node in ast.walk_expression(expr):
        if isinstance(node, ast.FunctionCall) and (
            node.name in AGGREGATE_NAMES or node.star
        ):
            return True
    return False


def _to_str(value: Any) -> str:
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, datetime.date):
        return value.isoformat()
    return str(value)


def _arith(op: str, left: Any, right: Any) -> Any:
    for operand in (left, right):
        if not isinstance(operand, (int, float)) or isinstance(operand, bool):
            if isinstance(operand, datetime.date) and op in ("-",):
                continue
            raise SqlTypeError(f"arithmetic on non-numeric value {operand!r}")
    if op == "+":
        return left + right
    if op == "-":
        if isinstance(left, datetime.date) and isinstance(right, datetime.date):
            return (left - right).days
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise ExecutionError("division by zero")
        # Oracle semantics: '/' is exact division (the paper's support
        # ratios COUNT(*) / :totg rely on this).
        return left / right
    if op == "%":
        if right == 0:
            raise ExecutionError("division by zero")
        # SQL remainder takes the dividend's sign, matching MOD().
        return _dividend_sign_mod(left, right)
    raise ExecutionError(f"unknown operator {op!r}")


def _distinct_values(values: List[Any]) -> List[Any]:
    """Order-preserving dedup for DISTINCT aggregates: hash-based for
    hashable values, linear scan only for the unhashable remainder.
    Both paths deduplicate by ``==``, so the semantics match the old
    full-list scan without its quadratic cost."""
    seen: set = set()
    unhashable: List[Any] = []
    unique: List[Any] = []
    for v in values:
        try:
            if v in seen:
                continue
            seen.add(v)
        except TypeError:
            if any(v == u for u in unhashable):
                continue
            unhashable.append(v)
        unique.append(v)
    return unique


def reduce_values(name: str, values: List[Any], distinct: bool) -> Any:
    """One aggregate over a group's argument values: NULLs do not
    count, DISTINCT deduplicates first — the one place aggregate
    arithmetic lives (row executor, batch executor, spill path)."""
    values = [v for v in values if v is not None]
    if distinct:
        values = _distinct_values(values)
    if name == "COUNT":
        return len(values)
    if not values:
        return None
    if name == "SUM":
        return sum(values)
    if name == "AVG":
        return sum(values) / len(values)
    if name == "MIN":
        return min(values)
    return max(values)
