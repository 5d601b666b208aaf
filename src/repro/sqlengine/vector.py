"""Batch-at-a-time (vectorized) SELECT execution over column vectors.

The row executor interprets one :class:`~repro.sqlengine.evaluator.Env`
at a time; every row pays Python call overhead per operator and per
expression node.  This module mirrors a planned SELECT onto *vector*
nodes that process whole columns: a filter evaluates its predicate over
a column batch and gathers the surviving positions, a hash join builds
and probes on key *lists*, an aggregate reduces argument columns per
group.  The unit of work is a :class:`_Batch` — a list of parallel
Python lists, one per flat column of the operator's frame.

Exactness contract
------------------

The vector path must be **bit-identical** to the row path on every
statement it accepts.  That is achieved three ways:

* *Typed kernels only where types are proven.*  Columnar tables coerce
  every stored value to the column's declared SQL type
  (:func:`repro.sqlengine.types.coerce`), so a declared ``INTEGER``
  column holds only ``int``/``None`` — comparisons can use raw Python
  operators.  Row tables and untyped columns get the ``'any'`` dtype
  whose kernels call the row path's own helpers
  (:func:`~repro.sqlengine.evaluator.compare`, ``_arith``) element-wise;
  a view or derived table (:class:`VSubplan`) hands its parent the
  dtypes its own select list proved.
* *Lazy masking for short-circuit forms.*  ``AND``/``OR``/``COALESCE``
  evaluate their right/later operands only on the rows the earlier
  operands did not decide, so side conditions (errors in untaken
  operands) match the row path's per-row short circuit.
* *Whole-plan fallback.*  Any construct whose vector semantics are not
  provably identical (subqueries, CASE, dynamic LIKE patterns,
  correlated references, nested-loop joins, multiple NEXTVAL items …)
  raises :class:`Unsupported` at build time and the engine runs the
  row path for the whole statement, keeping the reason on the plan
  (EXPLAIN shows it, ``repro_fallback_total`` counts it).  Any other
  exception out of the builder is a lowering bug and propagates.

Joins, grouping and DISTINCT run as a few builtin passes over column
lists (``dict``/``zip``/``map``/``Counter``), the kernel picked from
what the input shows: a hash join whose build keys are NULL-free and
distinct probes one dict lookup per row (``probe=unique`` in EXPLAIN
ANALYZE), any other emits bucket lists (``probe=buckets``); grouping
with no aggregate but ``COUNT(*)`` keeps no member lists.  Every kernel
emits the row executor's order — first appearance, left-major — which
is load-bearing: ``NEXTVAL`` numbers groups and items (Gid, Bid) in it.

The only tolerated divergence is *which* row's error surfaces first
when a statement raises: kernels evaluate an operand for every row
before moving on, so two independently erroneous expressions may
report in a different order than tuple-at-a-time evaluation.  Both
paths still raise, with the same exception types.

Out-of-core execution: when ``EngineOptions.memory_budget`` is set and
a sort/hash join/aggregate estimates its input above the budget, the
node switches to the spilling variant in :mod:`repro.sqlengine.spill`
(external merge sort, grace-style partitioned join/aggregate); spilled
byte counts surface in EXPLAIN ANALYZE next to per-node batch counts.
"""

from __future__ import annotations

import datetime
import time
from collections import Counter
from itertools import chain, compress, repeat
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine import spill as spill_mod
from repro.sqlengine.errors import (
    CatalogError,
    ExecutionError,
    SqlError,
    SqlTypeError,
)
from repro.sqlengine.evaluator import (
    SCALAR_FUNCTIONS,
    Frame,
    _arith,
    _as_truth as _truth,
    _escape_char,
    _like_to_regex,
    _to_str,
    compare,
    reduce_values,
    tvl_and,
    tvl_not,
    tvl_or,
)
from repro.sqlengine.operators import (
    Filter,
    GroupAggregate,
    HashJoin,
    IndexLookup,
    LeftOuterHashJoin,
    Operator,
    SubplanSource,
    TableScan,
)
from repro.sqlengine.parser import AGGREGATE_NAMES
from repro.sqlengine.types import SqlType


class Unsupported(Exception):
    """Raised at build time when a plan node or expression has no
    exact vector lowering; the engine falls back to the row path.

    ``reason`` is one of a fixed set of phrases (a metric label);
    *detail* carries the identifier involved, if any."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason} {detail}" if detail else reason)
        self.reason = reason


# ---------------------------------------------------------------------------
# batches, scalars, expression values
# ---------------------------------------------------------------------------


class _Batch:
    """A horizontal slice of an operator's output: parallel column
    lists (one per flat frame column) plus the row count."""

    __slots__ = ("cols", "n")

    def __init__(self, cols: List[List[Any]], n: int):
        self.cols = cols
        self.n = n


class _Scalar:
    """Marks an expression result that is one value broadcast over the
    batch (literals, host variables, arithmetic over them)."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value


def _as_list(value: Any, n: int) -> List[Any]:
    if isinstance(value, _Scalar):
        return [value.value] * n
    return value


#: a batch column no operator above the scan reads is never built: it
#: travels as ``None`` (see :meth:`VNode.require`)
Column = Optional[List[Any]]


def _gather(cols: List[Column], idxs: List[int]) -> List[Column]:
    return [None if c is None else [c[i] for i in idxs] for c in cols]


def _gather_pad(cols: List[Column], idxs: List[Optional[int]]) -> List[Column]:
    """Gather allowing ``None`` = NULL (outer-join padding)."""
    return [
        None if c is None else [None if i is None else c[i] for i in idxs]
        for c in cols
    ]


def transpose(rows: Any, width: int) -> List[List[Any]]:
    """Row tuples to column lists."""
    if not rows:
        return [[] for _ in range(width)]
    return [list(c) for c in zip(*rows)]


class VExpr:
    """A compiled vector expression: ``fn(ctx, cols, n)`` returns a
    full-length value list or a :class:`_Scalar`; ``used`` names the
    flat column indices the kernel reads (for masked evaluation)."""

    __slots__ = ("fn", "dtype", "used")

    def __init__(self, fn: Callable, dtype: str, used: frozenset):
        self.fn = fn
        self.dtype = dtype
        self.used = used


class _Ctx:
    """Per-execution state threaded through every vector node."""

    __slots__ = ("db", "params", "collector", "batch_size", "budget")

    def __init__(self, db: Any):
        self.db = db
        self.params = db._params
        self.collector = db._analyze
        options = db.options
        self.batch_size = max(1, options.batch_size)
        self.budget = options.memory_budget


# ---------------------------------------------------------------------------
# dtypes
# ---------------------------------------------------------------------------

#: declared SQL type -> proven runtime Python type of non-NULL values
_SQL_DTYPE = {
    SqlType.INTEGER: "int",
    SqlType.REAL: "float",
    SqlType.VARCHAR: "str",
    SqlType.DATE: "date",
    SqlType.BOOLEAN: "bool",
}

_NUMERIC = ("int", "float", "bool")


def _table_dtypes(table: Any) -> List[str]:
    """Column dtypes a kernel may trust.  Only columnar tables coerce
    on every write path, so only they earn typed kernels; plain tables
    (and ``load_database``'s raw appends) stay ``'any'``."""
    if getattr(table, "storage", "row") != "columnar":
        return ["any"] * len(table.columns)
    return [
        _SQL_DTYPE.get(t, "any") if t is not None else "any"
        for t in table.types
    ]


def _dtype_of_literal(value: Any) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "str"
    if isinstance(value, datetime.date):
        return "date"
    return "any"


def _clean_scalar(dtype: str, value: Any) -> bool:
    """May a raw-operator kernel compare a *dtype* column against this
    scalar with semantics identical to :func:`compare`?"""
    if dtype in _NUMERIC:
        return isinstance(value, (int, float))
    if dtype == "str":
        return isinstance(value, str)
    if dtype == "date":
        return isinstance(value, datetime.date)
    return False


def _clean_pair(ldt: str, rdt: str) -> bool:
    if ldt in _NUMERIC and rdt in _NUMERIC:
        return True
    return ldt == rdt and ldt in ("str", "date")


def _frame_offsets(frame: Frame) -> List[int]:
    offsets = []
    total = 0
    for _, columns in frame.sources:
        offsets.append(total)
        total += len(columns)
    return offsets


# ---------------------------------------------------------------------------
# comparison / arithmetic kernels
# ---------------------------------------------------------------------------

import operator as _op  # noqa: E402  (kernel table below)

_CMP_PY = {
    "=": _op.eq,
    "<>": _op.ne,
    "<": _op.lt,
    "<=": _op.le,
    ">": _op.gt,
    ">=": _op.ge,
}

_ARITH_PY = {"+": _op.add, "-": _op.sub, "*": _op.mul}


def _cmp_values(op: str, lv: Any, rv: Any, ldt: str, rdt: str) -> Any:
    """Apply one SQL comparison over batch values (lists or scalars)."""
    opfn = _CMP_PY[op]
    if isinstance(lv, _Scalar) and isinstance(rv, _Scalar):
        return _Scalar(compare(op, lv.value, rv.value))
    if isinstance(rv, _Scalar):
        s = rv.value
        if s is None:
            return _Scalar(None)
        if _clean_scalar(ldt, s):
            return [None if v is None else opfn(v, s) for v in lv]
        return [compare(op, v, s) for v in lv]
    if isinstance(lv, _Scalar):
        s = lv.value
        if s is None:
            return _Scalar(None)
        if _clean_scalar(rdt, s):
            return [None if v is None else opfn(s, v) for v in rv]
        return [compare(op, s, v) for v in rv]
    if _clean_pair(ldt, rdt):
        if None not in lv and None not in rv:
            return list(map(opfn, lv, rv))
        return [
            None if a is None or b is None else opfn(a, b)
            for a, b in zip(lv, rv)
        ]
    return [compare(op, a, b) for a, b in zip(lv, rv)]


def _numeric_scalar(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _arith_values(op: str, lv: Any, rv: Any, ldt: str, rdt: str) -> Any:
    """Apply ``+ - * / %`` over batch values with the row path's NULL
    guard and :func:`_arith` error semantics."""
    if isinstance(lv, _Scalar) and isinstance(rv, _Scalar):
        a, b = lv.value, rv.value
        if a is None or b is None:
            return _Scalar(None)
        return _Scalar(_arith(op, a, b))
    fast = _ARITH_PY.get(op)
    if isinstance(rv, _Scalar):
        s = rv.value
        if s is None:
            return _Scalar(None)
        if fast is not None and ldt in ("int", "float") and _numeric_scalar(s):
            return [None if v is None else fast(v, s) for v in lv]
        return [None if v is None else _arith(op, v, s) for v in lv]
    if isinstance(lv, _Scalar):
        s = lv.value
        if s is None:
            return _Scalar(None)
        if fast is not None and rdt in ("int", "float") and _numeric_scalar(s):
            return [None if v is None else fast(s, v) for v in rv]
        return [None if v is None else _arith(op, s, v) for v in rv]
    if fast is not None and ldt in ("int", "float") and rdt in ("int", "float"):
        return [
            None if a is None or b is None else fast(a, b)
            for a, b in zip(lv, rv)
        ]
    return [
        None if a is None or b is None else _arith(op, a, b)
        for a, b in zip(lv, rv)
    ]


def _arith_dtype(op: str, ldt: str, rdt: str) -> str:
    if ldt in ("int", "float") and rdt in ("int", "float"):
        if op == "/":
            return "float"
        if op == "%":
            return "float" if "float" in (ldt, rdt) else "int"
        return "int" if ldt == rdt == "int" else "float"
    return "any"


def _mask_gather(
    cols: List[List[Any]], used: frozenset, idxs: List[int]
) -> List[Optional[List[Any]]]:
    """Columns restricted to *idxs*, materialized only for the flat
    indices in *used* (lazy AND/OR/COALESCE operand evaluation)."""
    sub: List[Optional[List[Any]]] = [None] * len(cols)
    for u in used:
        col = cols[u]
        sub[u] = [col[i] for i in idxs]
    return sub


# ---------------------------------------------------------------------------
# expression compiler
# ---------------------------------------------------------------------------

#: scalar functions with a provable result type (everything else 'any')
_FN_DTYPE = {
    "UPPER": "str",
    "LOWER": "str",
    "TRIM": "str",
    "SUBSTR": "str",
    "SUBSTRING": "str",
    "LENGTH": "int",
    "YEAR": "int",
    "MONTH": "int",
    "DAY": "int",
    "WEEKDAY": "int",
    "FLOOR": "int",
    "CEIL": "int",
    "CEILING": "int",
    "SIGN": "int",
    "SQRT": "float",
}

_CAST_DTYPE = {
    SqlType.VARCHAR: "str",
    SqlType.INTEGER: "int",
    SqlType.REAL: "float",
    SqlType.DATE: "date",
    SqlType.BOOLEAN: "bool",
}


class _AggSlot:
    """One aggregate occurrence: its reduction, DISTINCT flag and the
    argument expression compiled over the *child* (pre-group) layout."""

    __slots__ = ("name", "star", "distinct", "arg", "dtype")

    def __init__(self, name, star, distinct, arg, dtype):
        self.name = name
        self.star = star
        self.distinct = distinct
        self.arg = arg
        self.dtype = dtype


class _GroupContext:
    """Allocates aggregate slots appended after the representative
    columns in a :class:`VAggregate` output batch."""

    def __init__(self, base_width: int):
        self.base_width = base_width
        self.slots: List[_AggSlot] = []

    def add(self, slot: _AggSlot) -> int:
        self.slots.append(slot)
        return self.base_width + len(self.slots) - 1


def _agg_dtype(name: str, star: bool, arg_dtype: str) -> str:
    if name == "COUNT":
        return "int"
    if name in ("MIN", "MAX"):
        return arg_dtype
    if name == "SUM":
        return arg_dtype if arg_dtype in ("int", "float") else "any"
    if name == "AVG":
        return "float" if arg_dtype in ("int", "float") else "any"
    return "any"


class _Compiler:
    """Lowers AST expressions to :class:`VExpr` kernels over one flat
    column layout, raising :class:`Unsupported` for anything whose
    vector semantics would not be exact."""

    def __init__(
        self,
        frame: Frame,
        dtypes: Sequence[str],
        db: Any,
        groups: Optional[_GroupContext] = None,
        sibling: Optional["_Compiler"] = None,
    ):
        self._frame = frame
        self._dtypes = list(dtypes)
        self._db = db
        self._offsets = _frame_offsets(frame)
        #: group context when compiling HAVING / post-group projections
        self._groups = groups
        #: the pre-group compiler aggregate arguments compile through
        self._sibling = sibling

    def compile(self, expr: ast.Expression) -> VExpr:
        method = self._DISPATCH.get(type(expr))
        if method is None:
            raise Unsupported(f"no vector lowering for {type(expr).__name__}")
        return method(self, expr)

    # -- leaves -----------------------------------------------------------

    def _literal(self, expr: ast.Literal) -> VExpr:
        value = expr.value
        scalar = _Scalar(value)
        return VExpr(
            lambda ctx, cols, n: scalar,
            _dtype_of_literal(value),
            frozenset(),
        )

    def _hostvar(self, expr: ast.HostVar) -> VExpr:
        name = expr.name

        def fn(ctx, cols, n):
            try:
                return _Scalar(ctx.params[name])
            except KeyError:
                raise ExecutionError(
                    f"unbound host variable :{name}"
                ) from None

        return VExpr(fn, "any", frozenset())

    def _column(self, expr: ast.ColumnRef) -> VExpr:
        try:
            hit = self._frame.lookup(expr.qualifier, expr.name)
        except CatalogError:
            # Ambiguous name: the row path raises only for rows that
            # actually evaluate it; stay on the row path wholesale.
            raise Unsupported("ambiguous column", repr(expr.name)) from None
        if hit is None:
            raise Unsupported("outer-scope column", repr(expr.name))
        src_idx, col_idx = hit
        flat = self._offsets[src_idx] + col_idx
        return VExpr(
            lambda ctx, cols, n: cols[flat],
            self._dtypes[flat] if flat < len(self._dtypes) else "any",
            frozenset((flat,)),
        )

    # -- operators --------------------------------------------------------

    def _binary(self, expr: ast.BinaryOp) -> VExpr:
        op = expr.op
        if op in ("AND", "OR"):
            return self._logical(op, expr.left, expr.right)
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        used = left.used | right.used
        if op in _CMP_PY:
            ldt, rdt = left.dtype, right.dtype

            def fn_cmp(ctx, cols, n):
                return _cmp_values(
                    op, left.fn(ctx, cols, n), right.fn(ctx, cols, n),
                    ldt, rdt,
                )

            return VExpr(fn_cmp, "bool", used)
        if op == "||":

            def fn_concat(ctx, cols, n):
                lv = left.fn(ctx, cols, n)
                rv = right.fn(ctx, cols, n)
                if isinstance(lv, _Scalar) and isinstance(rv, _Scalar):
                    a, b = lv.value, rv.value
                    if a is None or b is None:
                        return _Scalar(None)
                    return _Scalar(_to_str(a) + _to_str(b))
                la = _as_list(lv, n)
                lb = _as_list(rv, n)
                return [
                    None if a is None or b is None
                    else _to_str(a) + _to_str(b)
                    for a, b in zip(la, lb)
                ]

            return VExpr(fn_concat, "str", used)
        if op in ("+", "-", "*", "/", "%"):
            ldt, rdt = left.dtype, right.dtype

            def fn_arith(ctx, cols, n):
                return _arith_values(
                    op, left.fn(ctx, cols, n), right.fn(ctx, cols, n),
                    ldt, rdt,
                )

            return VExpr(fn_arith, _arith_dtype(op, ldt, rdt), used)
        raise Unsupported(f"binary operator {op!r}")

    def _logical(self, op: str, left_e, right_e) -> VExpr:
        """AND/OR with the row path's short circuit reproduced at row
        granularity: the right operand runs only on undecided rows."""
        left = self.compile(left_e)
        right = self.compile(right_e)
        used = left.used | right.used
        is_and = op == "AND"
        combine = tvl_and if is_and else tvl_or
        decided = False if is_and else True

        def fn(ctx, cols, n):
            lt = [_truth(v) for v in _as_list(left.fn(ctx, cols, n), n)]
            idxs = [i for i, v in enumerate(lt) if v is not decided]
            out: List[Any] = [decided] * n
            if idxs:
                sub = _mask_gather(cols, right.used, idxs)
                rv = _as_list(right.fn(ctx, sub, len(idxs)), len(idxs))
                for k, i in enumerate(idxs):
                    out[i] = combine(lt[i], _truth(rv[k]))
            return out

        return VExpr(fn, "bool", used)

    def _unary(self, expr: ast.UnaryOp) -> VExpr:
        operand = self.compile(expr.operand)
        if expr.op == "NOT":

            def fn_not(ctx, cols, n):
                value = operand.fn(ctx, cols, n)
                if isinstance(value, _Scalar):
                    return _Scalar(tvl_not(_truth(value.value)))
                return [tvl_not(_truth(v)) for v in value]

            return VExpr(fn_not, "bool", operand.used)
        if expr.op == "-":

            def neg_one(v):
                if v is None:
                    return None
                if not isinstance(v, (int, float)) or isinstance(v, bool):
                    raise SqlTypeError(f"cannot negate {v!r}")
                return -v

            def fn_neg(ctx, cols, n):
                value = operand.fn(ctx, cols, n)
                if isinstance(value, _Scalar):
                    return _Scalar(neg_one(value.value))
                return [neg_one(v) for v in value]

            dtype = (
                operand.dtype if operand.dtype in ("int", "float") else "any"
            )
            return VExpr(fn_neg, dtype, operand.used)
        raise Unsupported(f"unary operator {expr.op!r}")

    # -- predicates -------------------------------------------------------

    def _between(self, expr: ast.Between) -> VExpr:
        value = self.compile(expr.expr)
        low = self.compile(expr.low)
        high = self.compile(expr.high)
        used = value.used | low.used | high.used
        negated = expr.negated
        vdt = value.dtype

        def fn(ctx, cols, n):
            vv = value.fn(ctx, cols, n)
            lv = low.fn(ctx, cols, n)
            hv = high.fn(ctx, cols, n)
            if (
                not isinstance(vv, _Scalar)
                and isinstance(lv, _Scalar)
                and isinstance(hv, _Scalar)
                and lv.value is not None
                and hv.value is not None
                and _clean_scalar(vdt, lv.value)
                and _clean_scalar(vdt, hv.value)
            ):
                lo, hi = lv.value, hv.value
                if negated:
                    return [
                        None if v is None else not (lo <= v <= hi) for v in vv
                    ]
                return [None if v is None else lo <= v <= hi for v in vv]
            va = _as_list(vv, n)
            la = _as_list(lv, n)
            ha = _as_list(hv, n)
            out = []
            for v, lo, hi in zip(va, la, ha):
                result = tvl_and(
                    compare(">=", v, lo), compare("<=", v, hi)
                )
                out.append(tvl_not(result) if negated else result)
            return out

        return VExpr(fn, "bool", used)

    def _in_list(self, expr: ast.InList) -> VExpr:
        value = self.compile(expr.expr)
        if not all(isinstance(item, ast.Literal) for item in expr.items):
            # non-constant items are evaluated lazily per row with an
            # early break by the row path; keep that exact
            raise Unsupported("IN list with non-literal items")
        items = [item.value for item in expr.items]
        negated = expr.negated
        vdt = value.dtype
        fast_set = (
            frozenset(items)
            if items and all(_clean_scalar(vdt, item) for item in items)
            else None
        )

        def one(v):
            found = False
            saw_null = False
            for item in items:
                result = compare("=", v, item)
                if result is True:
                    found = True
                    break
                if result is None:
                    saw_null = True
            result3 = True if found else (None if saw_null else False)
            return tvl_not(result3) if negated else result3

        def fn(ctx, cols, n):
            vv = value.fn(ctx, cols, n)
            if isinstance(vv, _Scalar):
                return _Scalar(one(vv.value))
            if fast_set is not None:
                if negated:
                    return [
                        None if v is None else v not in fast_set for v in vv
                    ]
                return [None if v is None else v in fast_set for v in vv]
            return [one(v) for v in vv]

        return VExpr(fn, "bool", value.used)

    def _like(self, expr: ast.Like) -> VExpr:
        value = self.compile(expr.expr)
        escape_e = expr.escape
        if escape_e is not None and not isinstance(escape_e, ast.Literal):
            raise Unsupported("LIKE with non-constant ESCAPE")
        if not isinstance(expr.pattern, ast.Literal):
            raise Unsupported("LIKE with non-constant pattern")
        negated = expr.negated
        if escape_e is not None and escape_e.value is None:
            # LIKE ... ESCAPE NULL is NULL for every row
            return VExpr(
                lambda ctx, cols, n: _Scalar(None), "bool", value.used
            )
        pattern = expr.pattern.value
        if pattern is None:
            return VExpr(
                lambda ctx, cols, n: _Scalar(None), "bool", value.used
            )
        if not isinstance(pattern, str):
            # the row path raises per evaluated non-NULL row
            def fn_bad(ctx, cols, n):
                vv = _as_list(value.fn(ctx, cols, n), n)
                out = []
                for v in vv:
                    if v is None:
                        out.append(None)
                    else:
                        raise SqlTypeError("LIKE requires string operands")
                return out

            return VExpr(fn_bad, "bool", value.used)
        try:
            escape = (
                _escape_char(escape_e.value) if escape_e is not None else None
            )
            regex = _like_to_regex(pattern, escape)
        except SqlError:
            # With expression compilation off the row path raises this
            # per row (and not at all on empty input): fall back.
            raise Unsupported("invalid LIKE pattern/escape") from None
        is_str = value.dtype == "str"
        match = regex.match

        def fn(ctx, cols, n):
            vv = value.fn(ctx, cols, n)
            scalar = isinstance(vv, _Scalar)
            col = [vv.value] if scalar else vv
            if is_str:
                if negated:
                    out = [
                        None if v is None else not match(v) for v in col
                    ]
                else:
                    out = [
                        None if v is None else bool(match(v)) for v in col
                    ]
            else:
                out = []
                for v in col:
                    if v is None:
                        out.append(None)
                        continue
                    if not isinstance(v, str):
                        raise SqlTypeError("LIKE requires string operands")
                    result = bool(match(v))
                    out.append(not result if negated else result)
            return _Scalar(out[0]) if scalar else out

        return VExpr(fn, "bool", value.used)

    def _is_null(self, expr: ast.IsNull) -> VExpr:
        value = self.compile(expr.expr)
        negated = expr.negated

        def fn(ctx, cols, n):
            vv = value.fn(ctx, cols, n)
            if isinstance(vv, _Scalar):
                result = vv.value is None
                return _Scalar(not result if negated else result)
            if negated:
                return [v is not None for v in vv]
            return [v is None for v in vv]

        return VExpr(fn, "bool", value.used)

    # -- functions --------------------------------------------------------

    def _function(self, expr: ast.FunctionCall) -> VExpr:
        if expr.name in AGGREGATE_NAMES or expr.star:
            return self._aggregate(expr)
        if expr.name == "COALESCE":
            return self._coalesce(expr)
        if expr.name == "NULLIF":
            if len(expr.args) != 2:
                raise Unsupported("NULLIF arity")
            first = self.compile(expr.args[0])
            second = self.compile(expr.args[1])

            def fn_nullif(ctx, cols, n):
                fv = first.fn(ctx, cols, n)
                sv = second.fn(ctx, cols, n)
                if isinstance(fv, _Scalar) and isinstance(sv, _Scalar):
                    a, b = fv.value, sv.value
                    return _Scalar(
                        None if compare("=", a, b) is True else a
                    )
                fa = _as_list(fv, n)
                sa = _as_list(sv, n)
                return [
                    None if compare("=", a, b) is True else a
                    for a, b in zip(fa, sa)
                ]

            return VExpr(fn_nullif, first.dtype, first.used | second.used)
        impl = SCALAR_FUNCTIONS.get(expr.name)
        if impl is None:
            raise Unsupported("unknown function", repr(expr.name))
        args = [self.compile(arg) for arg in expr.args]
        used = frozenset().union(*(a.used for a in args)) if args else frozenset()
        dtype = _FN_DTYPE.get(expr.name, "any")

        def fn(ctx, cols, n):
            vals = [a.fn(ctx, cols, n) for a in args]
            if all(isinstance(v, _Scalar) for v in vals):
                return _Scalar(impl([v.value for v in vals]))
            lists = [_as_list(v, n) for v in vals]
            return [impl(list(row)) for row in zip(*lists)] if lists else [
                impl([]) for _ in range(n)
            ]

        return VExpr(fn, dtype, used)

    def _coalesce(self, expr: ast.FunctionCall) -> VExpr:
        args = [self.compile(arg) for arg in expr.args]
        used = frozenset().union(*(a.used for a in args)) if args else frozenset()

        def fn(ctx, cols, n):
            # lazy like the row path: argument k runs only on rows the
            # first k-1 arguments left NULL
            out: List[Any] = [None] * n
            pending = list(range(n))
            for arg in args:
                if not pending:
                    break
                sub = _mask_gather(cols, arg.used, pending)
                vals = _as_list(arg.fn(ctx, sub, len(pending)), len(pending))
                still: List[int] = []
                for k, i in enumerate(pending):
                    v = vals[k]
                    if v is None:
                        still.append(i)
                    else:
                        out[i] = v
                pending = still
            return out

        return VExpr(fn, "any", used)

    def _aggregate(self, expr: ast.FunctionCall) -> VExpr:
        gctx = self._groups
        if gctx is None:
            raise Unsupported("aggregate outside group context")
        if expr.star:
            if expr.name != "COUNT":
                raise Unsupported(f"{expr.name}(*)")
            slot = _AggSlot("COUNT", True, False, None, "int")
        else:
            if len(expr.args) != 1:
                raise Unsupported(f"{expr.name} arity")
            if expr.name not in ("COUNT", "SUM", "AVG", "MIN", "MAX"):
                raise Unsupported(f"aggregate {expr.name!r}")
            arg = self._sibling.compile(expr.args[0])
            slot = _AggSlot(
                expr.name,
                False,
                expr.distinct,
                arg,
                _agg_dtype(expr.name, False, arg.dtype),
            )
        flat = gctx.add(slot)
        return VExpr(
            lambda ctx, cols, n, _f=flat: cols[_f],
            slot.dtype,
            frozenset((flat,)),
        )

    # -- misc -------------------------------------------------------------

    def _cast(self, expr: ast.Cast) -> VExpr:
        value = self.compile(expr.expr)
        target = expr.target
        if target is SqlType.VARCHAR:
            convert: Callable[[Any], Any] = _to_str
        elif target is SqlType.INTEGER:
            convert = int
        elif target is SqlType.REAL:
            convert = float
        else:
            from repro.sqlengine.types import coerce

            convert = lambda v, _t=target: coerce(v, _t)  # noqa: E731

        def fn(ctx, cols, n):
            vv = value.fn(ctx, cols, n)
            if isinstance(vv, _Scalar):
                v = vv.value
                return _Scalar(None if v is None else convert(v))
            return [None if v is None else convert(v) for v in vv]

        return VExpr(fn, _CAST_DTYPE.get(target, "any"), value.used)

    def _tuple(self, expr: ast.TupleExpr) -> VExpr:
        items = [self.compile(item) for item in expr.items]
        used = (
            frozenset().union(*(i.used for i in items))
            if items
            else frozenset()
        )

        def fn(ctx, cols, n):
            vals = [i.fn(ctx, cols, n) for i in items]
            if all(isinstance(v, _Scalar) for v in vals):
                return _Scalar(tuple(v.value for v in vals))
            lists = [_as_list(v, n) for v in vals]
            return [tuple(row) for row in zip(*lists)]

        return VExpr(fn, "any", used)

    def _unsupported(self, expr) -> VExpr:
        raise Unsupported(f"no vector lowering for {type(expr).__name__}")

    _DISPATCH: Dict[type, Callable[..., VExpr]] = {}


_Compiler._DISPATCH = {
    ast.Literal: _Compiler._literal,
    ast.HostVar: _Compiler._hostvar,
    ast.ColumnRef: _Compiler._column,
    ast.BinaryOp: _Compiler._binary,
    ast.UnaryOp: _Compiler._unary,
    ast.FunctionCall: _Compiler._function,
    ast.Between: _Compiler._between,
    ast.InList: _Compiler._in_list,
    ast.Like: _Compiler._like,
    ast.IsNull: _Compiler._is_null,
    ast.Cast: _Compiler._cast,
    ast.TupleExpr: _Compiler._tuple,
    # SequenceNextval: only as a bare select item (see build); inside
    # expressions the per-row allocation order is not reproducible
    # column-wise.  Subqueries, CASE and Star stay on the row path.
    ast.SequenceNextval: _Compiler._unsupported,
    ast.InSubquery: _Compiler._unsupported,
    ast.Exists: _Compiler._unsupported,
    ast.ScalarSubquery: _Compiler._unsupported,
    ast.Case: _Compiler._unsupported,
    ast.Star: _Compiler._unsupported,
}


# ---------------------------------------------------------------------------
# vector operators
# ---------------------------------------------------------------------------


class VNode:
    """Base vector operator.  Mirrors one row operator (``self.op``)
    and reports its rows/batches/spill into the row operator's EXPLAIN
    ANALYZE slot, so both executors share one observability surface."""

    op: Operator
    dtypes: List[str]

    def run(self, ctx: _Ctx) -> _Batch:
        collector = ctx.collector
        if collector is None:
            return self._execute(ctx)
        self._batches = 0
        self._spill = 0
        started = time.perf_counter()
        batch = self._execute(ctx)
        elapsed = time.perf_counter() - started
        collector.record_vector(
            self.op, batch.n, self._batches, self._spill, elapsed,
            self._probe,
        )
        return batch

    def _execute(self, ctx: _Ctx) -> _Batch:
        raise NotImplementedError

    def require(self, flats: frozenset) -> None:
        """Told once, at build time, which of this node's output
        columns (flat indices) the operators above read.  Inner nodes
        add what their own expressions read and pass the set down;
        scans build only those columns."""

    _batches = 0
    _spill = 0
    #: a join's probe kernel, for EXPLAIN ANALYZE
    _probe: Optional[str] = None


def _chunks(n: int, size: int) -> int:
    return (n + size - 1) // size if n else 1


class VScan(VNode):
    """Full scan of the columns the plan reads: columnar tables decode
    their vectors (cached per ``data_version``), row tables transpose
    their tuples."""

    def __init__(self, op: TableScan):
        self.op = op
        self.dtypes = _table_dtypes(op.table)
        self._needed: List[int] = []
        self._cache_version: Optional[int] = None
        self._cache_cols: Optional[List[Column]] = None

    def require(self, flats: frozenset) -> None:
        self._needed = sorted(flats)

    def _execute(self, ctx: _Ctx) -> _Batch:
        table = self.op.table
        version = getattr(table, "data_version", None)
        if version is not None:
            if version != self._cache_version or self._cache_cols is None:
                self._cache_cols = table.column_lists(self._needed)
                self._cache_version = version
            cols = self._cache_cols
            n = len(table)
        else:
            cols = table.column_lists(self._needed)
            n = len(table)
        self._batches = _chunks(n, ctx.batch_size)
        return _Batch(cols, n)


class VSubplan(VNode):
    """A view or derived table: runs the nested plan when the parent
    runs.  A nested plan the batch executor accepts hands over its
    output columns and their proven dtypes as they are; anything else
    (a set operation, a node without a vector lowering) runs through
    the row executor and is transposed."""

    def __init__(self, op: SubplanSource, db: Any):
        self.op = op
        vector = None if op.select.set_ops else db._vector_plan(op.plan)
        self._columnar = vector is not None
        self._width = len(op.plan.columns)
        self.dtypes = (
            list(vector.out_dtypes) if vector is not None
            else ["any"] * self._width
        )

    def _execute(self, ctx: _Ctx) -> _Batch:
        db = ctx.db
        if self._columnar:
            cols, n = db._plan_columns(self.op.plan)
        else:
            _, rows = db._run_select_raw(self.op.select)
            cols, n = transpose(rows, self._width), len(rows)
        self._batches = _chunks(n, ctx.batch_size)
        return _Batch(cols, n)


class VIndexLookup(VNode):
    """Constant-key secondary-index lookup (the pushed-down equality
    access path).  Key expressions are self-contained (no column
    references), so they are evaluated once per execution, not per
    row."""

    def __init__(self, op: IndexLookup):
        self.op = op
        self.dtypes = _table_dtypes(op.table)

    def _execute(self, ctx: _Ctx) -> _Batch:
        op = self.op
        key = op._key_fn(None)
        width = len(op.table.columns)
        if any(value is None for value in key):
            self._batches = 1
            return _Batch([[] for _ in range(width)], 0)
        rows = op.index.lookup(key)
        self._batches = _chunks(len(rows), ctx.batch_size)
        return _Batch(transpose(rows, width), len(rows))


class VFilter(VNode):
    """Selection: evaluates the predicate in chunks of ``batch_size``
    (touching only the columns the predicate reads) and gathers the
    surviving positions."""

    def __init__(self, op: Filter, child: VNode, pred: VExpr):
        self.op = op
        self.child = child
        self.dtypes = child.dtypes
        self.pred = pred

    def require(self, flats: frozenset) -> None:
        self.child.require(flats | self.pred.used)

    def _execute(self, ctx: _Ctx) -> _Batch:
        batch = self.child.run(ctx)
        cols = batch.cols
        n = batch.n
        pred = self.pred
        size = ctx.batch_size
        sel: List[int] = []
        batches = 0
        for start in range(0, n, size):
            end = min(start + size, n)
            span = end - start
            sub: List[Optional[List[Any]]] = [None] * len(cols)
            for u in pred.used:
                sub[u] = cols[u][start:end]
            vals = _as_list(pred.fn(ctx, sub, span), span)
            for k, v in enumerate(vals):
                if v is True:
                    sel.append(start + k)
            batches += 1
        self._batches = max(1, batches)
        if len(sel) == n:
            return _Batch(cols, n)
        return _Batch(_gather(cols, sel), len(sel))


class VHashJoin(VNode):
    """Equi-join on key lists: builds positions on the right input,
    probes the left in order (left-major output, bucket order within a
    key — exactly the row operator's emission order).  Above the
    memory budget the build/probe runs partition-wise through
    :mod:`repro.sqlengine.spill`.

    Materialization is late: the pairs are found on the key columns
    alone, a residual is evaluated on candidate pairs gathered only
    for the columns it reads, and only the columns the operators above
    read (:meth:`require`) are gathered, once, at the surviving pairs."""

    #: LEFT OUTER: every left row without a surviving pair is emitted
    #: once with a NULL right side
    outer = False

    def __init__(
        self,
        op: HashJoin,
        left: VNode,
        right: VNode,
        left_keys: List[VExpr],
        right_keys: List[VExpr],
        residual: Optional[VExpr],
    ):
        self.op = op
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.residual = residual
        self.dtypes = left.dtypes + right.dtypes
        self._needed: frozenset = frozenset()

    def require(self, flats: frozenset) -> None:
        self._needed = flats
        if self.residual is not None:
            flats = flats | self.residual.used
        split = len(self.left.dtypes)
        self.left.require(frozenset().union(
            (f for f in flats if f < split),
            *(k.used for k in self.left_keys),
        ))
        self.right.require(frozenset().union(
            (f - split for f in flats if f >= split),
            *(k.used for k in self.right_keys),
        ))

    def _execute(self, ctx: _Ctx) -> _Batch:
        # build side first, like the row operator
        rbatch = self.right.run(ctx)
        lbatch = self.left.run(ctx)
        rkeys = [
            _as_list(k.fn(ctx, rbatch.cols, rbatch.n), rbatch.n)
            for k in self.right_keys
        ]
        lkeys = [
            _as_list(k.fn(ctx, lbatch.cols, lbatch.n), lbatch.n)
            for k in self.left_keys
        ]
        outer = self.outer
        budget = ctx.budget
        if budget is not None and rbatch.n and spill_mod.estimate_bytes(
            len(rbatch.cols) + len(rkeys), rbatch.n
        ) > budget:
            # spill_join_pairs emits exactly the in-memory pair order
            pairs, spilled = spill_mod.spill_join_pairs(
                _key_tuples(lkeys, lbatch.n), _key_tuples(rkeys, rbatch.n)
            )
            self._spill += spilled
            self._probe = "buckets"
            lefts: Sequence[int] = [i for i, _ in pairs]
            rights = [j for _, j in pairs]
            if outer:
                lefts, rights = _pad(lefts, rights, lbatch.n)
        else:
            lefts, rights, self._probe = _join_pairs(
                lkeys, lbatch.n, rkeys, rbatch.n, outer
            )
        residual = self.residual
        if residual is not None:
            if outer:
                # the residual sees real pairs only; padding is redone
                lefts, rights = _select(
                    lefts, rights, map(_op.is_not, rights, repeat(None))
                )
            if lefts:
                cols = self._columns(lbatch, rbatch, lefts, rights,
                                     residual.used)
                vals = _as_list(residual.fn(ctx, cols, len(lefts)), len(lefts))
                lefts, rights = _select(
                    lefts, rights, map(_op.is_, vals, repeat(True))
                )
            if outer:
                lefts, rights = _pad(lefts, rights, lbatch.n)
        cols = self._columns(lbatch, rbatch, lefts, rights, self._needed)
        n = len(lefts)
        self._batches = _chunks(n, ctx.batch_size)
        return _Batch(cols, n)

    def _columns(
        self,
        lbatch: _Batch,
        rbatch: _Batch,
        lefts: Sequence[int],
        rights: Sequence[Optional[int]],
        flats: frozenset,
    ) -> List[Column]:
        """The output columns in *flats* gathered at the pairs, ``None``
        elsewhere.  A ``range`` of left indices is every left row in
        order: the left columns pass through as they are."""
        split = len(lbatch.cols)
        lcols = [c if f in flats else None for f, c in enumerate(lbatch.cols)]
        rcols = [
            c if f + split in flats else None
            for f, c in enumerate(rbatch.cols)
        ]
        if not isinstance(lefts, range):
            lcols = _gather(lcols, lefts)
        return lcols + (_gather_pad if self.outer else _gather)(rcols, rights)


def _row_keys(key_lists: List[List[Any]], n: int) -> List[Any]:
    """One hashable key per row: the value itself for a single key
    column, a tuple for several — equal exactly when the row
    operator's key tuples are."""
    if len(key_lists) == 1:
        return key_lists[0]
    return _key_tuples(key_lists, n)


def _key_tuples(key_lists: List[List[Any]], n: int) -> List[Tuple[Any, ...]]:
    """Per-row key tuples, the shape the spill functions take."""
    return list(zip(*key_lists)) if key_lists else [()] * n


#: a probe miss in a LEFT OUTER join: one pair with no right row
_PAD = (None,)


def _join_pairs(
    lkeys: List[List[Any]],
    ln: int,
    rkeys: List[List[Any]],
    rn: int,
    outer: bool,
) -> Tuple[Sequence[int], List[Optional[int]], str]:
    """Matching (left, right) row indices of an equi-join, i-major and
    in build order per i, as two parallel index lists ready for
    :func:`_gather` — with ``outer``, a left row without a match pairs
    once with ``None`` — and the probe kernel that found them.

    ``unique``: no build key is NULL or repeats, so a probe is one dict
    lookup per left row; when every left row matches (or ``outer``)
    the left indices are ``range(ln)``.  ``buckets``: build positions
    per key, emitted bucket by bucket."""
    lk = _row_keys(lkeys, ln)
    rk = _row_keys(rkeys, rn)
    if not any(None in col for col in rkeys):
        unique = dict(zip(rk, range(rn)))
        if len(unique) == rn:
            rights = list(map(unique.get, lk))
            if outer or None not in rights:
                return range(ln), rights, "unique"
            lefts, rights = _select(
                range(ln), rights, map(_op.is_not, rights, repeat(None))
            )
            return lefts, rights, "unique"
    single = len(rkeys) == 1
    buckets: Dict[Any, List[int]] = {}
    get = buckets.get
    for j, key in enumerate(rk):
        if (key is None) if single else (None in key):
            continue
        bucket = get(key)
        if bucket is None:
            buckets[key] = [j]
        else:
            bucket.append(j)
    found = list(map(get, lk, repeat(_PAD if outer else ())))
    lefts = list(chain.from_iterable(map(repeat, range(ln), map(len, found))))
    return lefts, list(chain.from_iterable(found)), "buckets"


def _select(
    lefts: Sequence[int],
    rights: Sequence[Optional[int]],
    mask: Iterable[Any],
) -> Tuple[List[int], List[Optional[int]]]:
    """The pairs whose *mask* entry is true."""
    mask = list(mask)
    return list(compress(lefts, mask)), list(compress(rights, mask))


def _pad(
    lefts: List[int], rights: List[Optional[int]], ln: int
) -> Tuple[List[int], List[Optional[int]]]:
    """LEFT OUTER emission from i-major pairs: each of the *ln* left
    rows without a pair gets one with right index ``None``, in place."""
    matched = set(lefts)
    pads = [i for i in range(ln) if i not in matched]
    if not pads:
        return lefts, rights
    lefts = list(lefts) + pads
    rights = list(rights) + [None] * len(pads)
    # stable: the pairs of one left row keep their build order
    order = sorted(range(len(lefts)), key=lefts.__getitem__)
    return [lefts[k] for k in order], [rights[k] for k in order]


class VLeftOuterHashJoin(VHashJoin):
    """LEFT OUTER equi-join: the inner join's pairs, a residual
    applied to them, and every left row left without a pair padded
    with NULLs in its place — the row operator's emission order."""

    outer = True


class VAggregate(VNode):
    """Hash grouping with slot reduction.  The output batch carries
    one representative (first-member) value per child column, followed
    by one column per aggregate slot; the post-group compiler reads
    both through flat indices.  Above the memory budget, grouping runs
    partition-wise on disk."""

    def __init__(
        self,
        op: GroupAggregate,
        child: VNode,
        key_vexprs: List[VExpr],
        gctx: _GroupContext,
    ):
        self.op = op
        self.child = child
        self.key_vexprs = key_vexprs
        self.gctx = gctx
        self.dtypes = child.dtypes + [s.dtype for s in gctx.slots]

    def require(self, flats: frozenset) -> None:
        # representative columns keep their child index; slot columns
        # (appended after them) are computed here
        base = self.gctx.base_width
        self.child.require(frozenset().union(
            (f for f in flats if f < base),
            *(k.used for k in self.key_vexprs),
            *(s.arg.used for s in self.gctx.slots if not s.star),
        ))

    def _execute(self, ctx: _Ctx) -> _Batch:
        batch = self.child.run(ctx)
        ccols = batch.cols
        n = batch.n
        key_lists = [_as_list(k.fn(ctx, ccols, n), n) for k in self.key_vexprs]
        slots = self.gctx.slots
        arg_lists: List[Optional[List[Any]]] = [
            None
            if s.star
            else _as_list(s.arg.fn(ctx, ccols, n), n)
            for s in slots
        ]
        budget = ctx.budget
        if budget is not None and n and spill_mod.estimate_bytes(
            len(ccols) + len(slots) + len(self.key_vexprs), n
        ) > budget:
            live = [k for k, col in enumerate(ccols) if col is not None]
            reps, slotcols, count, spilled = spill_mod.spill_aggregate(
                n, _key_tuples(key_lists, n), [ccols[k] for k in live],
                arg_lists, slots,
            )
            repcols: List[Column] = [None] * len(ccols)
            for k, col in zip(live, reps):
                repcols[k] = col
            self._spill += spilled
            self._batches = _chunks(count, ctx.batch_size)
            return _Batch(repcols + slotcols, count)
        members: Optional[List[Sequence[int]]] = None
        sizes: List[int] = []
        if not n:
            if not self.op.scalar:
                self._batches = 1
                width = len(ccols) + len(slots)
                return _Batch([[] for _ in range(width)], 0)
            repcols = [[None] for _ in ccols]
            members, sizes, count = [[]], [0], 1
        else:
            if not key_lists:  # no GROUP BY: one group of every row
                firsts, members, sizes = [0], [range(n)], [n]
            elif all(slot.star for slot in slots):
                # COUNT(*) at most, no member lists: the reversed dict
                # keeps each key's first row, and Counter counts in
                # first-appearance order too
                keys = _row_keys(key_lists, n)
                firsts = sorted(
                    dict(zip(reversed(keys), range(n - 1, -1, -1))).values()
                )
                if slots:
                    sizes = list(Counter(keys).values())
            else:
                firsts, members = _members(_row_keys(key_lists, n))
                sizes = list(map(len, members))
            repcols = _gather(ccols, firsts)
            count = len(firsts)
        slotcols = [
            sizes if slot.star else reduce_slot(slot, arg_lists[pos], members)
            for pos, slot in enumerate(slots)
        ]
        self._batches = _chunks(count, ctx.batch_size)
        return _Batch(repcols + slotcols, count)


def _members(keys: List[Any]) -> Tuple[List[int], List[List[int]]]:
    """Row positions grouped by key in first-appearance order: each
    group's first row and its member rows."""
    index: Dict[Any, int] = {}
    members: List[List[int]] = []
    for i, key in enumerate(keys):
        g = index.get(key)
        if g is None:
            index[key] = len(members)
            members.append([i])
        else:
            members[g].append(i)
    return [m[0] for m in members], members


def reduce_slot(
    slot: _AggSlot, argv: List[Any], members: List[Sequence[int]]
) -> List[Any]:
    return [
        reduce_values(slot.name, [argv[i] for i in m], slot.distinct)
        for m in members
    ]


# ---------------------------------------------------------------------------
# plan builder
# ---------------------------------------------------------------------------


def _build_node(op: Operator, db: Any) -> VNode:
    if isinstance(op, TableScan):
        return VScan(op)
    if isinstance(op, IndexLookup):
        if any(
            isinstance(node, ast.ColumnRef)
            for key in op.key_exprs
            for node in ast.walk_expression(key)
        ):
            # a key over an outer-scope column needs the row environment
            raise Unsupported("index lookup with non-constant keys")
        return VIndexLookup(op)
    if isinstance(op, SubplanSource):
        return VSubplan(op, db)
    if isinstance(op, Filter):
        child = _build_node(op.child, db)
        comp = _Compiler(op.frame, child.dtypes, db)
        return VFilter(op, child, comp.compile(op.predicate))
    if isinstance(op, (HashJoin, LeftOuterHashJoin)):
        left = _build_node(op.left, db)
        right = _build_node(op.right, db)
        lcomp = _Compiler(op.left.frame, left.dtypes, db)
        rcomp = _Compiler(op.right.frame, right.dtypes, db)
        left_keys = [lcomp.compile(k) for k in op.left_keys]
        right_keys = [rcomp.compile(k) for k in op.right_keys]
        residual = None
        if op.residual is not None:
            jcomp = _Compiler(op.frame, left.dtypes + right.dtypes, db)
            residual = jcomp.compile(op.residual)
        cls = VHashJoin if isinstance(op, HashJoin) else VLeftOuterHashJoin
        return cls(op, left, right, left_keys, right_keys, residual)
    raise Unsupported(f"operator {type(op).__name__}")


class VectorPlan:
    """A vectorized SELECT pipeline mirroring one ``_SelectPlan``."""

    __slots__ = (
        "source",
        "source_op",
        "filter_vexpr",
        "parts",
        "out_dtypes",
        "order_entries",
        "select",
        "width",
    )

    def execute_columns(self, db: Any) -> Tuple[List[List[Any]], int]:
        """The result column-major: one list per output column (their
        proven dtypes are :attr:`out_dtypes`) and the row count.  The
        lists may be shared with a scan's cache — callers must not
        mutate them."""
        ctx = _Ctx(db)
        batch = self.source.run(ctx)
        im = db._im
        if im is not None and batch.n:
            im.rows_scanned.inc(batch.n)
        cols = batch.cols
        n = batch.n
        filt = self.filter_vexpr
        if filt is not None and n:
            vals = _as_list(filt.fn(ctx, cols, n), n)
            sel = [i for i, v in enumerate(vals) if v is True]
            if len(sel) != n:
                cols = _gather(cols, sel)
                n = len(sel)
        out_cols: List[List[Any]] = []
        for kind, payload in self.parts:
            if kind == "cols":
                for flat in payload:
                    out_cols.append(cols[flat])
            elif kind == "expr":
                out_cols.append(_as_list(payload.fn(ctx, cols, n), n))
            else:  # "seq": a bare NEXTVAL item, allocated in row order
                sequence = db.catalog.get_sequence(payload)
                out_cols.append(list(sequence.nextvals(n)))
        if self.select.distinct and n:
            # first appearance wins, as in the row path's seen-dict
            if len(out_cols) == 1:
                values = dict.fromkeys(out_cols[0])
                if len(values) != n:
                    out_cols, n = [list(values)], len(values)
            else:
                rows = dict.fromkeys(zip(*out_cols))
                if len(rows) != n:
                    out_cols, n = transpose(rows, self.width), len(rows)
        if self.order_entries and n:
            out_cols = self._order(ctx, out_cols, n)
        return out_cols, n

    def _order(
        self, ctx: _Ctx, cols: List[List[Any]], n: int
    ) -> List[List[Any]]:
        from repro.sqlengine import engine as _engine

        width = self.width
        key_cols: List[List[Any]] = []
        for kind, payload in self.order_entries:
            if kind == "pos":
                position = payload - 1
                if not 0 <= position < width:
                    raise ExecutionError(
                        f"ORDER BY position {payload} out of range"
                    )
                key_cols.append(cols[position])
            else:
                key_cols.append(_as_list(payload.fn(ctx, cols, n), n))
        rows = list(zip(*cols))
        keys = list(zip(*key_cols))
        budget = ctx.budget
        if budget is not None and spill_mod.estimate_bytes(
            width + len(key_cols), n
        ) > budget:
            rows, spilled = spill_mod.external_sort(
                rows, keys, self.select.order_by, budget
            )
            collector = ctx.collector
            if collector is not None:
                collector.add_vector_spill(self.source_op, spilled)
        else:
            rows = _engine._sort_rows(rows, keys, self.select.order_by)
        return transpose(rows, width)


def build_vector_plan(plan: Any, db: Any) -> VectorPlan:
    """Mirror *plan* onto a :class:`VectorPlan`; raises
    :class:`Unsupported` when a node has no exact vector lowering."""
    select = plan.select
    source_op = plan.source
    if source_op is None:
        raise Unsupported("no FROM source")
    vp = VectorPlan()
    vp.select = select
    vp.source_op = source_op
    if isinstance(source_op, GroupAggregate):
        child = _build_node(source_op.child, db)
        frame = source_op.frame
        gctx = _GroupContext(len(child.dtypes))
        scalar_comp = _Compiler(frame, child.dtypes, db)
        group_comp = _Compiler(
            frame, child.dtypes, db, groups=gctx, sibling=scalar_comp
        )
        key_vexprs = [scalar_comp.compile(k) for k in source_op.keys]
        vp.filter_vexpr = (
            group_comp.compile(select.having)
            if select.having is not None
            else None
        )
        item_comp = group_comp
        node: VNode = VAggregate(source_op, child, key_vexprs, gctx)
    else:
        node = _build_node(source_op, db)
        from repro.sqlengine.planner import conjoin

        predicate = conjoin(plan.leftovers)
        item_comp = _Compiler(source_op.frame, node.dtypes, db)
        vp.filter_vexpr = (
            item_comp.compile(predicate) if predicate is not None else None
        )
    vp.source = node
    frame = source_op.frame
    offsets = _frame_offsets(frame)

    parts: List[Tuple[str, Any]] = []
    out_dtypes: List[str] = []
    used = vp.filter_vexpr.used if vp.filter_vexpr is not None else frozenset()
    seq_items = 0
    for item in select.items:
        expr = item.expr
        if isinstance(expr, ast.Star):
            flats = [
                offsets[src_idx] + col_idx
                for src_idx, col_idx, _ in frame.star_columns(expr.qualifier)
            ]
            parts.append(("cols", flats))
            used = used.union(flats)
            out_dtypes.extend(
                node.dtypes[f] if f < len(node.dtypes) else "any"
                for f in flats
            )
        elif isinstance(expr, ast.SequenceNextval):
            seq_items += 1
            if seq_items > 1:
                # two sequences interleave per row; column-wise
                # allocation would reorder them
                raise Unsupported("multiple NEXTVAL select items")
            parts.append(("seq", expr.sequence))
            out_dtypes.append("int")
        else:
            vexpr = item_comp.compile(expr)
            parts.append(("expr", vexpr))
            used = used | vexpr.used
            out_dtypes.append(vexpr.dtype)
    vp.parts = parts
    vp.out_dtypes = out_dtypes
    vp.width = len(plan.columns)
    # every expression is compiled (the aggregate's slots are all
    # allocated): tell the scans which columns anything reads
    node.require(used)

    entries: List[Tuple[str, Any]] = []
    if select.order_by:
        out_frame = Frame.single(None, plan.columns)
        order_comp = _Compiler(out_frame, out_dtypes, db)
        for order_item in select.order_by:
            expr = order_item.expr
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                entries.append(("pos", expr.value))
                continue
            try:
                entries.append(("expr", order_comp.compile(expr)))
            except Unsupported:
                # compiles only against the output row; a source-scoped
                # or aggregate key has to be a copy of an output column
                position = _order_position(expr, select, frame, out_frame)
                if position is None:
                    raise
                entries.append(("pos", position))
    vp.order_entries = entries
    return vp


def _column_slot(
    frame: Frame, expr: ast.Expression
) -> Optional[Tuple[int, int]]:
    if not isinstance(expr, ast.ColumnRef):
        return None
    try:
        return frame.lookup(expr.qualifier, expr.name)
    except CatalogError:
        return None


def _order_position(
    expr: ast.Expression, select: ast.Select, frame: Frame, out_frame: Frame
) -> Optional[int]:
    """The 1-based output position an ORDER BY key duplicates, if any.

    The row executor evaluates a key none of whose columns is an
    output name in the source scope of the same row — where it equals
    a select item that is the same expression or the same source
    column (``SELECT h.item, .. ORDER BY h.item``)."""
    for node in ast.walk_expression(expr):
        if isinstance(
            node,
            (ast.SequenceNextval, ast.InSubquery, ast.Exists,
             ast.ScalarSubquery),
        ):
            return None
        if isinstance(node, ast.ColumnRef):
            try:
                if out_frame.lookup(node.qualifier, node.name) is not None:
                    return None
            except CatalogError:
                return None
    slot = _column_slot(frame, expr)
    position = 0
    for item in select.items:
        if isinstance(item.expr, ast.Star):
            for src_idx, col_idx, _ in frame.star_columns(item.expr.qualifier):
                position += 1
                if slot == (src_idx, col_idx):
                    return position
            continue
        position += 1
        # repr, not ==: as dataclass fields 1, 1.0 and TRUE are equal
        if repr(item.expr) == repr(expr) or (
            slot is not None and _column_slot(frame, item.expr) == slot
        ):
            return position
    return None
