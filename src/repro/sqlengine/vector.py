"""The plan of a SELECT and its batch-at-a-time execution over column
vectors: the engine's one executor.

The planner (:mod:`repro.sqlengine.planner`) builds one tree of
:class:`PlanNode` per SELECT block, under a :class:`SelectPlan`; each
node both plans and runs over whole columns: a filter evaluates its
predicate over a column batch and gathers the surviving positions, a
hash join builds and probes on key *lists*, an aggregate reduces
argument columns per group.  The unit of work is a :class:`_Batch` — a
list of parallel columns, one per flat column of the node's frame.
Every expression node lowers to a kernel (:class:`_Compiler`);
DELETE, UPDATE and INSERT ... VALUES run the same kernels.

Columns travel as the table stores them (:meth:`Table.column_lists`):
an ``array`` is a NULL-free int / float column, so ``IS [NOT] NULL``
answers it as one value; a :class:`~repro.sqlengine.columnar.Coded`
column is a str column's dictionary codes, which gathers, DISTINCT,
GROUP BY, equi-join keys (two dictionaries meet by translating the
build side's distinct values into the probe side's codes once) and
``IS [NOT] NULL`` use as they are; anything else is a list.  Values
are decoded only where a column reference is compiled into an
expression (:meth:`_Compiler._resolve`) and where a result leaves the
engine: ``INSERT ... SELECT`` appends arrays and codes unread.

Semantics
---------

Each kernel keeps the SQL semantics the sqlite3 oracle checks
(``tests/property/test_sqlite_differential.py``):

* *Typed kernels only where types are proven.*  Tables coerce every
  stored value to the column's declared SQL type
  (:func:`repro.sqlengine.types.coerce`), so a declared ``INTEGER``
  column holds only ``int``/``None`` — comparisons can use raw Python
  operators.  Untyped columns get the ``'any'`` dtype whose kernels
  call :func:`~repro.sqlengine.evaluator.compare` and ``_arith``
  element-wise; a view or derived table (:class:`SubplanSource`) hands its
  parent the dtypes its own select list proved.
* *Lazy masking for short-circuit forms.*  ``AND``/``OR``, ``CASE``,
  ``COALESCE``, the items of a non-constant ``IN`` list and a
  ``LIKE ... ESCAPE`` operand run only on the rows the earlier
  operands left undecided, so an error in an untaken operand never
  fails a statement.
* *Errors at execution only.*  A malformed sub-expression (unknown
  function or column, bad arity, an aggregate outside a group, an
  invalid LIKE escape) lowers to a kernel that raises when a row
  reaches it; building a plan raises nothing about the query.
* *Subqueries* are planned once against the enclosing scope.  A column
  the inner frame does not resolve becomes an outer reference: the
  enclosing kernel evaluates it, and the inner plan runs once per
  distinct tuple of those values, each run with its own binding
  (``_Ctx.outer``) — never state on the shared, cached plan.
* *NEXTVAL* occurrences that every row of one clause evaluates draw
  ``k·n`` values at once and deal them out ``[j::k]``, the row-major
  order; an occurrence only some rows reach raises.

Joins, grouping and DISTINCT run as a few builtin passes over column
lists (``dict``/``zip``/``map``/``Counter``), the kernel picked from
what the input shows: a hash join whose build keys are NULL-free and
distinct probes one dict lookup per row (``probe=unique`` in EXPLAIN
ANALYZE), any other emits bucket lists (``probe=buckets``), and one
whose residual compares a NULL- and NaN-free column of each side
bisects each bucket sorted by that column (``probe=band``, keyless
joins too when the comparison is their whole residual); grouping with
no aggregate but ``COUNT(*)`` keeps no member lists.  Every kernel
emits rows in first-appearance, left-major order — which is
load-bearing: ``NEXTVAL`` numbers groups and items (Gid, Bid) in it,
and the core numbers its slots in the order of Q7's cluster couples.

When a statement raises, *which* row's error surfaces first is not
fixed: kernels evaluate an operand for every row of a batch before
moving on.

Every node holds its input in memory: a node runs once its children
have returned their whole batches, and returns a whole batch itself.
Two loops work a chunk at a time, :data:`CHUNK_ROWS` rows: a filter
evaluates its predicate over one slice of the columns it reads (so a
coded column is decoded a slice at a time, never whole), and a theta
join forms and tests one chunk of candidate pairs.  The chunk bounds
no node's input.
"""

from __future__ import annotations

import datetime
import time
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from functools import cmp_to_key
from itertools import chain, compress, repeat
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence,
    Tuple,
)

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.columnar import (
    Coded, comparable_keys, decoded, equality_keys, like, null_free, take,
    take_padded,
)
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
from repro.sqlengine.parser import AGGREGATE_NAMES
from repro.sqlengine.types import SqlType

#: rows per filter kernel pass, and candidate pairs per theta-join
#: chunk (at least one left row's); read at every run
CHUNK_ROWS = 1024

# ---------------------------------------------------------------------------
# batches, scalars, expression values
# ---------------------------------------------------------------------------


class _Batch:
    """A horizontal slice of an operator's output: parallel columns
    (one per flat frame column) plus the row count."""

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


#: a list, a NULL-free array or a :class:`Coded` str column; a batch
#: column no operator above the scan reads is never built: it travels
#: as ``None`` (see :meth:`PlanNode.require`)
Column = Optional[Sequence[Any]]


def _gather(cols: List[Column], idxs: List[int]) -> List[Column]:
    return [None if c is None else take(c, idxs) for c in cols]


def _gather_pad(cols: List[Column], idxs: List[Optional[int]]) -> List[Column]:
    """Gather allowing ``None`` = NULL (outer-join padding)."""
    return [None if c is None else take_padded(c, idxs) for c in cols]


def transpose(rows: Any, width: int) -> List[List[Any]]:
    """Row tuples to column lists."""
    if not rows:
        return [[] for _ in range(width)]
    return [list(c) for c in zip(*rows)]


class VExpr:
    """A compiled vector expression: ``fn(ctx, cols, n)`` returns a
    full-length value list (or NULL-free array) or a :class:`_Scalar`;
    ``used`` names the flat column indices the kernel reads (for masked
    evaluation).  ``raw`` is the flat index when the expression is a
    bare column of its own layout: an operator that moves or compares
    values reads ``cols[raw]`` as stored, codes and all."""

    __slots__ = ("fn", "dtype", "used", "raw")

    def __init__(self, fn: Callable, dtype: str, used: frozenset,
                 raw: Optional[int] = None):
        self.fn = fn
        self.dtype = dtype
        self.used = used
        self.raw = raw


def _raw(vexpr: VExpr, ctx: "_Ctx", cols: List[Any], n: int) -> Any:
    """*vexpr* over a batch, a bare column as stored."""
    if vexpr.raw is not None:
        return cols[vexpr.raw]
    return _as_list(vexpr.fn(ctx, cols, n), n)


class _Ctx:
    """Per-execution state threaded through every plan node: the
    executing thread's host variables, a subquery run's outer binding,
    and what one execution memoizes (subquery results, NEXTVAL draws).
    A cached plan is shared by threads; its state lives here."""

    __slots__ = (
        "db", "params", "collector", "outer", "memo", "probe",
    )

    def __init__(self, db: Any, outer: Tuple[Any, ...] = ()):
        self.db = db
        self.params = db._params
        self.collector = db._analyze
        #: the enclosing query's values a subquery run reads
        self.outer = outer
        self.memo: Dict[Any, Any] = {}
        #: the probe kernel of the join that just ran, for EXPLAIN
        #: ANALYZE
        self.probe: Optional[str] = None


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
    """Column dtypes a kernel may trust: a table coerces every write to
    its declared types, so a declared type is a fact; an undeclared
    column stays ``'any'``."""
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
        if null_free(lv) and null_free(rv):
            return list(map(opfn, lv, rv))
        return [
            None if a is None or b is None else opfn(a, b)
            for a, b in zip(lv, rv)
        ]
    return [compare(op, a, b) for a, b in zip(lv, rv)]


def _numeric_scalar(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _arith_values(op: str, lv: Any, rv: Any, ldt: str, rdt: str) -> Any:
    """Apply ``+ - * / %`` over batch values: NULL in, NULL out, and
    :func:`_arith`'s error semantics."""
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
    sub: List[Column] = [None] * len(cols)
    for u in used:
        sub[u] = take(cols[u], idxs)
    return sub


def _eval_on(
    vexpr: VExpr, ctx: _Ctx, cols: List[Any], n: int, idxs: Sequence[int]
) -> List[Any]:
    """*vexpr* over the rows at *idxs* (ascending) only: the lazy
    evaluation of an operand the earlier ones did not decide."""
    m = len(idxs)
    if m == n:
        return _as_list(vexpr.fn(ctx, cols, n), n)
    return _as_list(vexpr.fn(ctx, _mask_gather(cols, vexpr.used, idxs), m), m)


def _raising(cls: type, message: str) -> VExpr:
    """A malformed sub-expression: a kernel that raises when a row
    reaches it."""

    def fn(ctx, cols, n):
        if n:
            raise cls(message)
        return []

    return VExpr(fn, "any", frozenset())


def _union_used(vexprs: Iterable[VExpr]) -> frozenset:
    return frozenset().union(*(v.used for v in vexprs))


def _membership(value: Any, candidates: Iterable[Any], negated: bool) -> Any:
    """``value [NOT] IN candidates`` under three-valued logic; stops at
    the first match."""
    saw_null = False
    for candidate in candidates:
        result = compare("=", value, candidate)
        if result is True:
            return not negated
        if result is None:
            saw_null = True
    return None if saw_null else negated


def _one_column(cols: List[Any], n: int, what: str) -> List[Any]:
    if n and len(cols) != 1:
        raise ExecutionError(f"{what} must return one column")
    return decoded(cols[0]) if n else []


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
    columns in a :class:`GroupAggregate` output batch."""

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


class _SeqDraw:
    """The NEXTVAL occurrences of one sequence in one clause: each of
    the ``k`` takes its ``[j::k]`` share of one ``k·n`` draw, the order
    in which evaluating the clause row by row would number them."""

    __slots__ = ("k",)

    def __init__(self) -> None:
        self.k = 0


class _Outer:
    """What a subquery reads of its enclosing query.  Each value (a
    column, or an aggregate of the enclosing group) is compiled in the
    enclosing compiler — a kernel over the enclosing batch — and the
    inner plan reads it from its run's binding, ``ctx.outer[slot]``."""

    def __init__(self, compiler: "_Compiler"):
        self.compiler = compiler
        #: one kernel per binding slot
        self.refs: List[VExpr] = []
        self._slots: Dict[str, int] = {}

    def column(self, expr: ast.ColumnRef) -> Optional[VExpr]:
        found = self.compiler._resolve(expr)
        return None if found is None else self._bind(expr, found)

    def aggregate(self, expr: ast.FunctionCall) -> VExpr:
        return self._bind(expr, self.compiler._aggregate(expr))

    def _bind(self, expr: ast.Expression, vexpr: VExpr) -> VExpr:
        key = repr(expr)
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = len(self.refs)
            self.refs.append(vexpr)
        return VExpr(
            lambda ctx, cols, n: _Scalar(ctx.outer[slot]),
            vexpr.dtype,
            frozenset(),
        )


class _Compiler:
    """Lowers AST expressions to :class:`VExpr` kernels over one flat
    column layout.  Total: every expression node lowers, a malformed
    one to a kernel that raises when a row reaches it.

    The layout is *frame*'s columns, preceded by the output columns
    when *out_frame* is given: an ORDER BY key sees the output names
    first, then the source.  A name neither resolves is read from the
    *outer* query (the compiler plans a subquery)."""

    def __init__(
        self,
        frame: Frame,
        dtypes: Sequence[str],
        db: Any,
        groups: Optional[_GroupContext] = None,
        sibling: Optional["_Compiler"] = None,
        outer: Optional[_Outer] = None,
        out_frame: Optional[Frame] = None,
    ):
        self._db = db
        self._dtypes = list(dtypes)
        #: group context when compiling HAVING / post-group projections
        self._groups = groups
        #: the pre-group compiler aggregate arguments compile through
        self._sibling = sibling
        self._outer = outer
        self._layers: List[Tuple[Frame, int, List[int]]] = []
        #: flat index of the frame's first column
        self._base = 0
        if out_frame is not None:
            self._layers.append((out_frame, 0, [0]))
            self._base = len(out_frame.sources[0][1])
        self._layers.append((frame, self._base, _frame_offsets(frame)))
        #: no row scope at all (LIMIT, INSERT ... VALUES)
        self._rowless = outer is None and not any(
            layer[0].sources for layer in self._layers
        )
        #: > 0 while compiling an operand only some rows evaluate
        self._conditional = 0
        self._draws: Dict[str, _SeqDraw] = {}

    def clause(self) -> "_Compiler":
        """Start a new clause: NEXTVAL deals its values among the
        occurrences of one clause."""
        self._draws = {}
        return self

    def compile(self, expr: ast.Expression) -> VExpr:
        return self._DISPATCH[type(expr)](self, expr)

    def _lazy(self, expr: ast.Expression) -> VExpr:
        """Compile an operand only some rows evaluate."""
        self._conditional += 1
        try:
            return self.compile(expr)
        finally:
            self._conditional -= 1

    def _dtype(self, flat: int) -> str:
        return self._dtypes[flat] if flat < len(self._dtypes) else "any"

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
        found = self._resolve(expr)
        if found is not None:
            return found
        if self._rowless:
            return _raising(
                ExecutionError, f"column reference {expr} outside row context"
            )
        target = f"{expr.qualifier}.{expr.name}" if expr.qualifier else expr.name
        return _raising(CatalogError, f"unknown column reference: {target!r}")

    def _resolve(self, expr: ast.ColumnRef) -> Optional[VExpr]:
        """The kernel reading *expr* in this scope or an enclosing one;
        None when no scope has the name."""
        for frame, base, offsets in self._layers:
            try:
                hit = frame.lookup(expr.qualifier, expr.name)
            except CatalogError as exc:
                return _raising(CatalogError, str(exc))
            if hit is not None:
                flat = base + offsets[hit[0]] + hit[1]
                return VExpr(
                    lambda ctx, cols, n: decoded(cols[flat]),
                    self._dtype(flat),
                    frozenset((flat,)),
                    flat,
                )
        return None if self._outer is None else self._outer.column(expr)

    def _nextval(self, expr: ast.SequenceNextval) -> VExpr:
        sequence = expr.sequence
        if self._conditional or self._outer is not None:
            return _raising(
                ExecutionError,
                f"{sequence}.NEXTVAL is supported only where every row of "
                "its clause evaluates it (not in CASE, AND/OR, COALESCE, "
                "IN, an aggregate or a subquery)",
            )
        draw = self._draws.setdefault(sequence.lower(), _SeqDraw())
        j = draw.k
        draw.k += 1

        def fn(ctx, cols, n):
            if not n:
                return []
            k = draw.k
            nextvals = ctx.db.catalog.get_sequence(sequence).nextvals
            if k == 1:
                return list(nextvals(n))
            if j == 0:
                ctx.memo[draw] = list(nextvals(k * n))
            return ctx.memo[draw][j::k]

        return VExpr(fn, "int", frozenset())

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
        ldt, rdt = left.dtype, right.dtype

        def fn_arith(ctx, cols, n):
            return _arith_values(
                op, left.fn(ctx, cols, n), right.fn(ctx, cols, n), ldt, rdt,
            )

        return VExpr(fn_arith, _arith_dtype(op, ldt, rdt), used)

    def _logical(self, op: str, left_e, right_e) -> VExpr:
        """AND/OR short-circuit at row granularity: the right operand
        runs only on undecided rows."""
        left = self.compile(left_e)
        right = self._lazy(right_e)
        used = left.used | right.used
        is_and = op == "AND"
        combine = tvl_and if is_and else tvl_or
        decided = False if is_and else True

        def fn(ctx, cols, n):
            lt = [_truth(v) for v in _as_list(left.fn(ctx, cols, n), n)]
            idxs = [i for i, v in enumerate(lt) if v is not decided]
            out: List[Any] = [decided] * n
            if idxs:
                rv = _eval_on(right, ctx, cols, n, idxs)
                for i, v in zip(idxs, rv):
                    out[i] = combine(lt[i], _truth(v))
            return out

        return VExpr(fn, "bool", used)

    def _unary(self, expr: ast.UnaryOp) -> VExpr:
        operand = self.compile(expr.operand)
        op = expr.op
        if op == "NOT":

            def fn_not(ctx, cols, n):
                value = operand.fn(ctx, cols, n)
                if isinstance(value, _Scalar):
                    return _Scalar(tvl_not(_truth(value.value)))
                return [tvl_not(_truth(v)) for v in value]

            return VExpr(fn_not, "bool", operand.used)

        def one(v):
            if v is None:
                return None
            if op != "-":
                raise ExecutionError(f"unknown unary operator {op!r}")
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise SqlTypeError(f"cannot negate {v!r}")
            return -v

        def fn(ctx, cols, n):
            value = operand.fn(ctx, cols, n)
            if isinstance(value, _Scalar):
                return _Scalar(one(value.value))
            return [one(v) for v in value]

        dtype = operand.dtype if operand.dtype in ("int", "float") else "any"
        return VExpr(fn, dtype, operand.used)

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
        negated = expr.negated
        if all(isinstance(item, ast.Literal) for item in expr.items):
            return self._in_constants(value, expr, negated)
        # item j runs only on the rows items 0..j-1 left unmatched
        items = [
            self.compile(item) if j == 0 else self._lazy(item)
            for j, item in enumerate(expr.items)
        ]
        hit = not negated

        def fn(ctx, cols, n):
            vv = _as_list(value.fn(ctx, cols, n), n)
            out: List[Any] = [negated] * n
            pending: Sequence[int] = range(n)
            for item in items:
                if not pending:
                    break
                unmatched = []
                for i, c in zip(pending, _eval_on(item, ctx, cols, n, pending)):
                    result = compare("=", vv[i], c)
                    if result is True:
                        out[i] = hit
                        continue
                    if result is None:
                        out[i] = None
                    unmatched.append(i)
                pending = unmatched
            return out

        return VExpr(fn, "bool", value.used | _union_used(items))

    def _in_constants(self, value: VExpr, expr: ast.InList, negated) -> VExpr:
        items = [item.value for item in expr.items]
        vdt = value.dtype
        fast_set = (
            frozenset(items)
            if items and all(_clean_scalar(vdt, item) for item in items)
            else None
        )

        def fn(ctx, cols, n):
            vv = value.fn(ctx, cols, n)
            if isinstance(vv, _Scalar):
                return _Scalar(_membership(vv.value, items, negated))
            if fast_set is not None:
                if negated:
                    return [
                        None if v is None else v not in fast_set for v in vv
                    ]
                return [None if v is None else v in fast_set for v in vv]
            return [_membership(v, items, negated) for v in vv]

        return VExpr(fn, "bool", value.used)

    def _like(self, expr: ast.Like) -> VExpr:
        value = self.compile(expr.expr)
        negated = expr.negated
        pattern_e, escape_e = expr.pattern, expr.escape
        if (
            isinstance(pattern_e, ast.Literal)
            and isinstance(pattern_e.value, str)
            and (escape_e is None or isinstance(escape_e, ast.Literal))
        ):
            return self._like_constant(value, pattern_e.value, escape_e, negated)
        # a pattern per row: one regex per distinct (pattern, escape)
        pattern = self.compile(pattern_e)
        escape = self._lazy(escape_e) if escape_e is not None else None
        used = value.used | pattern.used | (
            escape.used if escape is not None else frozenset()
        )

        def fn(ctx, cols, n):
            vv = _as_list(value.fn(ctx, cols, n), n)
            pv = _as_list(pattern.fn(ctx, cols, n), n)
            out: List[Any] = [None] * n
            idxs = [
                i for i in range(n) if vv[i] is not None and pv[i] is not None
            ]
            for i in idxs:
                if not isinstance(vv[i], str) or not isinstance(pv[i], str):
                    raise SqlTypeError("LIKE requires string operands")
            escapes: Iterable[Any] = (
                repeat(None) if escape is None
                else _eval_on(escape, ctx, cols, n, idxs)
            )
            for i, esc in zip(idxs, escapes):
                if escape is not None:
                    if esc is None:
                        continue
                    esc = _escape_char(esc)
                result = bool(_like_to_regex(pv[i], esc).match(vv[i]))
                out[i] = not result if negated else result
            return out

        return VExpr(fn, "bool", used)

    def _like_constant(self, value: VExpr, pattern: str, escape_e, negated):
        if escape_e is not None and escape_e.value is None:
            # LIKE ... ESCAPE NULL is NULL for every row
            return VExpr(
                lambda ctx, cols, n: _Scalar(None), "bool", value.used
            )
        try:
            escape = (
                _escape_char(escape_e.value) if escape_e is not None else None
            )
            regex = _like_to_regex(pattern, escape)
        except SqlError as exc:
            return _raising(type(exc), str(exc))
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
        raw = value.raw

        def fn(ctx, cols, n):
            vv = value.fn(ctx, cols, n) if raw is None else cols[raw]
            if isinstance(vv, _Scalar):
                result = vv.value is None
                return _Scalar(not result if negated else result)
            if type(vv) is Coded:
                vv = vv.codes
                if -1 not in vv:
                    return _Scalar(negated)
                test = _op.ne if negated else _op.eq
                return list(map(test, vv, repeat(-1)))
            if null_free(vv):  # a NULL-free batch answers as one value
                return _Scalar(negated)
            test = _op.is_not if negated else _op.is_
            return list(map(test, vv, repeat(None)))

        return VExpr(fn, "bool", value.used)

    def _case(self, expr: ast.Case) -> VExpr:
        """Lazy masking: WHEN i runs only on the rows no earlier WHEN
        took, a result only on the rows its WHEN took."""
        operand = (
            self.compile(expr.operand) if expr.operand is not None else None
        )
        whens = [
            (self.compile(cond) if j == 0 else self._lazy(cond),
             self._lazy(result))
            for j, (cond, result) in enumerate(expr.whens)
        ]
        else_ = self._lazy(expr.else_) if expr.else_ is not None else None
        results = [result for _, result in whens]
        if else_ is not None:
            results.append(else_)
        dtypes = {result.dtype for result in results}
        used = _union_used(
            [cond for cond, _ in whens] + results
            + ([operand] if operand is not None else [])
        )

        def fn(ctx, cols, n):
            out: List[Any] = [None] * n
            ov = (
                _as_list(operand.fn(ctx, cols, n), n)
                if operand is not None else None
            )
            pending: Sequence[int] = range(n)
            for cond, result in whens:
                if not pending:
                    break
                cv = _eval_on(cond, ctx, cols, n, pending)
                if ov is None:
                    taken = [v is True for v in cv]
                else:
                    taken = [
                        compare("=", ov[i], v) is True
                        for i, v in zip(pending, cv)
                    ]
                hits = list(compress(pending, taken))
                if hits:
                    for i, v in zip(hits, _eval_on(result, ctx, cols, n, hits)):
                        out[i] = v
                    pending = list(compress(pending, map(_op.not_, taken)))
            if pending and else_ is not None:
                for i, v in zip(pending, _eval_on(else_, ctx, cols, n, pending)):
                    out[i] = v
            return out

        return VExpr(fn, dtypes.pop() if len(dtypes) == 1 else "any", used)

    # -- subqueries -------------------------------------------------------

    def _subquery(
        self, select: ast.Select, reduce: Callable, dtype: str = "any"
    ) -> VExpr:
        """*select* planned once against this scope.  The kernel runs it
        once per distinct tuple of the outer values it reads — once per
        execution when it reads none — and maps each result through
        *reduce*."""
        outer = _Outer(self)
        db = self._db
        try:
            plan = db._select_plan(select, outer)
        except SqlError as exc:
            return _raising(type(exc), str(exc))
        refs = outer.refs

        def run(ctx, key):
            # 1 and 1.0 bind alike but may answer differently
            memo_key = (plan, tuple(map(type, key)), key)
            memo = ctx.memo
            if memo_key not in memo:
                memo[memo_key] = reduce(*plan.run(db, key))
            return memo[memo_key]

        def fn(ctx, cols, n):
            if not n:
                return []
            if not refs:
                return _Scalar(run(ctx, ()))
            lists = [_as_list(ref.fn(ctx, cols, n), n) for ref in refs]
            return [run(ctx, key) for key in zip(*lists)]

        return VExpr(fn, dtype, _union_used(refs))

    def _scalar_subquery(self, expr: ast.ScalarSubquery) -> VExpr:
        def reduce(cols, n):
            if not n:
                return None
            if n > 1:
                raise ExecutionError(
                    "scalar subquery returned more than one row"
                )
            return _one_column(cols, n, "scalar subquery")[0]

        return self._subquery(expr.select, reduce)

    def _exists(self, expr: ast.Exists) -> VExpr:
        negated = expr.negated
        return self._subquery(
            expr.subquery, lambda cols, n: (n > 0) != negated, "bool"
        )

    def _in_subquery(self, expr: ast.InSubquery) -> VExpr:
        value = self.compile(expr.expr)
        negated = expr.negated
        found = self._subquery(
            expr.subquery,
            lambda cols, n: _one_column(cols, n, "IN subquery"),
        )

        def fn(ctx, cols, n):
            vv = _as_list(value.fn(ctx, cols, n), n)
            return [
                _membership(v, values, negated)
                for values, v in zip(_as_list(found.fn(ctx, cols, n), n), vv)
            ]

        return VExpr(fn, "bool", value.used | found.used)

    # -- functions --------------------------------------------------------

    def _function(self, expr: ast.FunctionCall) -> VExpr:
        name = expr.name
        if name in AGGREGATE_NAMES or expr.star:
            return self._aggregate(expr)
        if name == "COALESCE":
            return self._coalesce(expr)
        if name == "NULLIF":
            if len(expr.args) != 2:
                return _raising(ExecutionError, "NULLIF takes two arguments")
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
        impl = SCALAR_FUNCTIONS.get(name)
        if impl is None:
            return _raising(ExecutionError, f"unknown function {name!r}")
        args = [self.compile(arg) for arg in expr.args]
        dtype = _FN_DTYPE.get(name, "any")

        def fn(ctx, cols, n):
            vals = [a.fn(ctx, cols, n) for a in args]
            if all(isinstance(v, _Scalar) for v in vals):
                return _Scalar(impl([v.value for v in vals]))
            lists = [_as_list(v, n) for v in vals]
            return [impl(list(row)) for row in zip(*lists)] if lists else [
                impl([]) for _ in range(n)
            ]

        return VExpr(fn, dtype, _union_used(args))

    def _coalesce(self, expr: ast.FunctionCall) -> VExpr:
        # argument k runs only on the rows the first k-1 left NULL
        args = [
            self.compile(arg) if k == 0 else self._lazy(arg)
            for k, arg in enumerate(expr.args)
        ]

        def fn(ctx, cols, n):
            out: List[Any] = [None] * n
            pending: Sequence[int] = range(n)
            for arg in args:
                if not pending:
                    break
                still: List[int] = []
                for i, v in zip(pending, _eval_on(arg, ctx, cols, n, pending)):
                    if v is None:
                        still.append(i)
                    else:
                        out[i] = v
                pending = still
            return out

        return VExpr(fn, "any", _union_used(args))

    def _aggregate(self, expr: ast.FunctionCall) -> VExpr:
        name = expr.name
        gctx = self._groups
        if gctx is None:
            # the group of the nearest enclosing query that has one
            if self._outer is not None:
                return self._outer.aggregate(expr)
            return _raising(
                ExecutionError,
                f"aggregate {name} used outside GROUP BY context",
            )
        if expr.star:
            if name != "COUNT":
                return _raising(ExecutionError, f"{name}(*) is not valid")
            slot = _AggSlot("COUNT", True, False, None, "int")
        else:
            if len(expr.args) != 1:
                return _raising(
                    ExecutionError, f"{name} takes exactly one argument"
                )
            arg = self._sibling._lazy(expr.args[0])
            slot = _AggSlot(
                name,
                False,
                expr.distinct,
                arg,
                _agg_dtype(name, False, arg.dtype),
            )
        flat = gctx.add(slot) + self._base
        return VExpr(
            lambda ctx, cols, n: cols[flat],
            slot.dtype,
            frozenset((flat,)),
        )

    # -- misc -------------------------------------------------------------

    def _cast(self, expr: ast.Cast) -> VExpr:
        value = self.compile(expr.expr)
        target = expr.target
        # CAST is more lenient than assignment coercion
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

        def fn(ctx, cols, n):
            vals = [i.fn(ctx, cols, n) for i in items]
            if all(isinstance(v, _Scalar) for v in vals):
                return _Scalar(tuple(v.value for v in vals))
            lists = [_as_list(v, n) for v in vals]
            return [tuple(row) for row in zip(*lists)]

        return VExpr(fn, "any", _union_used(items))

    def _star(self, expr: ast.Star) -> VExpr:
        return _raising(
            ExecutionError, "'*' is only valid in a select list or COUNT(*)"
        )

    _DISPATCH: Dict[type, Callable[..., VExpr]] = {}


_Compiler._DISPATCH = {
    ast.Literal: _Compiler._literal,
    ast.HostVar: _Compiler._hostvar,
    ast.ColumnRef: _Compiler._column,
    ast.SequenceNextval: _Compiler._nextval,
    ast.BinaryOp: _Compiler._binary,
    ast.UnaryOp: _Compiler._unary,
    ast.FunctionCall: _Compiler._function,
    ast.Between: _Compiler._between,
    ast.InList: _Compiler._in_list,
    ast.InSubquery: _Compiler._in_subquery,
    ast.Exists: _Compiler._exists,
    ast.Like: _Compiler._like,
    ast.IsNull: _Compiler._is_null,
    ast.Case: _Compiler._case,
    ast.Cast: _Compiler._cast,
    ast.ScalarSubquery: _Compiler._scalar_subquery,
    ast.TupleExpr: _Compiler._tuple,
    ast.Star: _Compiler._star,
}


# ---------------------------------------------------------------------------
# plan nodes
# ---------------------------------------------------------------------------


class PlanNode:
    """One node of a SELECT block's plan tree: its output :attr:`frame`
    (one source per joined table, so column references keep their
    qualifiers), the AST EXPLAIN renders, the kernels it runs and the
    :attr:`dtypes` its output columns are proven to have.  The planner
    builds it, compiling its expressions as it goes.  A plan is shared
    by threads: a run's rows and probe kernel go to its
    :class:`_Ctx` and EXPLAIN ANALYZE's collector, never onto a node."""

    frame: Frame
    dtypes: List[str]

    def run(self, ctx: _Ctx) -> _Batch:
        collector = ctx.collector
        if collector is None:
            return self._execute(ctx)
        started = time.perf_counter()
        batch = self._execute(ctx)
        elapsed = time.perf_counter() - started
        collector.record(self, batch.n, elapsed, ctx.probe)
        ctx.probe = None
        return batch

    def _execute(self, ctx: _Ctx) -> _Batch:
        """The output batch; a join sets ``ctx.probe`` after its
        children have run."""
        raise NotImplementedError

    def require(self, flats: frozenset) -> None:
        """Told once, at build time, which of this node's output
        columns (flat indices) the operators above read.  Inner nodes
        add what their own expressions read and pass the set down;
        scans build only those columns."""


class SingleRow(PlanNode):
    """The source of a SELECT without FROM: one row of no columns."""

    def __init__(self) -> None:
        self.frame = Frame([])
        self.dtypes = []

    def _execute(self, ctx: _Ctx) -> _Batch:
        return _Batch([], 1)


class TableScan(PlanNode):
    """Full scan of a base table under a binding name: the columns the
    plan reads, decoded from the table's vectors on every execution (a
    cached plan pins no copy of its table)."""

    def __init__(self, table: Any, binding: str):
        self.table = table
        self.binding = binding
        self.frame = Frame.single(binding, table.columns)
        self.dtypes = _table_dtypes(table)
        self._needed: List[int] = []

    def require(self, flats: frozenset) -> None:
        self._needed = sorted(flats)

    def _execute(self, ctx: _Ctx) -> _Batch:
        table = self.table
        n = len(table)
        return _Batch(table.column_lists(self._needed), n)


class IndexLookup(PlanNode):
    """Equality lookup through a secondary hash index (the pushed-down
    access path).  ``key_exprs`` read no column of the table —
    constants, host variables, an enclosing query's columns — so they
    are evaluated once per execution."""

    def __init__(
        self, table: Any, binding: str, index: Any,
        key_exprs: List[ast.Expression], db: Any, outer: Optional[_Outer],
    ):
        self.table = table
        self.binding = binding
        self.index = index
        self.key_exprs = key_exprs
        self.frame = Frame.single(binding, table.columns)
        self.dtypes = _table_dtypes(table)
        comp = _Compiler(Frame([]), [], db, outer=outer)
        self._keys = [comp.compile(k) for k in key_exprs]

    def _execute(self, ctx: _Ctx) -> _Batch:
        key = tuple(_as_list(k.fn(ctx, [], 1), 1)[0] for k in self._keys)
        width = len(self.table.columns)
        if any(value is None for value in key):
            return _Batch([[] for _ in range(width)], 0)
        rows = self.index.lookup(key)
        return _Batch(transpose(rows, width), len(rows))


class SubplanSource(PlanNode):
    """A view or derived table: the nested SELECT's own cached plan,
    run when the parent runs, its output columns handed over as they
    are with the dtypes its select list proved.  Derived tables are
    uncorrelated: the nested SELECT never sees the enclosing query's
    columns."""

    def __init__(self, binding: Optional[str], plan: "SelectPlan"):
        self.binding = binding
        self.plan = plan
        self.frame = Frame.single(binding, plan.columns)
        self.dtypes = list(plan.dtypes)

    def _execute(self, ctx: _Ctx) -> _Batch:
        cols, n = self.plan.run(ctx.db)
        return _Batch(cols, n)


class Filter(PlanNode):
    """Keeps the rows whose predicate is TRUE: evaluates it in chunks
    of :data:`CHUNK_ROWS` (touching only the columns it reads) and
    gathers the surviving positions."""

    def __init__(
        self, child: PlanNode, predicate: ast.Expression, db: Any,
        outer: Optional[_Outer],
    ):
        self.child = child
        self.predicate = predicate
        self.frame = child.frame
        self.dtypes = child.dtypes
        self._pred = _Compiler(
            child.frame, child.dtypes, db, outer=outer
        ).compile(predicate)

    def require(self, flats: frozenset) -> None:
        self.child.require(flats | self._pred.used)

    def _execute(self, ctx: _Ctx) -> _Batch:
        batch = self.child.run(ctx)
        cols = batch.cols
        n = batch.n
        pred = self._pred
        size = CHUNK_ROWS
        sel: List[int] = []
        for start in range(0, n, size):
            end = min(start + size, n)
            span = end - start
            sub: List[Optional[List[Any]]] = [None] * len(cols)
            for u in pred.used:
                sub[u] = cols[u][start:end]
            vals = pred.fn(ctx, sub, span)
            if isinstance(vals, _Scalar):
                if vals.value is True:
                    sel.extend(range(start, end))
            else:
                sel.extend(compress(
                    range(start, end), map(_op.is_, vals, repeat(True))
                ))
        if len(sel) == n:
            return _Batch(cols, n)
        return _Batch(_gather(cols, sel), len(sel))


class HashJoin(PlanNode):
    """Equi-join on key lists: builds positions on the right input,
    probes the left in order (left-major output, bucket order within a
    key — the row-major emission order).  ``left_keys`` /
    ``right_keys`` are expressions over the respective child frames;
    rows with any NULL key never match (SQL equality).  A join without
    keys tests its candidate pairs a chunk at a time
    (:meth:`_theta_pairs`).

    A residual conjunct that compares a bare column of each side
    (``<``, ``<=``, ``>``, ``>=``) is a *band*: where both compared
    columns hold no NULL and no NaN, each bucket is sorted once by its
    compared value and a probe bisects it (:meth:`_band_pairs`), so
    the pairs the band rejects are never formed.  A join without keys
    takes that probe when its whole residual is the band.

    Materialization is late: the pairs are found on the key columns
    alone, the ``residual`` is evaluated on candidate pairs gathered
    only for the columns it reads, and only the columns the operators
    above read (:meth:`require`) are gathered, once, at the surviving
    pairs."""

    #: LEFT OUTER: every left row without a surviving pair is emitted
    #: once with a NULL right side
    outer = False

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        left_keys: List[ast.Expression],
        right_keys: List[ast.Expression],
        residual: Optional[ast.Expression],
        db: Any,
        outer: Optional[_Outer],
    ):
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.residual = residual
        self.frame = left.frame.combine(right.frame)
        self.dtypes = left.dtypes + right.dtypes
        lcomp = _Compiler(left.frame, left.dtypes, db, outer=outer)
        rcomp = _Compiler(right.frame, right.dtypes, db, outer=outer)
        self._lkeys = [lcomp.compile(k) for k in left_keys]
        self._rkeys = [rcomp.compile(k) for k in right_keys]
        self._residual = None if residual is None else _Compiler(
            self.frame, self.dtypes, db, outer=outer
        ).compile(residual)
        #: the residual's band term (a keyless join's only when it is
        #: the whole residual) and the kernel of its other conjuncts,
        #: which run on the band's pairs only
        band, rest = _band_term(
            ast.split_conjuncts(residual), self.frame, self.dtypes,
            len(left.dtypes),
        )
        self._band = band if self._lkeys or not rest else None
        self._rest = None if self._band is None or not rest else _Compiler(
            self.frame, self.dtypes, db, outer=outer
        )._lazy(ast.conjoin(rest))
        self._needed: frozenset = frozenset()

    def require(self, flats: frozenset) -> None:
        self._needed = flats
        if self._residual is not None:
            flats = flats | self._residual.used
        split = len(self.left.dtypes)
        self.left.require(frozenset().union(
            (f for f in flats if f < split),
            *(k.used for k in self._lkeys),
        ))
        self.right.require(frozenset().union(
            (f - split for f in flats if f >= split),
            *(k.used for k in self._rkeys),
        ))

    def _execute(self, ctx: _Ctx) -> _Batch:
        # build side first, like the row-major order it reproduces
        rbatch = self.right.run(ctx)
        lbatch = self.left.run(ctx)
        pairs = None
        if self._band is not None:
            pairs = self._band_pairs(ctx, lbatch, rbatch)
        if pairs is None:
            if self._lkeys:
                pairs = self._equi_pairs(ctx, lbatch, rbatch)
            else:
                pairs = self._theta_pairs(ctx, lbatch, rbatch)
        lefts, rights = pairs
        cols = self._columns(lbatch, rbatch, lefts, rights, self._needed)
        return _Batch(cols, len(rights))

    def _key_lists(
        self, ctx: _Ctx, lbatch: _Batch, rbatch: _Batch
    ) -> Tuple[List[Any], List[Any]]:
        """Both sides' key columns, ready to compare
        (:func:`comparable_keys`)."""
        return comparable_keys(
            [_raw(k, ctx, lbatch.cols, lbatch.n) for k in self._lkeys],
            [_raw(k, ctx, rbatch.cols, rbatch.n) for k in self._rkeys],
        )

    def _equi_pairs(
        self, ctx: _Ctx, lbatch: _Batch, rbatch: _Batch
    ) -> Tuple[Sequence[int], List[Optional[int]]]:
        """The (left, right) index pairs whose keys are equal and that
        the residual keeps, i-major and in build order per i."""
        lkeys, rkeys = self._key_lists(ctx, lbatch, rbatch)
        lefts, rights, probe = _join_pairs(
            lkeys, lbatch.n, rkeys, rbatch.n, self.outer
        )
        if self._residual is not None:
            lefts, rights = self._keep(
                ctx, self._residual, lbatch, rbatch, lefts, rights
            )
        ctx.probe = probe
        return lefts, rights

    def _band_pairs(
        self, ctx: _Ctx, lbatch: _Batch, rbatch: _Batch
    ) -> Optional[Tuple[Any, List[Optional[int]]]]:
        """The pairs of :meth:`_equi_pairs` (of :meth:`_theta_pairs`
        without keys, every build row in one bucket), found by the band
        probe (:func:`_band_probe`) and tested against the other
        conjuncts of the residual; the left indices are run lengths
        (:class:`_Runs`) when there are none.  None when a compared
        column holds a NULL or a NaN, which bisection cannot order:
        then the whole residual tests the candidate pairs."""
        band = self._band
        lv = _orderable(lbatch.cols[band.left])
        rv = _orderable(rbatch.cols[band.right])
        if lv is None or rv is None:
            return None
        if self._lkeys:
            lkeys, rkeys = self._key_lists(ctx, lbatch, rbatch)
            probes = _row_keys(lkeys)
            buckets = _buckets(_row_keys(rkeys), len(rkeys) == 1)
        else:
            probes = [0] * lbatch.n
            buckets = {0: list(range(rbatch.n))}
        lens, rights = _band_probe(
            probes, lv, buckets, rv, band.op, self.outer
        )
        if self._rest is None:
            lefts: Any = _Runs(lens)
        else:
            lefts, rights = self._keep(
                ctx, self._rest, lbatch, rbatch,
                list(chain.from_iterable(
                    map(repeat, range(lbatch.n), lens)
                )),
                rights,
            )
        ctx.probe = "band"
        return lefts, rights

    def _keep(
        self,
        ctx: _Ctx,
        residual: VExpr,
        lbatch: _Batch,
        rbatch: _Batch,
        lefts: Sequence[int],
        rights: List[Optional[int]],
    ) -> Tuple[Sequence[int], List[Optional[int]]]:
        """The pairs *residual* keeps.  It sees real pairs only: a
        LEFT OUTER join's padding is redone after it."""
        outer = self.outer
        if outer:
            lefts, rights = _select(
                lefts, rights, map(_op.is_not, rights, repeat(None))
            )
        if lefts:
            cols = self._columns(lbatch, rbatch, lefts, rights, residual.used)
            vals = _as_list(residual.fn(ctx, cols, len(lefts)), len(lefts))
            lefts, rights = _select(
                lefts, rights, map(_op.is_, vals, repeat(True))
            )
        if outer:
            lefts, rights = _pad(lefts, rights, range(lbatch.n))
        return lefts, rights

    def _theta_pairs(
        self, ctx: _Ctx, lbatch: _Batch, rbatch: _Batch
    ) -> Tuple[List[int], List[Optional[int]]]:
        """Every (left, right) pair the residual keeps, left-major in
        right order.  The candidates are built and tested a few left
        rows at a time — about :data:`CHUNK_ROWS` pairs, at least one
        left row's — and only the pairs that pass are kept; with ``outer``,
        a left row none of whose pairs passes gets one pair with right
        index ``None`` in its place.  Without a residual (a cross join)
        every pair is kept."""
        ln, rn = lbatch.n, rbatch.n
        residual = self._residual
        if residual is None:
            lefts = list(
                chain.from_iterable(map(repeat, range(ln), repeat(rn)))
            )
            return lefts, list(range(rn)) * ln
        if not rn:
            if self.outer:
                return list(range(ln)), [None] * ln
            return [], []
        lefts: List[int] = []
        rights: List[Optional[int]] = []
        step = max(1, CHUNK_ROWS // rn)
        for start in range(0, ln, step):
            stop = min(start + step, ln)
            cand_l = list(chain.from_iterable(
                map(repeat, range(start, stop), repeat(rn))
            ))
            cand_r: List[Optional[int]] = list(range(rn)) * (stop - start)
            span = len(cand_l)
            cols = self._columns(lbatch, rbatch, cand_l, cand_r,
                                 residual.used)
            vals = _as_list(residual.fn(ctx, cols, span), span)
            kept_l, kept_r = _select(
                cand_l, cand_r, map(_op.is_, vals, repeat(True))
            )
            if self.outer:
                kept_l, kept_r = _pad(kept_l, kept_r, range(start, stop))
            lefts.extend(kept_l)
            rights.extend(kept_r)
        return lefts, rights

    def _columns(
        self,
        lbatch: _Batch,
        rbatch: _Batch,
        lefts: Any,
        rights: Sequence[Optional[int]],
        flats: frozenset,
    ) -> List[Column]:
        """The output columns in *flats* gathered at the pairs, ``None``
        elsewhere.  A ``range`` of left indices is every left row in
        order: the left columns pass through as they are; :class:`_Runs`
        repeat each left value in place."""
        split = len(lbatch.cols)
        lcols = [c if f in flats else None for f, c in enumerate(lbatch.cols)]
        rcols = [
            c if f + split in flats else None
            for f, c in enumerate(rbatch.cols)
        ]
        if type(lefts) is _Runs:
            lcols = [
                None if c is None else _repeated(c, lefts.lens)
                for c in lcols
            ]
        elif not isinstance(lefts, range):
            lcols = _gather(lcols, lefts)
        return lcols + (_gather_pad if self.outer else _gather)(rcols, rights)


def _row_keys(key_lists: List[List[Any]]) -> List[Any]:
    """One hashable key per row: the value itself for a single key
    column, a tuple for several."""
    if len(key_lists) == 1:
        return key_lists[0]
    return list(zip(*key_lists))


#: a probe miss in a LEFT OUTER join: one pair with no right row
_PAD = (None,)


def _buckets(rk: List[Any], single: bool) -> Dict[Any, List[int]]:
    """Build positions per key, in build order; a key that is (or, of
    several columns, holds) NULL is in no bucket."""
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
    return buckets


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
    lk = _row_keys(lkeys)
    rk = _row_keys(rkeys)
    if all(map(null_free, rkeys)):
        unique = dict(zip(rk, range(rn)))
        if len(unique) == rn:
            rights = list(map(unique.get, lk))
            if outer or None not in rights:
                return range(ln), rights, "unique"
            lefts, rights = _select(
                range(ln), rights, map(_op.is_not, rights, repeat(None))
            )
            return lefts, rights, "unique"
    buckets = _buckets(rk, len(rkeys) == 1)
    found = list(map(buckets.get, lk, repeat(_PAD if outer else ())))
    lefts = list(chain.from_iterable(map(repeat, range(ln), map(len, found))))
    return lefts, list(chain.from_iterable(found)), "buckets"


class _Band:
    """A join conjunct ``left OP right`` comparing a bare column of
    each side, written left first: ``left`` / ``right`` are flat
    indices into the left / right batch."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: int, right: int):
        self.op = op
        self.left = left
        self.right = right


#: the operator that reads the same with its operands swapped
_SWAPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}

#: per band operator: how a probe value cuts its bucket's sorted right
#: values, and whether the matching run is the part above the cut
#: (``l < r`` holds for the right values past ``bisect_right(l)``)
_BAND_CUT = {
    "<": (bisect_right, True),
    "<=": (bisect_left, True),
    ">": (bisect_left, False),
    ">=": (bisect_right, False),
}


def _band_term(
    conjuncts: List[ast.Expression], frame: Frame, dtypes: List[str],
    split: int,
) -> Tuple[Optional[_Band], List[ast.Expression]]:
    """The first of a join's residual *conjuncts* that compares a
    column of the left input (flat index below *split* in *frame*)
    with one of the right, the two of one ordered type under
    :func:`_clean_pair`, and the other conjuncts; ``(None, [])`` when
    none does."""
    offsets = _frame_offsets(frame)

    def flat(expr: ast.Expression) -> Optional[int]:
        if not isinstance(expr, ast.ColumnRef):
            return None
        try:
            hit = frame.lookup(expr.qualifier, expr.name)
        except CatalogError:
            return None
        return None if hit is None else offsets[hit[0]] + hit[1]

    for k, conjunct in enumerate(conjuncts):
        if not (isinstance(conjunct, ast.BinaryOp)
                and conjunct.op in _SWAPPED):
            continue
        op, lf, rf = conjunct.op, flat(conjunct.left), flat(conjunct.right)
        if lf is None or rf is None:
            continue
        if lf >= split > rf:
            op, lf, rf = _SWAPPED[op], rf, lf
        if lf < split <= rf and _clean_pair(dtypes[lf], dtypes[rf]):
            return _Band(op, lf, rf - split), conjuncts[:k] + conjuncts[k + 1:]
    return None, []


def _orderable(col: Column) -> Optional[Sequence[Any]]:
    """The values of a band's compared column, or None when it holds a
    NULL or a NaN (the one value unequal to itself), which bisection
    cannot order."""
    if type(col) is Coded:
        return None if -1 in col.codes else col.decode()
    if type(col) is array and col.typecode == "q":
        return col
    if None in col or any(map(_op.ne, col, col)):
        return None
    return col


def _band_probe(
    probes: List[Any],
    lv: Sequence[Any],
    buckets: Dict[Any, List[int]],
    rv: Sequence[Any],
    op: str,
    outer: bool,
) -> Tuple[List[int], List[Optional[int]]]:
    """The pairs of a band join: left row ``i`` meets the positions of
    bucket ``probes[i]`` whose right value ``r`` makes ``lv[i] OP r``
    true, in build order — the order a residual filter keeps.  Each
    bucket is sorted once by its right values (stably: ties keep build
    order), a probe bisects it and sorts its run back into build
    order.  No list as long as the candidate pairs is built: the left
    side comes back as run lengths, one per left row (with ``outer``,
    a left row without a pair pairs once with ``None``)."""
    cut, above = _BAND_CUT[op]
    values: Dict[Any, List[Any]] = {}
    for key, bucket in buckets.items():
        bucket.sort(key=rv.__getitem__)
        values[key] = list(map(rv.__getitem__, bucket))
    cuts = map(cut, map(values.get, probes, repeat(())), lv)
    spans = map(slice, cuts, repeat(None)) if above else map(slice, cuts)
    runs = list(map(sorted, map(
        _op.getitem, map(buckets.get, probes, repeat(())), spans
    )))
    if outer:
        runs = [run or _PAD for run in runs]
    return list(map(len, runs)), list(chain.from_iterable(runs))


class _Runs:
    """The left indices of a join's pairs as run lengths: left row
    ``i`` pairs ``lens[i]`` times, the rows in order."""

    __slots__ = ("lens",)

    def __init__(self, lens: List[int]):
        self.lens = lens


def _repeated(col: Any, lens: List[int]) -> Any:
    """Each row of *col* repeated ``lens[i]`` times, in *col*'s
    representation."""
    return like(col, list(chain.from_iterable(
        map(repeat, equality_keys(col), lens)
    )))


def _select(
    lefts: Sequence[int],
    rights: Sequence[Optional[int]],
    mask: Iterable[Any],
) -> Tuple[List[int], List[Optional[int]]]:
    """The pairs whose *mask* entry is true."""
    mask = list(mask)
    return list(compress(lefts, mask)), list(compress(rights, mask))


def _pad(
    lefts: List[int], rights: List[Optional[int]], rows: range
) -> Tuple[List[int], List[Optional[int]]]:
    """LEFT OUTER emission from i-major pairs of the left *rows*: each
    of them without a pair gets one with right index ``None``, in
    place."""
    matched = set(lefts)
    pads = [i for i in rows if i not in matched]
    if not pads:
        return lefts, rights
    lefts = list(lefts) + pads
    rights = list(rights) + [None] * len(pads)
    # stable: the pairs of one left row keep their build order
    order = sorted(range(len(lefts)), key=lefts.__getitem__)
    return [lefts[k] for k in order], [rights[k] for k in order]



class LeftOuterHashJoin(HashJoin):
    """LEFT OUTER join: the inner join's pairs, a residual applied to
    them, and every left row left without a pair padded with NULLs in
    its place — the row-major emission order.  Without keys (``ON``
    holds no equality) the pairs come a chunk at a time, as in
    :class:`NestedLoopJoin`."""

    outer = True


class NestedLoopJoin(HashJoin):
    """Cross/theta join: no keys, so every pair is a candidate, kept
    when the optional predicate (the ``residual``) is TRUE
    (:meth:`HashJoin._theta_pairs`)."""

    def __init__(
        self, left: PlanNode, right: PlanNode,
        predicate: Optional[ast.Expression], db: Any,
        outer: Optional[_Outer],
    ):
        super().__init__(left, right, [], [], predicate, db, outer)


class GroupAggregate(PlanNode):
    """Hash grouping in first-appearance order, with slot reduction.
    The output batch carries one representative (first-member) value
    per child column, followed by one column per aggregate slot the
    block's post-group expressions allocate in :attr:`groups`; their
    arguments compile through :attr:`sibling`, over the child's
    columns.  With no GROUP BY keys (``scalar``), a single global
    group is emitted even for empty input."""

    def __init__(
        self, child: PlanNode, keys: List[ast.Expression], scalar: bool,
        db: Any, outer: Optional[_Outer],
    ):
        self.child = child
        self.keys = keys
        self.scalar = scalar
        self.frame = child.frame
        self.dtypes = child.dtypes
        self.groups = _GroupContext(len(child.dtypes))
        self.sibling = _Compiler(child.frame, child.dtypes, db, outer=outer)
        self._keys = [self.sibling.compile(k) for k in keys]

    def require(self, flats: frozenset) -> None:
        # representative columns keep their child index; slot columns
        # (appended after them) are computed here
        base = self.groups.base_width
        self.child.require(frozenset().union(
            (f for f in flats if f < base),
            *(k.used for k in self._keys),
            *(s.arg.used for s in self.groups.slots if not s.star),
        ))

    def _execute(self, ctx: _Ctx) -> _Batch:
        batch = self.child.run(ctx)
        ccols = batch.cols
        n = batch.n
        key_lists = [equality_keys(_raw(k, ctx, ccols, n)) for k in self._keys]
        slots = self.groups.slots
        arg_lists: List[Optional[List[Any]]] = [
            None
            if s.star
            else _as_list(s.arg.fn(ctx, ccols, n), n)
            for s in slots
        ]
        members: Optional[List[Sequence[int]]] = None
        sizes: List[int] = []
        if not n:
            if not self.scalar:
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
                keys = _row_keys(key_lists)
                firsts = sorted(
                    dict(zip(reversed(keys), range(n - 1, -1, -1))).values()
                )
                if slots:
                    sizes = list(Counter(keys).values())
            else:
                firsts, members = _members(_row_keys(key_lists))
                sizes = list(map(len, members))
            repcols = _gather(ccols, firsts)
            count = len(firsts)
        slotcols = [
            sizes if slot.star else reduce_slot(slot, arg_lists[pos], members)
            for pos, slot in enumerate(slots)
        ]
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


def _default_name(expr: ast.Expression, index: int) -> str:
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.FunctionCall):
        return expr.name.lower()
    if isinstance(expr, ast.SequenceNextval):
        return "nextval"
    return f"col{index + 1}"


def compare_order_keys(
    akeys: Tuple[Any, ...],
    bkeys: Tuple[Any, ...],
    order_by: Sequence[ast.OrderItem],
) -> int:
    """Three-way ORDER BY key comparison."""
    for position, item in enumerate(order_by):
        left = akeys[position]
        right = bkeys[position]
        if left is None and right is None:
            continue
        # NULL compares as the largest value: last in ASC, first in
        # DESC (Oracle's default NULLS LAST / NULLS FIRST).
        if left is None:
            return 1 if item.ascending else -1
        if right is None:
            return -1 if item.ascending else 1
        if compare("<", left, right) is True:
            result = -1
        elif compare(">", left, right) is True:
            result = 1
        else:
            continue
        return result if item.ascending else -result
    return 0


def _window_value(ctx: _Ctx, vexpr: VExpr, clause: str) -> int:
    value = _as_list(vexpr.fn(ctx, [], 1), 1)[0]
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, int):
        raise ExecutionError(f"{clause} must be an integer, got {value!r}")
    return value


class _Tail:
    """ORDER BY / LIMIT / OFFSET of a query.  A sort key is an output
    position or a kernel over the output columns followed by the source
    columns, so a key may read a column or an aggregate no select item
    shows.  As in sqlite3, a negative LIMIT means no limit and a
    negative OFFSET none."""

    __slots__ = ("order_by", "keys", "source_used", "limit", "offset")

    def __init__(self, select: ast.Select, comp: _Compiler):
        self.order_by = select.order_by
        comp.clause()
        self.keys: List[Any] = [
            item.expr.value
            if isinstance(item.expr, ast.Literal)
            and isinstance(item.expr.value, int)
            else comp.compile(item.expr)
            for item in select.order_by
        ]
        base = comp._base
        #: the source columns (flat indices) a key reads
        self.source_used = frozenset(
            flat - base
            for key in self.keys if isinstance(key, VExpr)
            for flat in key.used if flat >= base
        )
        window = _Compiler(Frame([]), [], comp._db)
        self.offset = (
            window.compile(select.offset) if select.offset is not None else None
        )
        self.limit = (
            window.compile(select.limit) if select.limit is not None else None
        )

    def apply(
        self, ctx: _Ctx, out_cols: List[List[Any]], src_cols: List[Any], n: int
    ) -> Tuple[List[List[Any]], int]:
        if self.keys and n:
            out_cols = self._sort(ctx, out_cols, src_cols, n)
        start, stop = 0, n
        if self.offset is not None:
            start = min(n, max(0, _window_value(ctx, self.offset, "OFFSET")))
        if self.limit is not None:
            limit = _window_value(ctx, self.limit, "LIMIT")
            if limit >= 0:
                stop = min(n, start + limit)
        if (start, stop) != (0, n):
            out_cols = [col[start:stop] for col in out_cols]
        return out_cols, stop - start

    def _sort(
        self, ctx: _Ctx, out_cols: List[List[Any]], src_cols: List[Any], n: int
    ) -> List[List[Any]]:
        width = len(out_cols)
        layout = out_cols + src_cols
        key_cols: List[List[Any]] = []
        for key in self.keys:
            if isinstance(key, int):
                if not 0 < key <= width:
                    raise ExecutionError(
                        f"ORDER BY position {key} out of range"
                    )
                key_cols.append(out_cols[key - 1])
            else:
                key_cols.append(_as_list(key.fn(ctx, layout, n), n))
        keys = list(zip(*key_cols))
        order_by = self.order_by
        # stable: equal keys keep their input order
        order = sorted(range(n), key=cmp_to_key(
            lambda a, b: compare_order_keys(keys[a], keys[b], order_by)
        ))
        return _gather(out_cols, order)


def _set_op(
    op: str, all_flag: bool, left: List[Any], right: List[Any]
) -> List[Any]:
    """UNION / INTERSECT / EXCEPT of two row lists, first appearance
    winning; with ALL, a row of *right* cancels one of *left*."""
    if op == "UNION":
        combined = left + right
        return combined if all_flag else list(dict.fromkeys(combined))
    counts = Counter(right)
    out = []
    for row in left:
        if counts[row] > 0:
            if all_flag:
                counts[row] -= 1
            if op == "INTERSECT":
                out.append(row)
        elif op == "EXCEPT":
            out.append(row)
    return out if all_flag else list(dict.fromkeys(out))


class SelectPlan:
    """One planned SELECT block: its :attr:`source` node (the join
    tree, WHERE's leftovers as a :class:`Filter` over it, the
    aggregate over that), HAVING, the projection, DISTINCT and ORDER
    BY / LIMIT / OFFSET.  A block that opens a compound also holds the
    set operations with their right-hand blocks' plans, and its
    ORDER BY / LIMIT / OFFSET apply after them.  Built once per
    (statement, catalog version); executions share it and keep their
    state in a :class:`_Ctx`."""

    __slots__ = (
        "select",
        "source",
        "having",
        "parts",
        "columns",
        "dtypes",
        "set_ops",
        "tail",
    )

    def __init__(
        self,
        select: ast.Select,
        source: PlanNode,
        set_ops: List[Tuple[str, bool, "SelectPlan"]],
        db: Any,
        outer: Optional[_Outer] = None,
    ):
        self.select = select
        self.source = source
        self.set_ops = set_ops
        frame = source.frame
        dtypes = source.dtypes
        groups = sibling = None
        if isinstance(source, GroupAggregate):
            groups, sibling = source.groups, source.sibling
        comp = _Compiler(frame, dtypes, db, groups, sibling, outer)
        having = select.having
        self.having = comp.compile(having) if having is not None else None
        comp.clause()
        offsets = _frame_offsets(frame)
        columns: List[str] = []
        parts: List[Tuple[Sequence[int], Optional[VExpr]]] = []
        out_dtypes: List[str] = []
        used = self.having.used if self.having is not None else frozenset()
        for idx, item in enumerate(select.items):
            expr = item.expr
            if isinstance(expr, ast.Star) and frame.sources:
                stars = frame.star_columns(expr.qualifier)
                flats = [offsets[src] + col for src, col, _ in stars]
                columns.extend(name for _, _, name in stars)
                parts.append((flats, None))
                out_dtypes.extend(comp._dtype(flat) for flat in flats)
                used = used.union(flats)
                continue
            if isinstance(expr, ast.Star):
                vexpr = _raising(ExecutionError, "'*' requires a FROM clause")
            else:
                vexpr = comp.compile(expr)
            columns.append(item.alias or _default_name(expr, idx))
            if vexpr.raw is not None:  # a bare column: handed on as stored
                parts.append(((vexpr.raw,), None))
            else:
                parts.append(((), vexpr))
            out_dtypes.append(vexpr.dtype)
            used = used | vexpr.used
        self.parts = parts
        self.columns = columns
        if set_ops:
            # the compound's rows mix blocks: no type is proven, and a
            # sort key reads the output columns only
            out_dtypes = ["any"] * len(columns)
            frame, dtypes, groups, sibling = Frame([]), [], None, None
        self.dtypes = out_dtypes
        self.tail = None
        if (
            select.order_by or select.limit is not None
            or select.offset is not None
        ):
            order_comp = _Compiler(
                frame, out_dtypes + dtypes, db, groups, sibling, outer,
                out_frame=Frame.single(None, columns),
            )
            self.tail = _Tail(select, order_comp)
            used = used | self.tail.source_used
        # every expression is compiled (the aggregate's slots are all
        # allocated): tell the scans which columns anything reads
        source.require(used)

    def nodes(self) -> Iterator[PlanNode]:
        """The block's plan nodes depth-first, parents before children:
        the one enumeration EXPLAIN ANALYZE and the renderer share."""
        stack: List[PlanNode] = [self.source]
        while stack:
            node = stack.pop()
            yield node
            for attr in ("child", "left", "right"):
                sub = getattr(node, attr, None)
                if sub is not None:
                    stack.append(sub)

    def run(
        self, db: Any, outer: Tuple[Any, ...] = ()
    ) -> Tuple[List[Any], int]:
        """The result column-major: one column per output column (their
        proven dtypes are :attr:`dtypes`) and the row count.  A column
        is a list, a NULL-free array or :class:`Coded`; iterating it
        gives the values, and callers must not mutate it.  *outer*
        binds a subquery's outer references for this run."""
        ctx = _Ctx(db, outer)
        if ctx.collector is not None:
            ctx.collector.attach(self)
        if not self.set_ops:
            return self._block(ctx, self.tail)
        rows = list(zip(*self._block(ctx, None)[0]))
        for op, all_flag, rhs in self.set_ops:
            rhs_rows = list(zip(*rhs.run(db, outer)[0]))
            rows = _set_op(op, all_flag, rows, rhs_rows)
        cols, n = transpose(rows, len(self.columns)), len(rows)
        if self.tail is None:
            return cols, n
        return self.tail.apply(ctx, cols, [], n)

    def _block(
        self, ctx: _Ctx, tail: Optional[_Tail]
    ) -> Tuple[List[List[Any]], int]:
        batch = self.source.run(ctx)
        if batch.n:
            ctx.db.tracer.count("rows_scanned", batch.n)
        cols = batch.cols
        n = batch.n
        having = self.having
        if having is not None and n:
            vals = _as_list(having.fn(ctx, cols, n), n)
            sel = [i for i, v in enumerate(vals) if v is True]
            if len(sel) != n:
                cols = _gather(cols, sel)
                n = len(sel)
        out_cols: List[List[Any]] = []
        for flats, vexpr in self.parts:
            if vexpr is None:
                out_cols.extend(cols[flat] for flat in flats)
            else:  # no row: no item is evaluated, constant or not
                out_cols.append(_as_list(vexpr.fn(ctx, cols, n), n) if n else [])
        if self.select.distinct and n:
            if tail is not None and tail.source_used:
                # a hidden sort key is read at each output's first row
                firsts: Dict[Any, int] = {}
                for i, row in enumerate(zip(*map(equality_keys, out_cols))):
                    firsts.setdefault(row, i)
                if len(firsts) != n:
                    kept = list(firsts.values())
                    out_cols = _gather(out_cols, kept)
                    cols = _mask_gather(cols, tail.source_used, kept)
                    n = len(kept)
            # first appearance wins
            elif len(out_cols) == 1:
                keys = dict.fromkeys(equality_keys(out_cols[0]))
                if len(keys) != n:
                    out_cols, n = [like(out_cols[0], keys)], len(keys)
            else:
                rows = dict.fromkeys(zip(*map(equality_keys, out_cols)))
                if len(rows) != n:
                    out_cols = list(map(like, out_cols, zip(*rows)))
                    n = len(rows)
        if tail is not None:
            return tail.apply(ctx, out_cols, cols, n)
        return out_cols, n


def evaluate_constant(db: Any, expr: ast.Expression) -> Any:
    """*expr* over one row of no columns (INSERT ... VALUES)."""
    vexpr = _Compiler(Frame([]), [], db).compile(expr)
    return _as_list(vexpr.fn(_Ctx(db), [], 1), 1)[0]


def select_rows(
    db: Any,
    table: Any,
    binding: str,
    where: Optional[ast.Expression],
    assignments: Sequence[ast.Expression] = (),
) -> Tuple[Sequence[int], List[List[Any]]]:
    """DELETE and UPDATE as kernels over a table's columns: the
    positions of the rows *where* holds for (every row when None), and
    each of *assignments* evaluated over those rows only."""
    comp = _Compiler(Frame.single(binding, table.columns),
                     _table_dtypes(table), db)
    predicate = comp.compile(where) if where is not None else None
    comp.clause()
    values = [comp.compile(expr) for expr in assignments]
    kernels = values + ([predicate] if predicate is not None else [])
    cols = table.column_lists(sorted(_union_used(kernels)))
    n = len(table)
    ctx = _Ctx(db)
    idxs: Sequence[int] = range(n)
    if predicate is not None:
        mask = _as_list(predicate.fn(ctx, cols, n), n)
        idxs = [i for i, v in enumerate(mask) if v is True]
    if not idxs:
        return idxs, []
    return idxs, [_eval_on(value, ctx, cols, n, idxs) for value in values]
