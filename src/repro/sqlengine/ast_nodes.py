"""Abstract syntax tree for the SQL dialect.

Plain frozen dataclasses; the parser builds them and the planner /
evaluator consume them.  Expression nodes and statement nodes share the
module because several statements embed expressions and subqueries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

from repro.sqlengine.types import SqlType

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expression:
    """Marker base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Literal(Expression):
    """A constant: number, string, date, boolean or NULL."""

    value: Any


@dataclass(frozen=True)
class HostVar(Expression):
    """A host variable reference, ``:name`` (bound at execution time)."""

    name: str


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A possibly qualified column reference, ``t.col`` or ``col``."""

    qualifier: Optional[str]
    name: str

    def __str__(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class Star(Expression):
    """``*`` or ``alias.*`` in a select list or inside COUNT(*)."""

    qualifier: Optional[str] = None


@dataclass(frozen=True)
class SequenceNextval(Expression):
    """Oracle-style ``seq.NEXTVAL`` (Appendix A of the paper)."""

    sequence: str


@dataclass(frozen=True)
class BinaryOp(Expression):
    """Arithmetic (+ - * / %), comparison (= <> < <= > >=),
    logical (AND OR) or string concatenation (||)."""

    op: str
    left: Expression
    right: Expression


@dataclass(frozen=True)
class UnaryOp(Expression):
    """Unary minus/plus or NOT."""

    op: str
    operand: Expression


@dataclass(frozen=True)
class FunctionCall(Expression):
    """Aggregate or scalar function call.

    ``COUNT(*)`` is represented with ``star=True`` and empty ``args``.
    """

    name: str
    args: Tuple[Expression, ...] = ()
    distinct: bool = False
    star: bool = False


@dataclass(frozen=True)
class Between(Expression):
    expr: Expression
    low: Expression
    high: Expression
    negated: bool = False


@dataclass(frozen=True)
class InList(Expression):
    expr: Expression
    items: Tuple[Expression, ...]
    negated: bool = False


@dataclass(frozen=True)
class InSubquery(Expression):
    expr: Expression
    subquery: "Select"
    negated: bool = False


@dataclass(frozen=True)
class Exists(Expression):
    subquery: "Select"
    negated: bool = False


@dataclass(frozen=True)
class Like(Expression):
    expr: Expression
    pattern: Expression
    negated: bool = False
    escape: Optional[Expression] = None


@dataclass(frozen=True)
class IsNull(Expression):
    expr: Expression
    negated: bool = False


@dataclass(frozen=True)
class Case(Expression):
    """``CASE [operand] WHEN .. THEN .. [ELSE ..] END``."""

    operand: Optional[Expression]
    whens: Tuple[Tuple[Expression, Expression], ...]
    else_: Optional[Expression]


@dataclass(frozen=True)
class Cast(Expression):
    expr: Expression
    target: SqlType


@dataclass(frozen=True)
class ScalarSubquery(Expression):
    """A parenthesised SELECT used where a scalar value is expected."""

    select: "Select"


@dataclass(frozen=True)
class TupleExpr(Expression):
    """A parenthesised expression list, e.g. the left side of a row
    comparison ``(a, b) = (c, d)`` used by the generated Q4 join."""

    items: Tuple[Expression, ...]


# ---------------------------------------------------------------------------
# Query structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    """One entry of the select list: an expression plus optional alias."""

    expr: Expression
    alias: Optional[str] = None


@dataclass(frozen=True)
class TableName:
    """A base table or view in the FROM clause."""

    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        """The name this source is referred to by in expressions."""
        return self.alias or self.name


@dataclass(frozen=True)
class SubquerySource:
    """A derived table: ``FROM (SELECT ..) alias``."""

    select: "Select"
    alias: Optional[str] = None

    @property
    def binding(self) -> Optional[str]:
        return self.alias


@dataclass(frozen=True)
class Join:
    """An explicit ``JOIN .. ON ..`` between two FROM sources."""

    kind: str  # INNER | LEFT | CROSS
    left: "FromSource"
    right: "FromSource"
    condition: Optional[Expression] = None

    @property
    def binding(self) -> Optional[str]:
        return None


FromSource = Any  # TableName | SubquerySource | Join


@dataclass(frozen=True)
class OrderItem:
    expr: Expression
    ascending: bool = True


@dataclass(frozen=True)
class Select:
    """A full SELECT statement (also used for subqueries and views)."""

    items: Tuple[SelectItem, ...]
    from_sources: Tuple[FromSource, ...] = ()
    where: Optional[Expression] = None
    group_by: Tuple[Expression, ...] = ()
    having: Optional[Expression] = None
    order_by: Tuple[OrderItem, ...] = ()
    distinct: bool = False
    limit: Optional[Expression] = None
    offset: Optional[Expression] = None
    into_vars: Tuple[str, ...] = ()
    set_ops: Tuple[Tuple[str, bool, "Select"], ...] = ()  # (op, all, rhs)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type: SqlType


@dataclass(frozen=True)
class CreateTable:
    name: str
    columns: Tuple[ColumnDef, ...]
    if_not_exists: bool = False


@dataclass(frozen=True)
class CreateTableAsSelect:
    name: str
    select: Select


@dataclass(frozen=True)
class CreateView:
    name: str
    select: Select
    or_replace: bool = False


@dataclass(frozen=True)
class CreateSequence:
    name: str
    start: int = 1


@dataclass(frozen=True)
class CreateIndex:
    """Accepted for SQL92 compatibility; the in-memory engine records the
    index in the catalog and uses it as a join-planning hint."""

    name: str
    table: str
    columns: Tuple[str, ...]


@dataclass(frozen=True)
class DropObject:
    kind: str  # TABLE | VIEW | SEQUENCE | INDEX
    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class InsertValues:
    table: str
    columns: Tuple[str, ...]
    rows: Tuple[Tuple[Expression, ...], ...]


@dataclass(frozen=True)
class InsertSelect:
    table: str
    columns: Tuple[str, ...]
    select: Select


@dataclass(frozen=True)
class Delete:
    table: str
    where: Optional[Expression] = None


@dataclass(frozen=True)
class Update:
    table: str
    assignments: Tuple[Tuple[str, Expression], ...]
    where: Optional[Expression] = None


Statement = Any  # union of the statement dataclasses above plus Select


#: the fields of each expression node that hold sub-expressions, in
#: order: a field holds an expression, None, a tuple of expressions or
#: (CASE's ``whens``) a tuple of (condition, result) pairs.  A subquery
#: is no sub-expression: its expressions live in a different scope.
#: :func:`children` and :func:`map_children` both read this table, so
#: a walk and a rebuild always see the same sub-expressions.
_CHILD_FIELDS: Dict[type, Tuple[str, ...]] = {
    BinaryOp: ("left", "right"),
    UnaryOp: ("operand",),
    FunctionCall: ("args",),
    Between: ("expr", "low", "high"),
    InList: ("expr", "items"),
    InSubquery: ("expr",),
    Like: ("expr", "pattern", "escape"),
    IsNull: ("expr",),
    Case: ("operand", "whens", "else_"),
    Cast: ("expr",),
    TupleExpr: ("items",),
}


def _flatten(value: Any) -> Iterator[Expression]:
    if isinstance(value, tuple):
        for item in value:
            yield from _flatten(item)
    elif value is not None:
        yield value


def _mapped(value: Any, fn: Callable[[Expression], Expression]) -> Any:
    if isinstance(value, tuple):
        return tuple(_mapped(item, fn) for item in value)
    return None if value is None else fn(value)


def children(expr: Expression) -> List[Expression]:
    """The direct sub-expressions of *expr*, in field order."""
    return [
        child
        for name in _CHILD_FIELDS.get(type(expr), ())
        for child in _flatten(getattr(expr, name))
    ]


def map_children(
    expr: Expression, fn: Callable[[Expression], Expression]
) -> Expression:
    """*expr* with *fn* applied to each direct sub-expression; *expr*
    itself when it has none."""
    names = _CHILD_FIELDS.get(type(expr))
    if not names:
        return expr
    return replace(
        expr, **{name: _mapped(getattr(expr, name), fn) for name in names}
    )


def walk_expression(expr: Expression) -> Iterator[Expression]:
    """Yield *expr* and every sub-expression, depth first.

    Subqueries are yielded as nodes but not descended into: their
    expressions live in a different scope.
    """
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(children(node))


def split_conjuncts(expr: Optional[Expression]) -> List[Expression]:
    """Flatten a predicate into its top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(conjuncts: Sequence[Expression]) -> Optional[Expression]:
    """Rebuild a predicate from conjuncts (None when empty)."""
    result: Optional[Expression] = None
    for conjunct in conjuncts:
        result = (
            conjunct if result is None
            else BinaryOp("AND", result, conjunct)
        )
    return result
