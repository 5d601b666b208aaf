"""Abstract syntax tree for the SQL dialect.

Plain frozen dataclasses; the parser builds them and the planner /
evaluator consume them.  Expression nodes and statement nodes share the
module because several statements embed expressions and subqueries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

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


def walk_expression(expr: Expression):
    """Yield *expr* and every sub-expression, depth first.

    Subqueries are yielded as nodes but not descended into: their
    expressions live in a different scope.
    """
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, BinaryOp):
            stack.extend((node.left, node.right))
        elif isinstance(node, UnaryOp):
            stack.append(node.operand)
        elif isinstance(node, FunctionCall):
            stack.extend(node.args)
        elif isinstance(node, Between):
            stack.extend((node.expr, node.low, node.high))
        elif isinstance(node, InList):
            stack.append(node.expr)
            stack.extend(node.items)
        elif isinstance(node, InSubquery):
            stack.append(node.expr)
        elif isinstance(node, Like):
            stack.extend((node.expr, node.pattern))
            if node.escape is not None:
                stack.append(node.escape)
        elif isinstance(node, IsNull):
            stack.append(node.expr)
        elif isinstance(node, Case):
            if node.operand is not None:
                stack.append(node.operand)
            for cond, result in node.whens:
                stack.extend((cond, result))
            if node.else_ is not None:
                stack.append(node.else_)
        elif isinstance(node, Cast):
            stack.append(node.expr)
        elif isinstance(node, TupleExpr):
            stack.extend(node.items)


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
