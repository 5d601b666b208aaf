"""Physical plan nodes of a SELECT block.

Each node carries its output :attr:`frame` (one source per joined
table, so column references keep their qualifiers), the AST keys and
predicates it evaluates, and the table or index it reads.  The nodes
execute nothing themselves: :mod:`repro.sqlengine.vector` mirrors a
tree onto batch operators, and EXPLAIN renders it.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.evaluator import Frame
from repro.sqlengine.table import Table


class Operator:
    """Base plan node."""

    frame: Frame


class SingleRow(Operator):
    """The source of a SELECT without FROM: one row of no columns."""

    def __init__(self) -> None:
        self.frame = Frame([])


class TableScan(Operator):
    """Full scan of a base table under a binding name."""

    def __init__(self, table: Table, binding: str):
        self.table = table
        self.binding = binding
        self.frame = Frame.single(binding, table.columns)


class IndexLookup(Operator):
    """Equality lookup through a secondary hash index.

    ``key_exprs`` reference no column of the table: they are constants,
    host variables or columns of an enclosing query (a correlated
    subquery), evaluated once per execution.
    """

    def __init__(self, table: Table, binding: str, index, key_exprs):
        self.table = table
        self.binding = binding
        self.index = index
        self.key_exprs = key_exprs
        self.frame = Frame.single(binding, table.columns)


class SubplanSource(Operator):
    """A view or derived table: a nested SELECT planned with its parent
    and executed when the parent runs.

    ``plan`` is the nested statement's physical plan — it gives the
    frame its column names, EXPLAIN its subtree and the batch executor
    the proven dtypes of the columns it feeds the parent.  Derived
    tables are uncorrelated: the nested SELECT never sees the enclosing
    query's columns.
    """

    def __init__(self, binding: Optional[str], select: ast.Select, plan: Any):
        self.binding = binding
        self.select = select
        self.plan = plan
        self.frame = Frame.single(binding, plan.columns)


class Filter(Operator):
    """Keeps rows whose predicate evaluates to TRUE."""

    def __init__(self, child: Operator, predicate: ast.Expression):
        self.child = child
        self.predicate = predicate
        self.frame = child.frame


class NestedLoopJoin(Operator):
    """Cross/theta join: every pair of rows, left-major, kept when the
    optional predicate is TRUE."""

    def __init__(
        self,
        left: Operator,
        right: Operator,
        predicate: Optional[ast.Expression] = None,
    ):
        self.left = left
        self.right = right
        self.predicate = predicate
        self.frame = left.frame.combine(right.frame)


class HashJoin(Operator):
    """Equi-join: builds a hash table on the right input.

    ``left_keys`` / ``right_keys`` are expressions over the respective
    child frames; rows with any NULL key never match (SQL equality
    semantics).
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_keys: List[ast.Expression],
        right_keys: List[ast.Expression],
        residual: Optional[ast.Expression] = None,
    ):
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.residual = residual
        self.frame = left.frame.combine(right.frame)


class LeftOuterHashJoin(HashJoin):
    """LEFT OUTER equi-join; unmatched left rows pad the right side with
    NULLs."""


class GroupAggregate(Operator):
    """Hash grouping in first-appearance order.

    With no GROUP BY keys and aggregates present, a single global group
    is emitted even for empty input (``scalar`` mode).
    """

    def __init__(
        self,
        child: Operator,
        keys: List[ast.Expression],
        scalar: bool = False,
    ):
        self.child = child
        self.keys = keys
        self.scalar = scalar
        self.frame = child.frame
