"""Physical operators for query execution.

Operators follow the iterator (Volcano) model: each exposes a
:attr:`frame` describing its output schema and an :meth:`envs` method
yielding :class:`~repro.sqlengine.evaluator.Env` objects.  A frame can
contain several sources (one per joined table), so column references
keep their table qualifiers through the pipeline; projection collapses
the frame into a single anonymous source.

Expressions are bound at construction time through
:mod:`repro.sqlengine.compiler`: predicates and keys run as closures
with pre-resolved column slots.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.compiler import ExpressionCompiler
from repro.sqlengine.evaluator import Env, Frame
from repro.sqlengine.table import Table

Row = Tuple[Any, ...]


class Operator:
    """Base physical operator."""

    frame: Frame

    def envs(self, parent: Optional[Env]) -> Iterator[Env]:
        """Yield row environments; *parent* is the enclosing scope used
        by correlated subqueries."""
        raise NotImplementedError


class TableScan(Operator):
    """Full scan of a base table under a binding name."""

    def __init__(self, table: Table, binding: str):
        self.table = table
        self.binding = binding
        self.frame = Frame.single(binding, table.columns)

    def envs(self, parent: Optional[Env]) -> Iterator[Env]:
        frame = self.frame
        for row in self.table.rows:
            yield Env(frame, (row,), parent=parent)


class IndexLookup(Operator):
    """Equality lookup through a secondary hash index.

    ``key_exprs`` are evaluated per call against the *parent*
    environment (they may reference outer scopes or host variables),
    so the same plan node serves constant predicates and correlated
    subqueries alike.
    """

    def __init__(self, table: Table, binding: str, index, key_exprs,
                 compiler: ExpressionCompiler):
        self.table = table
        self.binding = binding
        self.index = index
        self.key_exprs = key_exprs
        self.frame = Frame.single(binding, table.columns)
        # Keys run against the *outer* scope, whose frame is unknown at
        # plan time: column references in them walk the parent chain.
        self._key_fn = compiler.bind_key(key_exprs, None)

    def envs(self, parent: Optional[Env]) -> Iterator[Env]:
        key = self._key_fn(parent)
        if any(value is None for value in key):
            return
        frame = self.frame
        for row in self.index.lookup(key):
            yield Env(frame, (row,), parent=parent)


class SubplanSource(Operator):
    """A view or derived table: a nested SELECT planned with its parent
    and executed when the parent runs.

    ``plan`` is the nested statement's physical plan — it gives the
    frame its column names, EXPLAIN its subtree and the batch executor
    the proven dtypes of the columns it feeds the parent.  Derived
    tables are uncorrelated: the nested SELECT never sees the enclosing
    row environment.
    """

    def __init__(self, binding: Optional[str], select: ast.Select,
                 plan: Any, database: Any):
        self.binding = binding
        self.select = select
        self.plan = plan
        self._db = database
        self.frame = Frame.single(binding, plan.columns)

    def envs(self, parent: Optional[Env]) -> Iterator[Env]:
        frame = self.frame
        _, rows = self._db._run_select_raw(self.select)
        for row in rows:
            yield Env(frame, (row,), parent=parent)


class Filter(Operator):
    """Keeps rows whose predicate evaluates to TRUE."""

    def __init__(self, child: Operator, predicate: ast.Expression,
                 compiler: ExpressionCompiler):
        self.child = child
        self.predicate = predicate
        self.frame = child.frame
        self._predicate = compiler.bind(predicate, child.frame)

    def envs(self, parent: Optional[Env]) -> Iterator[Env]:
        predicate = self._predicate
        for env in self.child.envs(parent):
            if predicate(env) is True:
                yield env


class NestedLoopJoin(Operator):
    """Cross/theta join; the optional residual predicate is applied to
    the combined environment."""

    def __init__(
        self,
        left: Operator,
        right: Operator,
        compiler: ExpressionCompiler,
        predicate: Optional[ast.Expression] = None,
    ):
        self.left = left
        self.right = right
        self.predicate = predicate
        self.frame = left.frame.combine(right.frame)
        self._predicate = (
            compiler.bind(predicate, self.frame)
            if predicate is not None
            else None
        )

    def envs(self, parent: Optional[Env]) -> Iterator[Env]:
        predicate = self._predicate
        frame = self.frame
        right_rows = [tuple(env.rows) for env in self.right.envs(parent)]
        for left_env in self.left.envs(parent):
            left_rows = tuple(left_env.rows)
            for rows in right_rows:
                env = Env(frame, left_rows + rows, parent=parent)
                if predicate is None or predicate(env) is True:
                    yield env


class HashJoin(Operator):
    """Equi-join: builds a hash table on the right input.

    ``left_keys`` / ``right_keys`` are expressions evaluated against the
    respective child environments; rows with any NULL key never match
    (SQL equality semantics).
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_keys: List[ast.Expression],
        right_keys: List[ast.Expression],
        compiler: ExpressionCompiler,
        residual: Optional[ast.Expression] = None,
    ):
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.residual = residual
        self.frame = left.frame.combine(right.frame)
        self._left_key = compiler.bind_key(left_keys, left.frame)
        self._right_key = compiler.bind_key(right_keys, right.frame)
        self._residual = (
            compiler.bind(residual, self.frame)
            if residual is not None
            else None
        )

    def envs(self, parent: Optional[Env]) -> Iterator[Env]:
        right_key = self._right_key
        build: Dict[Tuple[Any, ...], List[Tuple[Any, ...]]] = {}
        for right_env in self.right.envs(parent):
            key = right_key(right_env)
            if any(v is None for v in key):
                continue
            build.setdefault(key, []).append(tuple(right_env.rows))
        frame = self.frame
        residual = self._residual
        left_key = self._left_key
        for left_env in self.left.envs(parent):
            key = left_key(left_env)
            if any(v is None for v in key):
                continue
            bucket = build.get(key)
            if not bucket:
                continue
            left_rows = tuple(left_env.rows)
            for right_rows in bucket:
                env = Env(frame, left_rows + right_rows, parent=parent)
                if residual is None or residual(env) is True:
                    yield env


class LeftOuterHashJoin(Operator):
    """LEFT OUTER equi-join; unmatched left rows pad the right side with
    NULLs."""

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_keys: List[ast.Expression],
        right_keys: List[ast.Expression],
        compiler: ExpressionCompiler,
        residual: Optional[ast.Expression] = None,
    ):
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.residual = residual
        self.frame = left.frame.combine(right.frame)
        self._null_rows = tuple(
            tuple([None] * len(columns)) for _, columns in right.frame.sources
        )
        self._left_key = compiler.bind_key(left_keys, left.frame)
        self._right_key = compiler.bind_key(right_keys, right.frame)
        self._residual = (
            compiler.bind(residual, self.frame)
            if residual is not None
            else None
        )

    def envs(self, parent: Optional[Env]) -> Iterator[Env]:
        right_key = self._right_key
        build: Dict[Tuple[Any, ...], List[Tuple[Any, ...]]] = {}
        for right_env in self.right.envs(parent):
            key = right_key(right_env)
            if any(v is None for v in key):
                continue
            build.setdefault(key, []).append(tuple(right_env.rows))
        frame = self.frame
        residual = self._residual
        left_key = self._left_key
        null_rows = self._null_rows
        for left_env in self.left.envs(parent):
            key = left_key(left_env)
            left_rows = tuple(left_env.rows)
            matched = False
            if not any(v is None for v in key):
                for right_rows in build.get(key, ()):
                    env = Env(frame, left_rows + right_rows, parent=parent)
                    if residual is None or residual(env) is True:
                        matched = True
                        yield env
            if not matched:
                yield Env(frame, left_rows + null_rows, parent=parent)


class GroupAggregate(Operator):
    """Hash grouping.  Produces one environment per group; the
    representative env carries ``group`` (the member envs) so the
    aggregate closures can reduce them lazily.

    With no GROUP BY keys and aggregates present, a single global group
    is emitted even for empty input (``scalar`` mode).
    """

    def __init__(
        self,
        child: Operator,
        keys: List[ast.Expression],
        compiler: ExpressionCompiler,
        scalar: bool = False,
    ):
        self.child = child
        self.keys = keys
        self.scalar = scalar
        self.frame = child.frame
        self._key_fn = compiler.bind_key(keys, child.frame)

    def envs(self, parent: Optional[Env]) -> Iterator[Env]:
        key_fn = self._key_fn
        groups: Dict[Tuple[Any, ...], List[Env]] = {}
        order: List[Tuple[Any, ...]] = []
        for env in self.child.envs(parent):
            key = key_fn(env)
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = [env]
                order.append(key)
            else:
                bucket.append(env)
        if not groups and self.scalar:
            empty = Env(
                self.frame,
                tuple(
                    tuple([None] * len(columns))
                    for _, columns in self.frame.sources
                ),
                parent=parent,
                group=[],
            )
            yield empty
            return
        for key in order:
            members = groups[key]
            yield members[0].with_group(members)
