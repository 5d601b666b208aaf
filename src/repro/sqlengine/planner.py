"""Builds the plan of a SELECT block: one tree of nodes that plan and
run (:mod:`repro.sqlengine.vector`), each node's expressions compiled
against its children's dtypes and the enclosing scope as it is built.

Planning is deliberately simple but not naive:

* single-source WHERE conjuncts are pushed below joins;
* equality conjuncts between two sources become hash-join keys
  (left-deep join tree in FROM order);
* remaining conjuncts are evaluated as residual filters;
* conjuncts containing subqueries, and those that read no FROM source
  (only host variables or an enclosing query's columns), are a
  :class:`~repro.sqlengine.vector.Filter` over the join tree, below
  the aggregate.

Planning reads no data: a view or derived table is a
:class:`~repro.sqlengine.vector.SubplanSource` holding the nested
SELECT's own cached plan.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.ast_nodes import conjoin, split_conjuncts
from repro.sqlengine.errors import CatalogError, ExecutionError
from repro.sqlengine.evaluator import Frame, contains_aggregate
from repro.sqlengine.vector import (
    Filter,
    GroupAggregate,
    HashJoin,
    IndexLookup,
    LeftOuterHashJoin,
    NestedLoopJoin,
    PlanNode,
    SelectPlan,
    SingleRow,
    SubplanSource,
    TableScan,
)


def _contains_subquery(expr: ast.Expression) -> bool:
    for node in ast.walk_expression(expr):
        if isinstance(node, (ast.InSubquery, ast.Exists, ast.ScalarSubquery)):
            return True
    return False


class SelectPlanner:
    """Plans SELECT blocks; *outer* is the enclosing query's scope when
    the block is a subquery."""

    def __init__(self, database, outer=None):
        self._db = database
        self._outer = outer

    def plan(self, select: ast.Select) -> SelectPlan:
        """The block's plan: the FROM/WHERE tree, the aggregate over it
        when the block groups, and the plans of the blocks a compound
        combines it with."""
        db = self._db
        source = self._plan_from(select)
        if select.group_by or select.having is not None or any(
            contains_aggregate(item.expr)
            for item in select.items
            if not isinstance(item.expr, ast.Star)
        ):
            source = GroupAggregate(
                source, list(select.group_by), not select.group_by,
                db, self._outer,
            )
        set_ops = [
            (op, all_flag, db._select_plan(rhs, self._outer))
            for op, all_flag, rhs in select.set_ops
        ]
        return SelectPlan(select, source, set_ops, db, self._outer)

    # -- source planning -----------------------------------------------------

    def _plan_from(self, select: ast.Select) -> PlanNode:
        """The join tree, with the WHERE conjuncts no join or source
        takes as a filter over it.  A SELECT without FROM reads
        :class:`SingleRow`, the whole WHERE clause left over."""
        conjuncts = split_conjuncts(select.where)
        if not select.from_sources:
            return self._filter(SingleRow(), conjuncts)

        sources = [self._plan_source(src) for src in select.from_sources]

        deferred: List[ast.Expression] = []
        simple: List[Tuple[Set[int], ast.Expression]] = []
        for conjunct in conjuncts:
            if _contains_subquery(conjunct):
                deferred.append(conjunct)
                continue
            touched = self._touched_sources(conjunct, sources)
            if not touched:
                # pure outer/host-variable predicate: evaluate on top
                deferred.append(conjunct)
            else:
                simple.append((touched, conjunct))
        # References that resolve only in an enclosing scope are safe
        # below inner joins: they read the subquery's outer binding,
        # the same for every row of one execution.

        # Push single-source conjuncts down onto their source, using a
        # secondary index when one covers the equality columns.
        remaining: List[Tuple[Set[int], ast.Expression]] = []
        pushed: Dict[int, List[ast.Expression]] = {}
        for touched, conjunct in simple:
            if len(touched) == 1:
                pushed.setdefault(next(iter(touched)), []).append(conjunct)
            else:
                remaining.append((touched, conjunct))
        for idx, source_conjuncts in pushed.items():
            sources[idx] = self._apply_source_predicates(
                sources[idx], source_conjuncts
            )

        # Left-deep join tree in FROM order.
        root = sources[0]
        joined: Set[int] = {0}
        for idx in range(1, len(sources)):
            joined.add(idx)
            applicable = [
                conjunct for touched, conjunct in remaining
                if touched <= joined
            ]
            remaining = [
                (touched, conjunct)
                for touched, conjunct in remaining
                if not touched <= joined
            ]
            root = self._join(root, sources[idx], applicable)

        leftovers = [conjunct for _, conjunct in remaining] + deferred
        return self._filter(root, leftovers)

    def _plan_source(self, source: ast.FromSource) -> PlanNode:
        if isinstance(source, ast.TableName):
            return self._plan_table(source)
        if isinstance(source, ast.SubquerySource):
            return self._plan_subplan(source.alias, source.select)
        if isinstance(source, ast.Join):
            left = self._plan_source(source.left)
            right = self._plan_source(source.right)
            conjuncts = split_conjuncts(source.condition)
            return self._join(left, right, conjuncts, source.kind == "LEFT")
        raise ExecutionError(f"unsupported FROM source: {source!r}")

    def _plan_table(self, source: ast.TableName) -> PlanNode:
        catalog = self._db.catalog
        if catalog.has_table(source.name):
            return TableScan(catalog.get_table(source.name), source.binding)
        if catalog.has_view(source.name):
            view = catalog.get_view(source.name)
            return self._plan_subplan(source.binding, view.select)
        raise CatalogError(f"no such table or view: {source.name!r}")

    def _plan_subplan(
        self, binding: Optional[str], select: ast.Select
    ) -> PlanNode:
        """Views and derived tables are planned here and executed when
        the parent plan runs; nothing is read at plan time."""
        return SubplanSource(binding, self._db._select_plan(select))

    def _join(
        self,
        left: PlanNode,
        right: PlanNode,
        conjuncts: List[ast.Expression],
        outer_join: bool = False,
    ) -> PlanNode:
        """*left* joined with *right* on *conjuncts*: a hash join on
        the equalities between the two sides, the rest its residual; a
        nested-loop join when no equality pairs them (a LEFT join stays
        a hash join, keyless)."""
        equi: List[Tuple[ast.Expression, ast.Expression]] = []
        residual: List[ast.Expression] = []
        for conjunct in conjuncts:
            pair = self._as_equi_pair(conjunct, left.frame, right.frame)
            if pair is not None:
                equi.append(pair)
            else:
                residual.append(conjunct)
        db, outer = self._db, self._outer
        if not equi and not outer_join:
            return NestedLoopJoin(left, right, conjoin(residual), db, outer)
        cls = LeftOuterHashJoin if outer_join else HashJoin
        return cls(
            left,
            right,
            [lk for lk, _ in equi],
            [rk for _, rk in equi],
            conjoin(residual),
            db,
            outer,
        )

    def _filter(
        self, child: PlanNode, conjuncts: List[ast.Expression]
    ) -> PlanNode:
        predicate = conjoin(conjuncts)
        if predicate is None:
            return child
        return Filter(child, predicate, self._db, self._outer)

    # -- conjunct classification ----------------------------------------------

    @staticmethod
    def _touched_sources(
        conjunct: ast.Expression, sources: List[PlanNode]
    ) -> Set[int]:
        """The FROM sources the conjunct references (a reference no
        source resolves reads an enclosing scope)."""
        touched: Set[int] = set()
        for node in ast.walk_expression(conjunct):
            if isinstance(node, ast.ColumnRef):
                for idx, source in enumerate(sources):
                    if _frame_resolves(source.frame, node):
                        touched.add(idx)
                        break
        return touched

    # -- single-source access paths ---------------------------------------

    def _apply_source_predicates(
        self, source: PlanNode, conjuncts: List[ast.Expression]
    ) -> PlanNode:
        """Turn pushed-down conjuncts into the best access path: an
        index lookup when a secondary index covers the equality
        columns, plain filters otherwise."""
        if isinstance(source, TableScan):
            source, conjuncts = self._try_index_lookup(source, conjuncts)
        for conjunct in conjuncts:
            source = self._filter(source, [conjunct])
        return source

    def _try_index_lookup(
        self, scan: TableScan, conjuncts: List[ast.Expression]
    ) -> Tuple[PlanNode, List[ast.Expression]]:
        table = scan.table
        if not table.indexes:
            return scan, conjuncts
        equalities: Dict[str, Tuple[ast.Expression, ast.Expression]] = {}
        for conjunct in conjuncts:
            pair = self._column_eq_value(conjunct, scan)
            if pair is not None:
                column, value_expr = pair
                equalities.setdefault(column, (conjunct, value_expr))
        # Prefer the covered index using the most equality columns
        # (more selective, and more conjuncts absorbed into the key).
        candidates = [
            table_index
            for table_index in table.indexes.values()
            if all(
                column.lower() in equalities
                for column in table_index.columns
            )
        ]
        if not candidates:
            return scan, conjuncts
        best = max(candidates, key=lambda ix: len(ix.columns))
        columns = [c.lower() for c in best.columns]
        used = {id(equalities[c][0]) for c in columns}
        key_exprs = [equalities[c][1] for c in columns]
        lookup = IndexLookup(
            table, scan.binding, best, key_exprs, self._db, self._outer
        )
        rest = [c for c in conjuncts if id(c) not in used]
        return lookup, rest

    @staticmethod
    def _column_eq_value(
        conjunct: ast.Expression, scan: TableScan
    ) -> Optional[Tuple[str, ast.Expression]]:
        """Match ``column = value`` (either orientation) where *column*
        belongs to the scan and *value* has no references into it."""
        if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
            return None
        for column_side, value_side in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            if not isinstance(column_side, ast.ColumnRef):
                continue
            if not _frame_resolves(scan.frame, column_side):
                continue
            value_refs = [
                node
                for node in ast.walk_expression(value_side)
                if isinstance(node, ast.ColumnRef)
            ]
            if any(_frame_resolves(scan.frame, ref) for ref in value_refs):
                continue
            return column_side.name.lower(), value_side
        return None

    @staticmethod
    def _as_equi_pair(
        conjunct: ast.Expression, left_frame: Frame, right_frame: Frame
    ) -> Optional[Tuple[ast.Expression, ast.Expression]]:
        if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
            return None
        sides = []
        for expr in (conjunct.left, conjunct.right):
            refs = [
                node
                for node in ast.walk_expression(expr)
                if isinstance(node, ast.ColumnRef)
            ]
            if not refs:
                return None
            in_left = all(_frame_resolves(left_frame, r) for r in refs)
            in_right = all(_frame_resolves(right_frame, r) for r in refs)
            if in_left and not in_right:
                sides.append("L")
            elif in_right and not in_left:
                sides.append("R")
            else:
                return None
        if sides == ["L", "R"]:
            return conjunct.left, conjunct.right
        if sides == ["R", "L"]:
            return conjunct.right, conjunct.left
        return None


def _frame_resolves(frame: Frame, ref: ast.ColumnRef) -> bool:
    try:
        return frame.lookup(ref.qualifier, ref.name) is not None
    except CatalogError:
        # Ambiguous within this frame: it does resolve here (and will
        # raise properly at evaluation time if actually evaluated).
        return True
