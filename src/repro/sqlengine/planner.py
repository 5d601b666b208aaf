"""Builds physical operator trees for SELECT statements.

Planning is deliberately simple but not naive:

* single-source WHERE conjuncts are pushed below joins;
* equality conjuncts between two sources become hash-join keys
  (left-deep join tree in FROM order);
* remaining conjuncts are evaluated as residual filters;
* conjuncts containing subqueries are kept at the top so correlated
  references resolve against the full row environment.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.errors import CatalogError, ExecutionError
from repro.sqlengine.evaluator import Frame
from repro.sqlengine.operators import (
    Filter,
    HashJoin,
    LeftOuterHashJoin,
    NestedLoopJoin,
    Operator,
    SubplanSource,
    TableScan,
)


def split_conjuncts(expr: Optional[ast.Expression]) -> List[ast.Expression]:
    """Flatten a predicate into its top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(conjuncts: Sequence[ast.Expression]) -> Optional[ast.Expression]:
    """Rebuild a predicate from conjuncts (None when empty)."""
    result: Optional[ast.Expression] = None
    for conjunct in conjuncts:
        result = conjunct if result is None else ast.BinaryOp("AND", result, conjunct)
    return result


def plan_operators(root: Optional[Operator]):
    """Depth-first walk over an operator tree, parents before children.

    The canonical enumeration of a plan's physical nodes, shared by
    EXPLAIN ANALYZE instrumentation and the plan renderer — both must
    agree on exactly which operators a plan contains."""
    if root is None:
        return
    stack: List[Operator] = [root]
    while stack:
        op = stack.pop()
        yield op
        for attr in ("child", "left", "right"):
            sub = getattr(op, attr, None)
            if sub is not None:
                stack.append(sub)


def _contains_subquery(expr: ast.Expression) -> bool:
    for node in ast.walk_expression(expr):
        if isinstance(node, (ast.InSubquery, ast.Exists, ast.ScalarSubquery)):
            return True
    return False


class SourceInfo:
    """One planned FROM source and the names it binds."""

    def __init__(self, operator: Operator):
        self.operator = operator
        self.frame = operator.frame


class SelectPlanner:
    """Plans the FROM/WHERE part of one SELECT block."""

    def __init__(self, database):
        self._db = database
        self._options = database.options
        self._compiler = database.compiler

    # -- source planning -----------------------------------------------------

    def plan_from(
        self, select: ast.Select
    ) -> Tuple[Optional[Operator], List[ast.Expression]]:
        """Return (root operator, leftover conjuncts to apply on top).

        A SELECT without FROM returns ``(None, [])`` and is evaluated as
        a single-row query by the runner.
        """
        conjuncts = split_conjuncts(select.where)
        if not select.from_sources:
            return None, conjuncts

        sources = [self._plan_source(src) for src in select.from_sources]

        deferred: List[ast.Expression] = []
        simple: List[Tuple[Set[int], ast.Expression]] = []
        for conjunct in conjuncts:
            if _contains_subquery(conjunct):
                deferred.append(conjunct)
                continue
            touched, external = self._touched_sources(conjunct, sources)
            if not touched:
                # pure outer/host-variable predicate: evaluate on top
                deferred.append(conjunct)
            else:
                simple.append((touched, conjunct))
        # References that resolve only in an enclosing scope (external)
        # are safe below inner joins: every operator threads the parent
        # environment through, so a pushed filter still sees them.

        # Push single-source conjuncts down onto their source, using a
        # secondary index when one covers the equality columns.
        remaining: List[Tuple[Set[int], ast.Expression]] = []
        pushed: Dict[int, List[ast.Expression]] = {}
        for touched, conjunct in simple:
            if len(touched) == 1 and self._options.filter_pushdown:
                pushed.setdefault(next(iter(touched)), []).append(conjunct)
            else:
                remaining.append((touched, conjunct))
        for idx, source_conjuncts in pushed.items():
            sources[idx] = self._apply_source_predicates(
                sources[idx], source_conjuncts
            )

        # Left-deep join tree in FROM order.
        root = sources[0].operator
        joined: Set[int] = {0}
        for idx in range(1, len(sources)):
            joined.add(idx)
            applicable = [
                (touched, conjunct)
                for touched, conjunct in remaining
                if touched <= joined
            ]
            remaining = [
                (touched, conjunct)
                for touched, conjunct in remaining
                if not touched <= joined
            ]
            equi, residual = self._extract_equi_keys(
                applicable, root.frame, sources[idx].frame
            )
            if equi:
                left_keys = [lk for lk, _ in equi]
                right_keys = [rk for _, rk in equi]
                root = HashJoin(
                    root,
                    sources[idx].operator,
                    left_keys,
                    right_keys,
                    self._compiler,
                    residual=conjoin(residual),
                )
            else:
                root = NestedLoopJoin(
                    root,
                    sources[idx].operator,
                    self._compiler,
                    predicate=conjoin(residual),
                )

        leftovers = [conjunct for _, conjunct in remaining] + deferred
        return root, leftovers

    def _plan_source(self, source: ast.FromSource) -> SourceInfo:
        if isinstance(source, ast.TableName):
            return SourceInfo(self._plan_table(source))
        if isinstance(source, ast.SubquerySource):
            return SourceInfo(self._plan_subplan(source.alias, source.select))
        if isinstance(source, ast.Join):
            return SourceInfo(self._plan_join(source))
        raise ExecutionError(f"unsupported FROM source: {source!r}")

    def _plan_table(self, source: ast.TableName) -> Operator:
        catalog = self._db.catalog
        if catalog.has_table(source.name):
            return TableScan(catalog.get_table(source.name), source.binding)
        if catalog.has_view(source.name):
            view = catalog.get_view(source.name)
            return self._plan_subplan(source.binding, view.select)
        raise CatalogError(f"no such table or view: {source.name!r}")

    def _plan_subplan(
        self, binding: Optional[str], select: ast.Select
    ) -> Operator:
        """Views and derived tables are planned here and executed when
        the parent plan runs; nothing is read at plan time."""
        plan = self._db._select_plan(select)
        return SubplanSource(binding, select, plan, self._db)

    def _plan_join(self, join: ast.Join) -> Operator:
        left = self._plan_source(join.left)
        right = self._plan_source(join.right)
        conjuncts = split_conjuncts(join.condition)
        equi, residual = self._extract_equi_keys(
            [
                (self._touched_two(c, left.frame, right.frame), c)
                for c in conjuncts
            ],
            left.frame,
            right.frame,
        )
        left_keys = [lk for lk, _ in equi]
        right_keys = [rk for _, rk in equi]
        if join.kind == "LEFT":
            return LeftOuterHashJoin(
                left.operator,
                right.operator,
                left_keys,
                right_keys,
                self._compiler,
                residual=conjoin(residual),
            )
        if equi:
            return HashJoin(
                left.operator,
                right.operator,
                left_keys,
                right_keys,
                self._compiler,
                residual=conjoin(residual),
            )
        return NestedLoopJoin(
            left.operator,
            right.operator,
            self._compiler,
            predicate=conjoin(residual),
        )

    # -- conjunct classification ----------------------------------------------

    @staticmethod
    def _touched_two(
        conjunct: ast.Expression, left: Frame, right: Frame
    ) -> Set[int]:
        touched: Set[int] = set()
        for node in ast.walk_expression(conjunct):
            if isinstance(node, ast.ColumnRef):
                if _frame_resolves(left, node):
                    touched.add(0)
                elif _frame_resolves(right, node):
                    touched.add(1)
        return touched

    @staticmethod
    def _touched_sources(
        conjunct: ast.Expression, sources: List[SourceInfo]
    ) -> Tuple[Set[int], bool]:
        """(FROM sources the conjunct references, whether it also has
        references that only an enclosing scope can resolve)."""
        touched: Set[int] = set()
        external = False
        for node in ast.walk_expression(conjunct):
            if isinstance(node, ast.ColumnRef):
                owner = None
                for idx, source in enumerate(sources):
                    if _frame_resolves(source.frame, node):
                        owner = idx
                        break
                if owner is None:
                    external = True
                else:
                    touched.add(owner)
        return touched, external

    # -- single-source access paths ---------------------------------------

    def _apply_source_predicates(
        self, info: SourceInfo, conjuncts: List[ast.Expression]
    ) -> SourceInfo:
        """Turn pushed-down conjuncts into the best access path: an
        index lookup when a secondary index covers the equality
        columns, plain filters otherwise."""
        operator = info.operator
        if isinstance(operator, TableScan):
            operator, conjuncts = self._try_index_lookup(operator, conjuncts)
        for conjunct in conjuncts:
            operator = Filter(operator, conjunct, self._compiler)
        return SourceInfo(operator)

    def _try_index_lookup(
        self, scan: TableScan, conjuncts: List[ast.Expression]
    ) -> Tuple[Operator, List[ast.Expression]]:
        from repro.sqlengine.operators import IndexLookup

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
            table, scan.binding, best, key_exprs, self._compiler
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

    def _extract_equi_keys(
        self,
        classified: List[Tuple[Set[int], ast.Expression]],
        left_frame: Frame,
        right_frame: Frame,
    ) -> Tuple[
        List[Tuple[ast.Expression, ast.Expression]], List[ast.Expression]
    ]:
        """Split conjuncts into hash-join key pairs and residuals.

        A conjunct ``a = b`` becomes a key pair when one side resolves
        entirely in the left frame and the other entirely in the right
        frame.  ``classified`` pairs each conjunct with the set of
        sides it touches (0=left tree, 1=new right source) — only used
        to pass residuals through untouched.
        """
        equi: List[Tuple[ast.Expression, ast.Expression]] = []
        residual: List[ast.Expression] = []
        for _, conjunct in classified:
            pair = (
                self._as_equi_pair(conjunct, left_frame, right_frame)
                if self._options.hash_joins
                else None
            )
            if pair is not None:
                equi.append(pair)
            else:
                residual.append(conjunct)
        return equi, residual

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
