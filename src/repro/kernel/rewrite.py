"""Expression rewriting used by the translator.

The search conditions written inside a MINE RULE statement reference
the *source* schema with BODY/HEAD qualifiers; the generated queries
evaluate them against *encoded* tables under different aliases, and
aggregate functions in the cluster condition are precomputed per
cluster by query Q6 (Section 4.2.2).  This module provides the
structural transformation: qualifier remapping and
aggregate-to-column substitution.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.minerule.errors import MineRuleValidationError
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.parser import AGGREGATE_NAMES
from repro.sqlengine.render import render_expr


def transform(
    expr: ast.Expression, fn: Callable[[ast.Expression], Optional[ast.Expression]]
) -> ast.Expression:
    """Rebuild *expr* top-down; *fn* may return a replacement for any
    node (or None to recurse into it unchanged).  A replaced node is
    not descended into, so e.g. an aggregate call can be swapped for a
    column reference before its arguments would be rewritten."""
    replacement = fn(expr)
    if replacement is not None:
        return replacement
    return ast.map_children(expr, lambda child: transform(child, fn))


def requalify(expr: ast.Expression, mapping: Dict[str, str]) -> ast.Expression:
    """Remap column-reference qualifiers (case-insensitive keys)."""
    lowered = {k.lower(): v for k, v in mapping.items()}

    def rewrite(node: ast.Expression) -> Optional[ast.Expression]:
        if isinstance(node, ast.ColumnRef):
            key = (node.qualifier or "").lower()
            if key in lowered:
                return ast.ColumnRef(lowered[key], node.name)
        return None

    return transform(expr, rewrite)


# ---------------------------------------------------------------------------
# Cluster-condition aggregates (directive F, queries Q6/Q7)
# ---------------------------------------------------------------------------


class ClusterAggregate:
    """One aggregate occurring in the cluster condition.

    ``column`` is the per-cluster column computed by Q6;
    ``source_sql`` is the aggregate rendered over the source alias S
    (qualifiers stripped); ``side`` records whether the aggregate was
    written over BODY or HEAD attributes, which decides whether Q7
    reads it from the body-cluster (BC) or head-cluster (HC) row.
    """

    def __init__(self, node: ast.FunctionCall, column: str, side: str):
        self.node = node
        self.column = column
        self.side = side
        stripped = requalify(node, {"BODY": "S", "HEAD": "S"})
        self.source_sql = render_expr(stripped)

    @property
    def canonical(self) -> str:
        return self.source_sql


def collect_cluster_aggregates(
    condition: ast.Expression,
) -> List[ClusterAggregate]:
    """Find aggregate calls in a cluster condition and assign them
    Q6 column names (MRAGG1, MRAGG2, ...).  Aggregates over the same
    source expression share one column even if written once for BODY
    and once for HEAD."""
    aggregates: List[ClusterAggregate] = []
    by_canonical: Dict[str, str] = {}

    for node in ast.walk_expression(condition):
        if not isinstance(node, ast.FunctionCall):
            continue
        if not (node.name in AGGREGATE_NAMES or node.star):
            continue
        side = _aggregate_side(node)
        probe = ClusterAggregate(node, "?", side)
        column = by_canonical.get(probe.canonical)
        if column is None:
            column = f"MRAGG{len(by_canonical) + 1}"
            by_canonical[probe.canonical] = column
        aggregates.append(ClusterAggregate(node, column, side))
    return aggregates


def _aggregate_side(node: ast.FunctionCall) -> str:
    if node.star:
        raise MineRuleValidationError(
            "COUNT(*) in a cluster condition is ambiguous: qualify the "
            "aggregated attribute with BODY or HEAD (e.g. COUNT(BODY.item))",
            check=3,
        )
    sides = set()
    for arg in node.args:
        for ref in ast.walk_expression(arg):
            if isinstance(ref, ast.ColumnRef):
                qualifier = (ref.qualifier or "").upper()
                sides.add(qualifier)
    if sides == {"BODY"}:
        return "BODY"
    if sides == {"HEAD"}:
        return "HEAD"
    raise MineRuleValidationError(
        f"aggregate {node.name} in a cluster condition must reference "
        f"exactly one side (all arguments BODY.* or all HEAD.*)",
        check=3,
    )


def rewrite_cluster_condition(
    condition: ast.Expression,
    aggregates: List[ClusterAggregate],
    body_alias: str = "BC",
    head_alias: str = "HC",
) -> ast.Expression:
    """Rewrite a cluster condition for query Q7: BODY/HEAD qualifiers
    become the two Clusters aliases, and each aggregate call becomes a
    reference to its precomputed Q6 column on the proper side."""
    by_structure: Dict[Tuple, ClusterAggregate] = {
        _structure_key(a.node): a for a in aggregates
    }

    def rewrite(node: ast.Expression) -> Optional[ast.Expression]:
        if isinstance(node, ast.FunctionCall) and (
            node.name in AGGREGATE_NAMES or node.star
        ):
            aggregate = by_structure.get(_structure_key(node))
            if aggregate is not None:
                alias = body_alias if aggregate.side == "BODY" else head_alias
                return ast.ColumnRef(alias, aggregate.column)
        if isinstance(node, ast.ColumnRef):
            qualifier = (node.qualifier or "").upper()
            if qualifier == "BODY":
                return ast.ColumnRef(body_alias, node.name)
            if qualifier == "HEAD":
                return ast.ColumnRef(head_alias, node.name)
        return None

    return transform(condition, rewrite)


def _structure_key(expr: ast.Expression) -> Tuple:
    """A hashable structural fingerprint of an expression."""
    return tuple(
        (type(node).__name__, getattr(node, "name", None),
         getattr(node, "qualifier", None), getattr(node, "value", None),
         getattr(node, "op", None))
        for node in ast.walk_expression(expr)
    )
