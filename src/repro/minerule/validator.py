"""Semantic checking of MINE RULE statements (Section 4.1, checks 1-4).

The translator invokes :func:`validate` with the source schema obtained
from the DBMS data dictionary.  The four checks, quoting the paper:

1. All attribute lists must be defined on the schema of source tables.
2. Grouping and clustering attributes must be disjoint sets, and the
   body and head schemas must be disjoint from grouping and clustering
   attributes.
3. The HAVING clause for grouping (clustering) can refer only to
   grouping (clustering) attributes.  *Relaxation (documented in
   DESIGN.md): inside aggregate functions any source attribute may
   appear, since aggregates are evaluated per group/cluster by query
   Q2/Q6 regardless of the aggregated attribute.*
4. The mining condition can refer to every attribute but the grouping
   and clustering ones.  References must be qualified with BODY or
   HEAD.
"""

from __future__ import annotations

from typing import List, Sequence, Set

from repro.minerule.errors import MineRuleValidationError
from repro.minerule.statements import MineRuleStatement
from repro.sqlengine import ast_nodes as sql
from repro.sqlengine.parser import AGGREGATE_NAMES

#: qualifiers with special meaning in mining / cluster conditions
RULE_SIDES = ("BODY", "HEAD")


def validate(statement: MineRuleStatement, source_columns: Sequence[str]) -> None:
    """Run checks 1-4 against the *source_columns* of the (joined)
    source tables; raises :class:`MineRuleValidationError` on the first
    violation."""
    columns = {c.lower() for c in source_columns}

    _check_1(statement, columns)
    _check_2(statement)
    _check_3(statement, columns)
    _check_4(statement)


def validate_without_catalog(statement: MineRuleStatement) -> None:
    """Run the checks that read no source schema (2 and 4), so that a
    statement can be refused before its source tables exist (checks 1
    and 3 wait: a queued SQL job may create the source)."""
    _check_2(statement)
    _check_4(statement)


# ---------------------------------------------------------------------------


def _check_1(statement: MineRuleStatement, columns: Set[str]) -> None:
    for label, attrs in (
        ("body schema", statement.body.attributes),
        ("head schema", statement.head.attributes),
        ("group attribute", statement.group_attributes),
        ("cluster attribute", statement.cluster_attributes),
    ):
        for attr in attrs:
            if attr.lower() not in columns:
                raise MineRuleValidationError(
                    f"{label} {attr!r} is not defined on the source schema "
                    f"(available: {', '.join(sorted(columns))})",
                    check=1,
                )


def _check_2(statement: MineRuleStatement) -> None:
    group = {a.lower() for a in statement.group_attributes}
    cluster = {a.lower() for a in statement.cluster_attributes}
    overlap = group & cluster
    if overlap:
        raise MineRuleValidationError(
            f"grouping and clustering attributes must be disjoint; "
            f"both contain: {', '.join(sorted(overlap))}",
            check=2,
        )
    partitioning = group | cluster
    for label, schema in (
        ("body", statement.body.attribute_set()),
        ("head", statement.head.attribute_set()),
    ):
        overlap = schema & partitioning
        if overlap:
            raise MineRuleValidationError(
                f"{label} schema must be disjoint from grouping/clustering "
                f"attributes; both contain: {', '.join(sorted(overlap))}",
                check=2,
            )


def _check_3(statement: MineRuleStatement, columns: Set[str]) -> None:
    if statement.group_condition is not None:
        _check_condition_refs(
            statement.group_condition,
            allowed={a.lower() for a in statement.group_attributes},
            all_columns=columns,
            label="group HAVING",
            sides_allowed=False,
            check=3,
        )
    if statement.cluster_condition is not None:
        _check_condition_refs(
            statement.cluster_condition,
            allowed={a.lower() for a in statement.cluster_attributes},
            all_columns=columns,
            label="cluster HAVING",
            sides_allowed=True,
            check=3,
        )


def _check_4(statement: MineRuleStatement) -> None:
    if statement.mining_condition is None:
        return
    forbidden = {a.lower() for a in statement.group_attributes} | {
        a.lower() for a in statement.cluster_attributes
    }
    for ref in _column_refs(statement.mining_condition):
        if ref.qualifier is None or ref.qualifier.upper() not in RULE_SIDES:
            raise MineRuleValidationError(
                f"mining condition references {ref} without a BODY/HEAD "
                f"qualifier",
                check=4,
            )
        if ref.name.lower() in forbidden:
            raise MineRuleValidationError(
                f"mining condition must not reference grouping/clustering "
                f"attribute {ref.name!r}",
                check=4,
            )


# ---------------------------------------------------------------------------


def _column_refs(expr: sql.Expression) -> List[sql.ColumnRef]:
    return [
        node
        for node in sql.walk_expression(expr)
        if isinstance(node, sql.ColumnRef)
    ]


def _aggregate_arg_refs(expr: sql.Expression) -> Set[int]:
    """Identities of ColumnRef nodes appearing inside aggregate calls."""
    inside: Set[int] = set()
    for node in sql.walk_expression(expr):
        if isinstance(node, sql.FunctionCall) and (
            node.name in AGGREGATE_NAMES or node.star
        ):
            for arg in node.args:
                for ref in _column_refs(arg):
                    inside.add(id(ref))
    return inside


def _check_condition_refs(
    condition: sql.Expression,
    allowed: Set[str],
    all_columns: Set[str],
    label: str,
    sides_allowed: bool,
    check: int,
) -> None:
    aggregate_refs = _aggregate_arg_refs(condition)
    for ref in _column_refs(condition):
        qualifier_ok = ref.qualifier is None or (
            sides_allowed and ref.qualifier.upper() in RULE_SIDES
        )
        if not qualifier_ok:
            raise MineRuleValidationError(
                f"{label} uses invalid qualifier {ref.qualifier!r} on "
                f"{ref.name!r}"
                + ("" if sides_allowed else " (BODY/HEAD not allowed here)"),
                check=check,
            )
        if id(ref) in aggregate_refs:
            # Relaxed rule: aggregates may range over any source column.
            if ref.name.lower() not in all_columns:
                raise MineRuleValidationError(
                    f"{label} aggregates unknown attribute {ref.name!r}",
                    check=1,
                )
            continue
        if ref.name.lower() not in allowed:
            raise MineRuleValidationError(
                f"{label} can refer only to its partitioning attributes; "
                f"{ref.name!r} is not one of: {', '.join(sorted(allowed))}",
                check=check,
            )
