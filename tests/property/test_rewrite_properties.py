"""Properties of the translator's expression rewriting.

``kernel.rewrite.transform`` rebuilds an expression through
``ast_nodes.map_children`` and ``ast_nodes.walk_expression`` walks it
through ``ast_nodes.children``; both read one table of each node's
sub-expression fields.  Over generated expressions of every node kind
(subqueries, CASE with and without operand, LIKE with and without
ESCAPE included):

* rebuilding with no replacement returns an equal expression, so no
  field is dropped (a LIKE used to lose its ESCAPE);
* after a rewrite of every column reference the walk finds none left,
  so walk and rebuild reach the same sub-expressions (the operand of
  ``IN (subquery)`` used to be walked but not rewritten).
"""

from hypothesis import given, settings, strategies as st

from repro.kernel.rewrite import requalify, transform
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.parser import parse_sql

SUBQUERY = "SELECT item FROM Purchase WHERE price > BODY.price"

leaves = st.sampled_from([
    "1", "2.5", "'x'", "NULL", "TRUE", ":v", "item", "BODY.item",
    "HEAD.price", "DATE '1995-12-17'",
])


def _compound(children):
    """One node over *children*, for every expression node kind."""
    pair = st.tuples(children, children)
    return st.one_of(
        pair.map(lambda p: f"({p[0]} + {p[1]})"),
        pair.map(lambda p: f"({p[0]} < {p[1]})"),
        pair.map(lambda p: f"({p[0]} AND {p[1]})"),
        pair.map(lambda p: f"({p[0]} || {p[1]})"),
        children.map(lambda c: f"(NOT {c})"),
        children.map(lambda c: f"(-{c})"),
        pair.map(lambda p: f"COALESCE({p[0]}, {p[1]})"),
        children.map(lambda c: f"COUNT(DISTINCT {c})"),
        st.just("COUNT(*)"),
        st.tuples(children, children, children).map(
            lambda t: f"({t[0]} BETWEEN {t[1]} AND {t[2]})"
        ),
        pair.map(lambda p: f"({p[0]} NOT IN ({p[1]}, 3))"),
        children.map(lambda c: f"({c} IN ({SUBQUERY}))"),
        st.just(f"(EXISTS ({SUBQUERY}))"),
        st.just(f"({SUBQUERY})"),
        pair.map(lambda p: f"({p[0]} LIKE {p[1]})"),
        pair.map(lambda p: f"({p[0]} NOT LIKE {p[1]} ESCAPE '!')"),
        children.map(lambda c: f"({c} IS NOT NULL)"),
        st.tuples(children, children, children).map(
            lambda t: f"(CASE WHEN {t[0]} THEN {t[1]} ELSE {t[2]} END)"
        ),
        pair.map(lambda p: f"(CASE {p[0]} WHEN 1 THEN {p[1]} END)"),
        children.map(lambda c: f"CAST({c} AS FLOAT)"),
        pair.map(lambda p: f"(({p[0]}, {p[1]}) = (1, 2))"),
    )


expressions = st.recursive(leaves, _compound, max_leaves=12)


def parsed(text):
    return parse_sql(f"SELECT {text} FROM Purchase").items[0].expr


def column_refs(expr):
    return [
        node for node in ast.walk_expression(expr)
        if isinstance(node, ast.ColumnRef)
    ]


@settings(max_examples=100, deadline=None)
@given(text=expressions)
def test_rebuilding_without_a_replacement_is_the_identity(text):
    expr = parsed(text)
    assert transform(expr, lambda node: None) == expr


@settings(max_examples=100, deadline=None)
@given(text=expressions)
def test_a_rewrite_reaches_every_walked_column(text):
    expr = parsed(text)
    moved = requalify(expr, {"BODY": "B", "HEAD": "H", "": "S"})
    assert [ref.qualifier for ref in column_refs(moved)] == [
        {"BODY": "B", "HEAD": "H", None: "S"}[ref.qualifier]
        for ref in column_refs(expr)
    ]
