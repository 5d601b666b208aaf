"""The closure compiler is total: every expression node has a lowering,
binding never fails a statement, and a malformed sub-expression raises
only when a row reaches it — with the class and message captured from
the commit that still had the tree-walking interpreter (these shapes
used to stay interpreted "so the error surfaces at evaluation time").
"""

import pytest

from repro.sqlengine import Database, EngineOptions
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.compiler import ExpressionCompiler
from repro.sqlengine.errors import SqlError


@pytest.fixture(params=[True, False], ids=["batch", "row"])
def db(request):
    database = Database(EngineOptions(vectorize=request.param))
    database.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
    database.execute("CREATE TABLE u (a INTEGER, c INTEGER)")
    database.table("t").insert_many([(1, 2), (3, 4)])
    database.table("u").insert_many([(1, 9), (3, 8)])
    return database


def test_every_expression_node_has_a_lowering():
    nodes = {
        cls for cls in vars(ast).values()
        if isinstance(cls, type) and issubclass(cls, ast.Expression)
    } - {ast.Expression}
    assert len(nodes) == 18 and set(ExpressionCompiler._DISPATCH) == nodes
    # the parser produces neither of these; they still lower, so that
    # no call site has to handle a missing lowering
    bind = ExpressionCompiler(Database()).bind
    for expr, message in (
        (ast.Star(None), "'*' is only valid in a select list or COUNT(*)"),
        (ast.UnaryOp("+", ast.Literal(1)), "unknown unary operator '+'"),
    ):
        with pytest.raises(SqlError) as raised:
            bind(expr, None)(None)
        assert str(raised.value) == message


FORMER_FALLBACK_SEAMS = {
    "SELECT a FROM t, u": "CatalogError: ambiguous column reference: 'a'",
    "SELECT a FROM t WHERE a > :x": "ExecutionError: unbound host variable :x",
    "SELECT nosuchfn(a) FROM t": "ExecutionError: unknown function 'NOSUCHFN'",
    "SELECT NULLIF(1) FROM t": "ExecutionError: NULLIF takes two arguments",
    "SELECT SUM(*) FROM t": "ExecutionError: SUM(*) is not valid",
    "SELECT SUM(a, b) FROM t": "ExecutionError: SUM takes exactly one argument",
    "SELECT a FROM t WHERE SUM(a) > 1":
        "ExecutionError: aggregate SUM used outside GROUP BY context",
    "SELECT a FROM t WHERE a IN (SELECT a, c FROM u)":
        "ExecutionError: IN subquery must return one column",
    "SELECT (SELECT a FROM u) FROM t":
        "ExecutionError: scalar subquery returned more than one row",
    "DELETE FROM t WHERE nosuchfn(a) = 1": "ExecutionError: unknown function 'NOSUCHFN'",
    "UPDATE t SET a = nosuchfn(a) WHERE a = 1": "ExecutionError: unknown function 'NOSUCHFN'",
    "INSERT INTO t VALUES (1, a)": "ExecutionError: column reference a outside row context",
}


@pytest.mark.parametrize("sql", FORMER_FALLBACK_SEAMS)
def test_errors_surface_at_execution_only(db, sql):
    prepared = db.prepare(sql)
    db.explain(sql)
    with pytest.raises(SqlError) as raised:
        prepared.execute()
    error = raised.value
    assert f"{type(error).__name__}: {error}" == FORMER_FALLBACK_SEAMS[sql]
    assert db.query("SELECT a, b FROM t") == [(1, 2), (3, 4)]


@pytest.mark.parametrize("sql, rows", [
    # (the planner splits top-level AND conjuncts and pushes them down
    # one by one, so the short-circuit has to sit below an OR)
    ("SELECT a FROM t WHERE (1 = 0 AND nosuchfn(a) = 1) OR a = 1", [(1,)]),
    ("SELECT a FROM t WHERE a > 0 OR nosuchfn(a) = 1", [(1,), (3,)]),
    ("SELECT CASE WHEN a > 0 THEN a ELSE nosuchfn(a) END FROM t", [(1,), (3,)]),
])
def test_short_circuit_skips_the_bad_subexpression(db, sql, rows):
    assert db.query(sql) == rows
    db.execute("UPDATE t SET a = nosuchfn(a) WHERE a = 99")
    assert db.query("SELECT a FROM t") == [(1,), (3,)]
