"""Expression compilation: AST expressions lowered to Python closures.

The mining architecture routes each MINE RULE execution through a dozen
generated SQL queries (Q0..Q11), and the row executor evaluates their
predicates, keys and select items once per row.  This module is the
row executor's only scalar expression path: :meth:`ExpressionCompiler.bind`
lowers an expression **once** into a closure taking the row
:class:`~repro.sqlengine.evaluator.Env`:

* a column reference the bind-time :class:`Frame` resolves becomes fixed
  ``env.rows[src][col]`` tuple indexing — no per-row name hashing; one
  it does not resolve (an outer-scope reference of a correlated
  subquery, an ambiguous name, no frame at all) walks the environment
  chain through :meth:`Env.resolve` when called;
* constant LIKE patterns compile their regex once instead of per row;
* dispatch on the node type happens at bind time, so evaluating a row
  is a plain chain of Python calls.

Binding is total and raises nothing about the *query*: an unknown
function, a wrong arity, an aggregate outside a group or a subquery of
the wrong shape lower to closures that raise when (and only when) a row
reaches them, so a short-circuited branch never fails a statement.
Three-valued logic, NULL propagation and evaluation order
(short-circuit AND/OR, IN early exit, CASE branch order, NEXTVAL side
effects) are checked against sqlite3 and against the batch executor's
kernels (``tests/property``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.errors import CatalogError, ExecutionError, SqlTypeError
from repro.sqlengine.evaluator import (
    SCALAR_FUNCTIONS,
    Env,
    Frame,
    _arith,
    _as_truth as _truth,
    _escape_char,
    _like_to_regex,
    _to_str,
    compare,
    reduce_values,
    tvl_and,
    tvl_not,
    tvl_or,
)
from repro.sqlengine.parser import AGGREGATE_NAMES
from repro.sqlengine.types import SqlType, coerce

#: a lowered expression: called with the row Env (or None), returns the value
ExprFn = Callable[[Optional[Env]], Any]

_COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")


def _raiser(message: str) -> ExprFn:
    """A lowering that fails the statement only if a row reaches it."""

    def fn(env):
        raise ExecutionError(message)

    return fn


def _membership(value: Any, candidates: Iterable[Any], negated: bool) -> Any:
    """``value [NOT] IN candidates`` under three-valued logic; stops
    pulling candidates at the first match."""
    saw_null = False
    for candidate in candidates:
        result = compare("=", value, candidate)
        if result is True:
            return not negated
        if result is None:
            saw_null = True
    return None if saw_null else negated


def _single_column(rows: Iterable[Sequence[Any]]) -> Iterable[Any]:
    for row in rows:
        if len(row) != 1:
            raise ExecutionError("IN subquery must return one column")
        yield row[0]


class ExpressionCompiler:
    """Lowers AST expressions to closures over a fixed frame.

    The database supplies what a closure reads at call time: the
    executing thread's host-variable bindings, sequences, and the
    subquery runner.
    """

    def __init__(self, database: Any):
        self._db = database

    def bind(self, expr: ast.Expression, frame: Optional[Frame]) -> ExprFn:
        """A closure evaluating *expr* against row environments of
        *frame* (None: no row context known at bind time)."""
        return self._DISPATCH[type(expr)](self, expr, frame)

    def bind_key(
        self, exprs: Sequence[ast.Expression], frame: Optional[Frame]
    ) -> Callable[[Optional[Env]], tuple]:
        """One tuple-building key function over *exprs* (specialised
        for the common 1- and 2-column join/group keys)."""
        fns = [self.bind(expr, frame) for expr in exprs]
        if not fns:
            return lambda env: ()
        if len(fns) == 1:
            only = fns[0]
            return lambda env: (only(env),)
        if len(fns) == 2:
            first, second = fns
            return lambda env: (first(env), second(env))
        return lambda env: tuple(fn(env) for fn in fns)

    # -- node lowerings ----------------------------------------------------

    def _literal(self, expr: ast.Literal, frame) -> ExprFn:
        value = expr.value
        return lambda env: value

    def _hostvar(self, expr: ast.HostVar, frame) -> ExprFn:
        # Host variables live in the database's *thread-local* binding
        # and are read at call time: closures are cached inside plans
        # and shared by every thread executing that plan, so each
        # lookup must see the statement running on *this* thread.
        database = self._db
        name = expr.name

        def fn(env):
            try:
                return database._params[name]
            except KeyError:
                raise ExecutionError(f"unbound host variable :{name}") from None

        return fn

    def _column(self, expr: ast.ColumnRef, frame) -> ExprFn:
        qualifier, name = expr.qualifier, expr.name
        hit = None
        if frame is not None:
            try:
                hit = frame.lookup(qualifier, name)
            except CatalogError:
                pass  # ambiguous: Env.resolve raises it per row
        if hit is not None:
            src_idx, col_idx = hit
            return lambda env: env.rows[src_idx][col_idx]

        # Not visible in this frame: an outer-scope (correlated)
        # reference, found by the parent-environment walk.
        def fn(env):
            if env is None:
                raise ExecutionError(
                    f"column reference {expr} outside row context"
                )
            return env.resolve(qualifier, name)

        return fn

    def _nextval(self, expr: ast.SequenceNextval, frame) -> ExprFn:
        catalog = self._db.catalog
        sequence = expr.sequence
        return lambda env: catalog.get_sequence(sequence).nextval()

    def _binary(self, expr: ast.BinaryOp, frame) -> ExprFn:
        left = self.bind(expr.left, frame)
        right = self.bind(expr.right, frame)
        op = expr.op
        if op == "AND":

            def fn_and(env):
                lval = _truth(left(env))
                if lval is False:
                    return False
                return tvl_and(lval, _truth(right(env)))

            return fn_and
        if op == "OR":

            def fn_or(env):
                lval = _truth(left(env))
                if lval is True:
                    return True
                return tvl_or(lval, _truth(right(env)))

            return fn_or
        if op in _COMPARISON_OPS:
            return lambda env: compare(op, left(env), right(env))
        if op == "||":

            def fn_concat(env):
                lval = left(env)
                rval = right(env)
                if lval is None or rval is None:
                    return None
                return _to_str(lval) + _to_str(rval)

            return fn_concat

        def fn_arith(env):
            lval = left(env)
            rval = right(env)
            if lval is None or rval is None:
                return None
            return _arith(op, lval, rval)

        return fn_arith

    def _unary(self, expr: ast.UnaryOp, frame) -> ExprFn:
        operand = self.bind(expr.operand, frame)
        op = expr.op
        if op == "NOT":
            return lambda env: tvl_not(_truth(operand(env)))

        def fn(env):
            value = operand(env)
            if value is None:
                return None
            if op != "-":
                raise ExecutionError(f"unknown unary operator {op!r}")
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise SqlTypeError(f"cannot negate {value!r}")
            return -value

        return fn

    def _function(self, expr: ast.FunctionCall, frame) -> ExprFn:
        name = expr.name
        if name in AGGREGATE_NAMES or expr.star:
            return self._aggregate(expr)
        if name == "NULLIF" and len(expr.args) != 2:
            return _raiser("NULLIF takes two arguments")
        if name not in ("COALESCE", "NULLIF") and name not in SCALAR_FUNCTIONS:
            return _raiser(f"unknown function {name!r}")
        arg_fns = [self.bind(arg, frame) for arg in expr.args]
        if name == "COALESCE":

            def fn_coalesce(env):
                for arg in arg_fns:
                    value = arg(env)
                    if value is not None:
                        return value
                return None

            return fn_coalesce
        if name == "NULLIF":
            first_fn, second_fn = arg_fns

            def fn_nullif(env):
                first = first_fn(env)
                second = second_fn(env)
                return None if compare("=", first, second) is True else first

            return fn_nullif
        impl = SCALAR_FUNCTIONS[name]
        if len(arg_fns) == 1:
            only = arg_fns[0]
            return lambda env: impl([only(env)])
        return lambda env: impl([arg(env) for arg in arg_fns])

    def _aggregate(self, expr: ast.FunctionCall) -> ExprFn:
        """An aggregate reads the group of the nearest enclosing scope
        that has one (``ORDER BY SUM(x)`` runs in a projection env
        whose parent is the group).  Its argument is evaluated against
        the group's member rows, so it is bound to *their* frame — on
        first use, since only the call knows which scope that is."""
        name = expr.name
        bound: List[Any] = [(None, None)]  # (group frame, argument closure)

        def fn(env):
            scope = env
            while scope is not None and scope.group is None:
                scope = scope.parent
            if scope is None:
                raise ExecutionError(
                    f"aggregate {name} used outside GROUP BY context"
                )
            group = scope.group
            if expr.star:
                if name != "COUNT":
                    raise ExecutionError(f"{name}(*) is not valid")
                return len(group)
            if len(expr.args) != 1:
                raise ExecutionError(f"{name} takes exactly one argument")
            group_frame, arg_fn = bound[0]
            if group_frame is not scope.frame:
                arg_fn = self.bind(expr.args[0], scope.frame)
                bound[0] = (scope.frame, arg_fn)
            values = [arg_fn(member) for member in group]
            return reduce_values(name, values, expr.distinct)

        return fn

    def _between(self, expr: ast.Between, frame) -> ExprFn:
        value_fn = self.bind(expr.expr, frame)
        low_fn = self.bind(expr.low, frame)
        high_fn = self.bind(expr.high, frame)
        negated = expr.negated

        def fn(env):
            value = value_fn(env)
            low = low_fn(env)
            high = high_fn(env)
            result = tvl_and(
                compare(">=", value, low), compare("<=", value, high)
            )
            return tvl_not(result) if negated else result

        return fn

    def _in_list(self, expr: ast.InList, frame) -> ExprFn:
        value_fn = self.bind(expr.expr, frame)
        item_fns = [self.bind(item, frame) for item in expr.items]
        negated = expr.negated

        def fn(env):
            return _membership(
                value_fn(env), (item(env) for item in item_fns), negated
            )

        return fn

    def _in_subquery(self, expr: ast.InSubquery, frame) -> ExprFn:
        value_fn = self.bind(expr.expr, frame)
        run_subquery = self._db._run_subquery
        subquery, negated = expr.subquery, expr.negated

        def fn(env):
            value = value_fn(env)
            rows = run_subquery(subquery, env)
            return _membership(value, _single_column(rows), negated)

        return fn

    def _exists(self, expr: ast.Exists, frame) -> ExprFn:
        run_subquery = self._db._run_subquery
        subquery, negated = expr.subquery, expr.negated
        return lambda env: (
            bool(run_subquery(subquery, env, limit_one=True)) != negated
        )

    def _scalar_subquery(self, expr: ast.ScalarSubquery, frame) -> ExprFn:
        run_subquery = self._db._run_subquery
        select = expr.select

        def fn(env):
            rows = run_subquery(select, env)
            if not rows:
                return None
            if len(rows) > 1:
                raise ExecutionError("scalar subquery returned more than one row")
            if len(rows[0]) != 1:
                raise ExecutionError("scalar subquery must return one column")
            return rows[0][0]

        return fn

    def _like(self, expr: ast.Like, frame) -> ExprFn:
        value_fn = self.bind(expr.expr, frame)
        negated = expr.negated
        escape_expr = expr.escape
        constant_escape = escape_expr is None or isinstance(
            escape_expr, ast.Literal
        )
        if (
            isinstance(expr.pattern, ast.Literal)
            and isinstance(expr.pattern.value, str)
            and constant_escape
        ):
            if escape_expr is not None and escape_expr.value is None:
                # LIKE ... ESCAPE NULL is NULL for every row
                return lambda env: None
            try:
                escape = (
                    _escape_char(escape_expr.value)
                    if escape_expr is not None
                    else None
                )
                regex = _like_to_regex(expr.pattern.value, escape)
            except ExecutionError as exc:
                return _raiser(str(exc))

            def fn_const(env):
                value = value_fn(env)
                if value is None:
                    return None
                if not isinstance(value, str):
                    raise SqlTypeError("LIKE requires string operands")
                result = bool(regex.match(value))
                return not result if negated else result

            return fn_const
        pattern_fn = self.bind(expr.pattern, frame)
        escape_fn = (
            self.bind(escape_expr, frame) if escape_expr is not None else None
        )

        def fn(env):
            value = value_fn(env)
            pattern = pattern_fn(env)
            if value is None or pattern is None:
                return None
            if not isinstance(value, str) or not isinstance(pattern, str):
                raise SqlTypeError("LIKE requires string operands")
            escape = None
            if escape_fn is not None:
                escape_value = escape_fn(env)
                if escape_value is None:
                    return None
                escape = _escape_char(escape_value)
            # _like_to_regex carries an lru_cache, so dynamic patterns
            # compile once per distinct (pattern, escape) pair.
            result = bool(_like_to_regex(pattern, escape).match(value))
            return not result if negated else result

        return fn

    def _is_null(self, expr: ast.IsNull, frame) -> ExprFn:
        value_fn = self.bind(expr.expr, frame)
        if expr.negated:
            return lambda env: value_fn(env) is not None
        return lambda env: value_fn(env) is None

    def _case(self, expr: ast.Case, frame) -> ExprFn:
        when_fns = [
            (self.bind(cond, frame), self.bind(result, frame))
            for cond, result in expr.whens
        ]
        else_fn = (
            self.bind(expr.else_, frame) if expr.else_ is not None else None
        )
        if expr.operand is not None:
            operand_fn = self.bind(expr.operand, frame)

            def fn_switch(env):
                operand = operand_fn(env)
                for cond_fn, result_fn in when_fns:
                    if compare("=", operand, cond_fn(env)) is True:
                        return result_fn(env)
                return else_fn(env) if else_fn is not None else None

            return fn_switch

        def fn_search(env):
            for cond_fn, result_fn in when_fns:
                if cond_fn(env) is True:
                    return result_fn(env)
            return else_fn(env) if else_fn is not None else None

        return fn_search

    def _cast(self, expr: ast.Cast, frame) -> ExprFn:
        value_fn = self.bind(expr.expr, frame)
        target = expr.target
        # CAST is more lenient than assignment coercion.
        if target is SqlType.VARCHAR:
            convert: Callable[[Any], Any] = _to_str
        elif target is SqlType.INTEGER:
            convert = int
        elif target is SqlType.REAL:
            convert = float
        else:
            convert = lambda value: coerce(value, target)  # noqa: E731

        def fn(env):
            value = value_fn(env)
            if value is None:
                return None
            return convert(value)

        return fn

    def _tuple(self, expr: ast.TupleExpr, frame) -> ExprFn:
        item_fns = [self.bind(item, frame) for item in expr.items]
        return lambda env: tuple(item(env) for item in item_fns)

    def _star(self, expr: ast.Star, frame) -> ExprFn:
        return _raiser("'*' is only valid in a select list or COUNT(*)")

    _DISPATCH: Dict[type, Callable[..., ExprFn]] = {
        ast.Literal: _literal,
        ast.HostVar: _hostvar,
        ast.ColumnRef: _column,
        ast.SequenceNextval: _nextval,
        ast.BinaryOp: _binary,
        ast.UnaryOp: _unary,
        ast.FunctionCall: _function,
        ast.Between: _between,
        ast.InList: _in_list,
        ast.InSubquery: _in_subquery,
        ast.Exists: _exists,
        ast.Like: _like,
        ast.IsNull: _is_null,
        ast.Case: _case,
        ast.Cast: _cast,
        ast.ScalarSubquery: _scalar_subquery,
        ast.TupleExpr: _tuple,
        ast.Star: _star,
    }
