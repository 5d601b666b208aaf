"""Recursive-descent parser producing :mod:`repro.sqlengine.ast_nodes`.

Grammar coverage (a pragmatic SQL92 subset, Oracle-flavoured where the
paper's Appendix A requires it):

* ``SELECT [DISTINCT] items [INTO :v, ..] FROM sources [WHERE] [GROUP BY
  [HAVING]] [ORDER BY] [LIMIT [OFFSET]]`` with UNION/INTERSECT/EXCEPT;
* implicit joins (comma-separated FROM list), explicit ``[INNER|LEFT
  [OUTER]|CROSS] JOIN .. ON``, derived tables;
* scalar, ``IN``, ``EXISTS`` subqueries; ``BETWEEN``, ``LIKE``,
  ``IS [NOT] NULL``, ``CASE``, ``CAST``;
* ``CREATE TABLE`` (with column list or ``AS SELECT``), ``CREATE
  [OR REPLACE] VIEW``, ``CREATE SEQUENCE``, ``CREATE INDEX``, ``DROP``;
* ``INSERT INTO t [cols] VALUES (..), ..`` and ``INSERT INTO t (SELECT ..)``;
* ``DELETE``, ``UPDATE``;
* host variables ``:name`` anywhere a scalar is allowed, and
  ``sequence.NEXTVAL``.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.errors import SqlParseError
from repro.sqlengine.lexer import Token, TokenType, tokenize
from repro.sqlengine.types import type_from_name

#: Comparison operators at the lowest binary-expression tier.
_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")

#: Names treated as aggregate functions by the planner.
AGGREGATE_NAMES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


class Parser:
    """Parses one SQL statement from a token list."""

    def __init__(self, text: str):
        self._tokens = tokenize(text)
        self._index = 0

    # -- token utilities ------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _peek(self, offset: int = 1) -> Token:
        idx = min(self._index + offset, len(self._tokens) - 1)
        return self._tokens[idx]

    def _advance(self) -> Token:
        tok = self._current
        if tok.type is not TokenType.EOF:
            self._index += 1
        return tok

    def _error(self, message: str) -> SqlParseError:
        tok = self._current
        return SqlParseError(
            f"{message} (near {tok.text!r})" if tok.text else message,
            tok.position,
            tok.line,
        )

    def _accept_keyword(self, *words: str) -> bool:
        if self._current.is_keyword(*words):
            self._advance()
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        if not self._accept_keyword(word):
            raise self._error(f"expected {word}")

    def _accept_symbol(self, *symbols: str) -> bool:
        if self._current.is_symbol(*symbols):
            self._advance()
            return True
        return False

    def _expect_symbol(self, symbol: str) -> None:
        if not self._accept_symbol(symbol):
            raise self._error(f"expected {symbol!r}")

    def _expect_ident(self) -> str:
        tok = self._current
        if tok.type is TokenType.IDENT:
            self._advance()
            return tok.value
        # Allow non-reserved-sounding keywords as identifiers where
        # unambiguous (e.g. a column named "date" parses as DATE keyword).
        if tok.type is TokenType.KEYWORD and tok.text in ("DATE", "SET", "ALL"):
            self._advance()
            return tok.text.lower()
        raise self._error("expected identifier")

    # -- entry point ----------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        """Parse a single statement and require EOF (an optional
        trailing semicolon is consumed)."""
        stmt = self._statement()
        self._accept_symbol(";")
        if self._current.type is not TokenType.EOF:
            raise self._error("unexpected trailing input")
        return stmt

    def _statement(self) -> ast.Statement:
        tok = self._current
        if tok.is_keyword("SELECT") or tok.is_symbol("("):
            return self._select()
        if tok.is_keyword("CREATE"):
            return self._create()
        if tok.is_keyword("DROP"):
            return self._drop()
        if tok.is_keyword("INSERT"):
            return self._insert()
        if tok.is_keyword("DELETE"):
            return self._delete()
        if tok.is_keyword("UPDATE"):
            return self._update()
        raise self._error("expected a SQL statement")

    # -- SELECT ----------------------------------------------------------

    def _select(self) -> ast.Select:
        """Parse a query expression: SELECT blocks joined by set
        operations, then ORDER BY / LIMIT / OFFSET, which belong to the
        whole compound and apply after the set operations."""
        left = self._select_core()
        set_ops: List[Tuple[str, bool, ast.Select]] = []
        while self._current.is_keyword("UNION", "INTERSECT", "EXCEPT"):
            op = self._advance().text
            all_flag = self._accept_keyword("ALL")
            set_ops.append((op, all_flag, self._select_core()))
        order_by: Tuple[ast.OrderItem, ...] = ()
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_items = [self._order_item()]
            while self._accept_symbol(","):
                order_items.append(self._order_item())
            order_by = tuple(order_items)
        limit = self._expression() if self._accept_keyword("LIMIT") else None
        offset = self._expression() if self._accept_keyword("OFFSET") else None
        if self._current.is_keyword("UNION", "INTERSECT", "EXCEPT"):
            clause = "ORDER BY" if order_by else "LIMIT" if limit else "OFFSET"
            raise self._error(
                f"{clause} clause should come after "
                f"{self._current.text} not before"
            )
        if not set_ops and not order_by and limit is None and offset is None:
            return left
        if left.set_ops or left.order_by or left.limit or left.offset:
            # a parenthesized query keeps its own clauses
            left = ast.Select(
                items=(ast.SelectItem(ast.Star()),),
                from_sources=(ast.SubquerySource(left, None),),
            )
        return dataclasses.replace(
            left,
            order_by=order_by,
            limit=limit,
            offset=offset,
            set_ops=tuple(set_ops),
        )

    def _select_core(self) -> ast.Select:
        """One SELECT block (or a parenthesized query expression)."""
        if self._accept_symbol("("):
            inner = self._select()
            self._expect_symbol(")")
            return inner
        self._expect_keyword("SELECT")
        distinct = False
        if self._accept_keyword("DISTINCT"):
            distinct = True
        else:
            self._accept_keyword("ALL")
        items = self._select_items()
        into_vars: List[str] = []
        if self._accept_keyword("INTO"):
            into_vars.append(self._expect_hostvar())
            while self._accept_symbol(","):
                into_vars.append(self._expect_hostvar())
        from_sources: Tuple[ast.FromSource, ...] = ()
        if self._accept_keyword("FROM"):
            from_sources = self._from_list()
        where = self._expression() if self._accept_keyword("WHERE") else None
        group_by: Tuple[ast.Expression, ...] = ()
        having = None
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            exprs = [self._expression()]
            while self._accept_symbol(","):
                exprs.append(self._expression())
            group_by = tuple(exprs)
        if self._accept_keyword("HAVING"):
            having = self._expression()
        return ast.Select(
            items=tuple(items),
            from_sources=from_sources,
            where=where,
            group_by=group_by,
            having=having,
            distinct=distinct,
            into_vars=tuple(into_vars),
        )

    def _expect_hostvar(self) -> str:
        tok = self._current
        if tok.type is not TokenType.HOSTVAR:
            raise self._error("expected host variable (:name)")
        self._advance()
        return tok.value

    def _select_items(self) -> List[ast.SelectItem]:
        items = [self._select_item()]
        while self._accept_symbol(","):
            items.append(self._select_item())
        return items

    def _select_item(self) -> ast.SelectItem:
        if self._current.is_symbol("*"):
            self._advance()
            return ast.SelectItem(ast.Star())
        # alias.* — identifier followed by ".*"
        if (
            self._current.type is TokenType.IDENT
            and self._peek().is_symbol(".")
            and self._peek(2).is_symbol("*")
        ):
            qualifier = self._advance().value
            self._advance()  # .
            self._advance()  # *
            return ast.SelectItem(ast.Star(qualifier))
        expr = self._expression()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident()
        elif self._current.type is TokenType.IDENT:
            alias = self._advance().value
        return ast.SelectItem(expr, alias)

    def _order_item(self) -> ast.OrderItem:
        expr = self._expression()
        ascending = True
        if self._accept_keyword("DESC"):
            ascending = False
        else:
            self._accept_keyword("ASC")
        return ast.OrderItem(expr, ascending)

    # -- FROM ------------------------------------------------------------

    def _from_list(self) -> Tuple[ast.FromSource, ...]:
        sources = [self._joined_source()]
        while self._accept_symbol(","):
            sources.append(self._joined_source())
        return tuple(sources)

    def _joined_source(self) -> ast.FromSource:
        left = self._table_source()
        while True:
            kind = None
            if self._accept_keyword("CROSS"):
                kind = "CROSS"
                self._expect_keyword("JOIN")
            elif self._accept_keyword("INNER"):
                kind = "INNER"
                self._expect_keyword("JOIN")
            elif self._accept_keyword("LEFT"):
                kind = "LEFT"
                self._accept_keyword("OUTER")
                self._expect_keyword("JOIN")
            elif self._accept_keyword("JOIN"):
                kind = "INNER"
            else:
                return left
            right = self._table_source()
            condition = None
            if kind != "CROSS":
                self._expect_keyword("ON")
                condition = self._expression()
            left = ast.Join(kind, left, right, condition)

    def _table_source(self) -> ast.FromSource:
        if self._accept_symbol("("):
            select = self._select()
            self._expect_symbol(")")
            alias = self._source_alias()
            return ast.SubquerySource(select, alias)
        name = self._expect_ident()
        alias = self._source_alias()
        return ast.TableName(name, alias)

    def _source_alias(self) -> Optional[str]:
        if self._accept_keyword("AS"):
            return self._expect_ident()
        if self._current.type is TokenType.IDENT:
            return self._advance().value
        return None

    # -- expressions -------------------------------------------------------
    # precedence: OR < AND < NOT < comparison/IN/BETWEEN/LIKE/IS < add < mul
    #             < unary < primary

    def _expression(self) -> ast.Expression:
        return self._or_expr()

    def _or_expr(self) -> ast.Expression:
        expr = self._and_expr()
        while self._accept_keyword("OR"):
            expr = ast.BinaryOp("OR", expr, self._and_expr())
        return expr

    def _and_expr(self) -> ast.Expression:
        expr = self._not_expr()
        while self._accept_keyword("AND"):
            expr = ast.BinaryOp("AND", expr, self._not_expr())
        return expr

    def _not_expr(self) -> ast.Expression:
        if self._accept_keyword("NOT"):
            return ast.UnaryOp("NOT", self._not_expr())
        return self._predicate()

    def _predicate(self) -> ast.Expression:
        if self._current.is_keyword("EXISTS"):
            self._advance()
            self._expect_symbol("(")
            sub = self._select()
            self._expect_symbol(")")
            return ast.Exists(sub)
        expr = self._additive()
        while True:
            if self._current.is_symbol(*_COMPARISONS):
                op = self._advance().text
                expr = ast.BinaryOp(op, expr, self._additive())
                continue
            negated = False
            if self._current.is_keyword("NOT") and self._peek().is_keyword(
                "BETWEEN", "IN", "LIKE"
            ):
                self._advance()
                negated = True
            if self._accept_keyword("BETWEEN"):
                low = self._additive()
                self._expect_keyword("AND")
                high = self._additive()
                expr = ast.Between(expr, low, high, negated)
                continue
            if self._accept_keyword("IN"):
                expr = self._in_tail(expr, negated)
                continue
            if self._accept_keyword("LIKE"):
                pattern = self._additive()
                escape = (
                    self._additive()
                    if self._accept_keyword("ESCAPE")
                    else None
                )
                expr = ast.Like(expr, pattern, negated, escape)
                continue
            if self._accept_keyword("IS"):
                is_negated = self._accept_keyword("NOT")
                self._expect_keyword("NULL")
                expr = ast.IsNull(expr, is_negated)
                continue
            return expr

    def _in_tail(self, expr: ast.Expression, negated: bool) -> ast.Expression:
        self._expect_symbol("(")
        if self._current.is_keyword("SELECT"):
            sub = self._select()
            self._expect_symbol(")")
            return ast.InSubquery(expr, sub, negated)
        items = [self._expression()]
        while self._accept_symbol(","):
            items.append(self._expression())
        self._expect_symbol(")")
        return ast.InList(expr, tuple(items), negated)

    def _additive(self) -> ast.Expression:
        expr = self._multiplicative()
        while self._current.is_symbol("+", "-", "||"):
            op = self._advance().text
            expr = ast.BinaryOp(op, expr, self._multiplicative())
        return expr

    def _multiplicative(self) -> ast.Expression:
        expr = self._unary()
        while self._current.is_symbol("*", "/", "%"):
            op = self._advance().text
            expr = ast.BinaryOp(op, expr, self._unary())
        return expr

    def _unary(self) -> ast.Expression:
        if self._current.is_symbol("-", "+"):
            op = self._advance().text
            operand = self._unary()
            if op == "-":
                if isinstance(operand, ast.Literal) and isinstance(
                    operand.value, (int, float)
                ):
                    return ast.Literal(-operand.value)
                return ast.UnaryOp("-", operand)
            return operand
        return self._primary()

    def _primary(self) -> ast.Expression:
        tok = self._current
        if tok.type is TokenType.NUMBER:
            self._advance()
            return ast.Literal(tok.value)
        if tok.type is TokenType.STRING:
            self._advance()
            return ast.Literal(tok.value)
        if tok.type is TokenType.DATE:
            self._advance()
            return ast.Literal(tok.value)
        if tok.type is TokenType.HOSTVAR:
            self._advance()
            return ast.HostVar(tok.value)
        if tok.is_keyword("NULL"):
            self._advance()
            return ast.Literal(None)
        if tok.is_keyword("TRUE"):
            self._advance()
            return ast.Literal(True)
        if tok.is_keyword("FALSE"):
            self._advance()
            return ast.Literal(False)
        if tok.is_keyword("CASE"):
            return self._case()
        if tok.is_keyword("CAST"):
            return self._cast()
        if tok.is_keyword("COUNT", "SUM", "AVG", "MIN", "MAX"):
            return self._function_call(self._advance().text)
        if tok.is_symbol("("):
            self._advance()
            if self._current.is_keyword("SELECT"):
                sub = self._select()
                self._expect_symbol(")")
                return ast.ScalarSubquery(sub)
            first = self._expression()
            if self._accept_symbol(","):
                items = [first, self._expression()]
                while self._accept_symbol(","):
                    items.append(self._expression())
                self._expect_symbol(")")
                return ast.TupleExpr(tuple(items))
            self._expect_symbol(")")
            return first
        if tok.type is TokenType.IDENT:
            return self._identifier_expression()
        if tok.is_keyword("DATE"):
            # A bare DATE keyword (no string literal follows, otherwise the
            # lexer would have produced a DATE token) is a column named
            # "date" — the paper's Purchase table uses exactly that name.
            self._advance()
            return ast.ColumnRef(None, "date")
        raise self._error("expected an expression")

    def _identifier_expression(self) -> ast.Expression:
        name = self._advance().value
        if self._current.is_symbol("(") :
            return self._function_call(name.upper())
        if self._accept_symbol("."):
            attr_tok = self._current
            if attr_tok.type is TokenType.IDENT and attr_tok.value.upper() == "NEXTVAL":
                self._advance()
                return ast.SequenceNextval(name)
            attr = self._expect_ident()
            return ast.ColumnRef(name, attr)
        return ast.ColumnRef(None, name)

    def _function_call(self, name: str) -> ast.Expression:
        self._expect_symbol("(")
        if self._accept_symbol("*"):
            self._expect_symbol(")")
            return ast.FunctionCall(name, star=True)
        distinct = self._accept_keyword("DISTINCT")
        args: List[ast.Expression] = []
        if not self._current.is_symbol(")"):
            args.append(self._expression())
            while self._accept_symbol(","):
                args.append(self._expression())
        self._expect_symbol(")")
        return ast.FunctionCall(name, tuple(args), distinct=distinct)

    def _case(self) -> ast.Expression:
        self._expect_keyword("CASE")
        operand = None
        if not self._current.is_keyword("WHEN"):
            operand = self._expression()
        whens: List[Tuple[ast.Expression, ast.Expression]] = []
        while self._accept_keyword("WHEN"):
            cond = self._expression()
            self._expect_keyword("THEN")
            whens.append((cond, self._expression()))
        if not whens:
            raise self._error("CASE requires at least one WHEN")
        else_ = self._expression() if self._accept_keyword("ELSE") else None
        self._expect_keyword("END")
        return ast.Case(operand, tuple(whens), else_)

    def _cast(self) -> ast.Expression:
        self._expect_keyword("CAST")
        self._expect_symbol("(")
        expr = self._expression()
        self._expect_keyword("AS")
        type_name = self._type_name()
        self._expect_symbol(")")
        return ast.Cast(expr, type_name)

    def _type_name(self):
        tok = self._current
        if tok.type is TokenType.IDENT:
            name = self._advance().value
        elif tok.is_keyword("DATE"):
            self._advance()
            name = "DATE"
        else:
            raise self._error("expected type name")
        # optional length/precision, e.g. VARCHAR(30), NUMERIC(8,2)
        if self._accept_symbol("("):
            while not self._accept_symbol(")"):
                self._advance()
        return type_from_name(name)

    # -- DDL ---------------------------------------------------------------

    def _create(self) -> ast.Statement:
        self._expect_keyword("CREATE")
        if self._accept_keyword("TABLE"):
            return self._create_table()
        or_replace = False
        if self._accept_keyword("OR"):
            replace_tok = self._expect_ident()
            if replace_tok.upper() != "REPLACE":
                raise self._error("expected REPLACE")
            or_replace = True
        if self._accept_keyword("VIEW"):
            name = self._expect_ident()
            self._expect_keyword("AS")
            if self._accept_symbol("("):
                select = self._select()
                self._expect_symbol(")")
            else:
                select = self._select()
            return ast.CreateView(name, select, or_replace)
        if self._accept_keyword("SEQUENCE"):
            name = self._expect_ident()
            start = 1
            if self._current.type is TokenType.IDENT and (
                self._current.value.upper() == "START"
            ):
                self._advance()
                if self._current.type is TokenType.IDENT and (
                    self._current.value.upper() == "WITH"
                ):
                    self._advance()
                tok = self._current
                if tok.type is not TokenType.NUMBER:
                    raise self._error("expected number after START")
                self._advance()
                start = int(tok.value)
            return ast.CreateSequence(name, start)
        if self._accept_keyword("INDEX"):
            name = self._expect_ident()
            self._expect_keyword("ON")
            table = self._expect_ident()
            self._expect_symbol("(")
            columns = [self._expect_ident()]
            while self._accept_symbol(","):
                columns.append(self._expect_ident())
            self._expect_symbol(")")
            return ast.CreateIndex(name, table, tuple(columns))
        raise self._error("expected TABLE, VIEW, SEQUENCE or INDEX")

    def _create_table(self) -> ast.Statement:
        if_not_exists = False
        name = self._expect_ident()
        if self._accept_keyword("AS"):
            if self._accept_symbol("("):
                select = self._select()
                self._expect_symbol(")")
            else:
                select = self._select()
            return ast.CreateTableAsSelect(name, select)
        self._expect_symbol("(")
        columns = [self._column_def()]
        while self._accept_symbol(","):
            columns.append(self._column_def())
        self._expect_symbol(")")
        return ast.CreateTable(name, tuple(columns), if_not_exists)

    def _column_def(self) -> ast.ColumnDef:
        name = self._expect_ident()
        col_type = self._type_name()
        # tolerate (and ignore) NOT NULL / PRIMARY KEY decorations
        while True:
            if self._current.is_keyword("NOT") and self._peek().is_keyword("NULL"):
                self._advance()
                self._advance()
            elif (
                self._current.type is TokenType.IDENT
                and self._current.value.upper() in ("PRIMARY", "UNIQUE")
            ):
                self._advance()
                if (
                    self._current.type is TokenType.IDENT
                    and self._current.value.upper() == "KEY"
                ):
                    self._advance()
            else:
                break
        return ast.ColumnDef(name, col_type)

    def _drop(self) -> ast.DropObject:
        self._expect_keyword("DROP")
        if self._accept_keyword("TABLE"):
            kind = "TABLE"
        elif self._accept_keyword("VIEW"):
            kind = "VIEW"
        elif self._accept_keyword("SEQUENCE"):
            kind = "SEQUENCE"
        elif self._accept_keyword("INDEX"):
            kind = "INDEX"
        else:
            raise self._error("expected TABLE, VIEW, SEQUENCE or INDEX")
        if_exists = False
        if (
            self._current.type is TokenType.IDENT
            and self._current.value.upper() == "IF"
        ):
            self._advance()
            if self._accept_keyword("EXISTS"):
                if_exists = True
            else:
                raise self._error("expected EXISTS after IF")
        name = self._expect_ident()
        return ast.DropObject(kind, name, if_exists)

    # -- DML ---------------------------------------------------------------

    def _insert(self) -> ast.Statement:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._expect_ident()
        columns: Tuple[str, ...] = ()
        # Disambiguate "(col, ..)" from "(SELECT ..)"
        if self._current.is_symbol("(") and not self._peek().is_keyword("SELECT"):
            self._advance()
            names = [self._expect_ident()]
            while self._accept_symbol(","):
                names.append(self._expect_ident())
            self._expect_symbol(")")
            columns = tuple(names)
        if self._accept_keyword("VALUES"):
            rows = [self._value_row()]
            while self._accept_symbol(","):
                rows.append(self._value_row())
            return ast.InsertValues(table, columns, tuple(rows))
        if self._current.is_symbol("(") or self._current.is_keyword("SELECT"):
            wrapped = self._accept_symbol("(")
            select = self._select()
            if wrapped:
                self._accept_symbol(")")  # Appendix A omits some closers
            return ast.InsertSelect(table, columns, select)
        raise self._error("expected VALUES or SELECT")

    def _value_row(self) -> Tuple[ast.Expression, ...]:
        self._expect_symbol("(")
        values = [self._expression()]
        while self._accept_symbol(","):
            values.append(self._expression())
        self._expect_symbol(")")
        return tuple(values)

    def _delete(self) -> ast.Delete:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._expect_ident()
        where = self._expression() if self._accept_keyword("WHERE") else None
        return ast.Delete(table, where)

    def _update(self) -> ast.Update:
        self._expect_keyword("UPDATE")
        table = self._expect_ident()
        self._expect_keyword("SET")
        assignments = [self._assignment()]
        while self._accept_symbol(","):
            assignments.append(self._assignment())
        where = self._expression() if self._accept_keyword("WHERE") else None
        return ast.Update(table, tuple(assignments), where)

    def _assignment(self) -> Tuple[str, ast.Expression]:
        name = self._expect_ident()
        self._expect_symbol("=")
        return name, self._expression()


def parse_sql(text: str) -> ast.Statement:
    """Parse a single SQL statement."""
    return Parser(text).parse_statement()


def parse_script(text: str) -> List[ast.Statement]:
    """Parse a semicolon-separated script into a statement list.

    Semicolons inside string literals are honoured.
    """
    statements: List[ast.Statement] = []
    for chunk in split_statements(text):
        statements.append(parse_sql(chunk))
    return statements


def split_statements(text: str) -> List[str]:
    """Split a script on top-level semicolons, respecting quotes."""
    chunks: List[str] = []
    depth_quote = False
    start = 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "'":
            depth_quote = not depth_quote
        elif ch == ";" and not depth_quote:
            chunk = text[start:i].strip()
            if chunk:
                chunks.append(chunk)
            start = i + 1
        i += 1
    tail = text[start:].strip()
    if tail:
        chunks.append(tail)
    return chunks
