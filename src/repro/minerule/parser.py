"""Parser for the MINE RULE operator (grammar of Section 4.1).

The parser extends the SQL recursive-descent parser so that the
embedded search conditions (mining, source, group and cluster
conditions) and the literal values reuse the engine's expression
grammar unchanged.  MINE RULE-specific words (MINE, RULE, CLUSTER,
EXTRACTING, ...) are ordinary identifiers in the SQL lexer and are
matched case-insensitively here, which keeps the two languages'
keyword spaces from colliding.

Example (the paper's running statement)::

    MINE RULE FilteredOrderedSets AS
    SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD,
           SUPPORT, CONFIDENCE
    WHERE BODY.price >= 100 AND HEAD.price < 100
    FROM Purchase WHERE date BETWEEN DATE '1995-01-01'
                                 AND DATE '1995-12-31'
    GROUP BY customer
    CLUSTER BY date HAVING BODY.date < HEAD.date
    EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Tuple

from repro.minerule.errors import MineRuleParseError
from repro.minerule.statements import (
    ItemDescriptor,
    MineRuleStatement,
    RefreshStatement,
)
from repro.sqlengine import ast_nodes as sql
from repro.sqlengine.errors import SqlParseError
from repro.sqlengine.lexer import Lexer, TokenType
from repro.sqlengine.parser import Parser


class MineRuleParser(Parser):
    """Parses exactly one MINE RULE statement."""

    def __init__(self, text: str):
        super().__init__(text)
        self._text = text

    # -- word helpers (MINE RULE keywords are plain identifiers) ----------

    def _accept_word(self, word: str) -> bool:
        tok = self._current
        if tok.type is TokenType.IDENT and tok.value.upper() == word:
            self._advance()
            return True
        return False

    def _expect_word(self, word: str) -> None:
        if not self._accept_word(word):
            raise self._mr_error(f"expected {word}")

    def _peek_word(self, word: str, offset: int = 0) -> bool:
        tok = self._current if offset == 0 else self._peek(offset)
        return tok.type is TokenType.IDENT and tok.value.upper() == word

    def _mr_error(self, message: str) -> MineRuleParseError:
        tok = self._current
        near = f" (near {tok.text!r})" if tok.text else ""
        return MineRuleParseError(f"{message}{near} at line {tok.line}")

    # -- entry point --------------------------------------------------------

    def parse(self) -> MineRuleStatement:
        try:
            return self._mine_rule()
        except SqlParseError as exc:
            raise MineRuleParseError(str(exc)) from exc

    def parse_refresh(self) -> RefreshStatement:
        try:
            return self._refresh()
        except SqlParseError as exc:
            raise MineRuleParseError(str(exc)) from exc

    def _refresh(self) -> RefreshStatement:
        self._expect_word("REFRESH")
        self._expect_word("RULES")
        output_table = self._expect_ident()
        self._accept_symbol(";")
        if self._current.type is not TokenType.EOF:
            raise self._mr_error("unexpected trailing input")
        return RefreshStatement(output_table=output_table, text=self._text)

    def _mine_rule(self) -> MineRuleStatement:
        self._expect_word("MINE")
        self._expect_word("RULE")
        output_table = self._expect_ident()
        self._expect_keyword("AS")

        self._expect_keyword("SELECT")
        self._expect_keyword("DISTINCT")
        body = self._item_descriptor("BODY")
        self._expect_symbol(",")
        head = self._item_descriptor("HEAD", default_max=1)
        select_support = False
        select_confidence = False
        while self._accept_symbol(","):
            if self._accept_word("SUPPORT"):
                select_support = True
            elif self._accept_word("CONFIDENCE"):
                select_confidence = True
            else:
                raise self._mr_error("expected SUPPORT or CONFIDENCE")

        mining_condition = None
        if self._accept_keyword("WHERE"):
            mining_condition = self._expression()

        self._expect_keyword("FROM")
        from_list = self._mr_from_list()
        source_condition = None
        if self._accept_keyword("WHERE"):
            source_condition = self._expression()

        self._expect_keyword("GROUP")
        self._expect_keyword("BY")
        group_attributes = self._attribute_list()
        group_condition = None
        if self._accept_keyword("HAVING"):
            group_condition = self._expression()

        cluster_attributes: Tuple[str, ...] = ()
        cluster_condition = None
        if self._accept_word("CLUSTER"):
            self._expect_keyword("BY")
            cluster_attributes = tuple(self._attribute_list())
            if self._accept_keyword("HAVING"):
                cluster_condition = self._expression()

        self._expect_word("EXTRACTING")
        self._expect_word("RULES")
        self._expect_word("WITH")
        self._expect_word("SUPPORT")
        self._expect_symbol(":")
        min_support = self._threshold()
        self._expect_symbol(",")
        self._expect_word("CONFIDENCE")
        self._expect_symbol(":")
        min_confidence = self._threshold()

        self._accept_symbol(";")
        if self._current.type is not TokenType.EOF:
            raise self._mr_error("unexpected trailing input")

        return MineRuleStatement(
            output_table=output_table,
            body=body,
            head=head,
            select_support=select_support,
            select_confidence=select_confidence,
            from_list=tuple(from_list),
            group_attributes=tuple(group_attributes),
            min_support=min_support,
            min_confidence=min_confidence,
            mining_condition=mining_condition,
            source_condition=source_condition,
            group_condition=group_condition,
            cluster_attributes=cluster_attributes,
            cluster_condition=cluster_condition,
            text=self._text,
        )

    # -- clause parsers --------------------------------------------------

    def _item_descriptor(self, side: str, default_max: Optional[int] = None
                         ) -> ItemDescriptor:
        """``[<card spec>] <schema> AS BODY|HEAD``.

        Grammar defaults: body 1..n, head 1..1.  ``default_max`` carries
        the head default (None means unbounded).
        """
        card_min, card_max = 1, default_max
        if self._current.type is TokenType.NUMBER:
            card_min, card_max = self._card_spec()
        attributes = [self._expect_ident()]
        while self._accept_symbol(","):
            attributes.append(self._expect_ident())
        self._expect_keyword("AS")
        self._expect_word(side)
        return ItemDescriptor(tuple(attributes), card_min, card_max)

    def _card_spec(self) -> Tuple[int, Optional[int]]:
        low_tok = self._advance()
        if not isinstance(low_tok.value, int):
            raise self._mr_error("cardinality bound must be an integer")
        self._expect_symbol("..")
        tok = self._current
        if tok.type is TokenType.NUMBER:
            self._advance()
            if not isinstance(tok.value, int):
                raise self._mr_error("cardinality bound must be an integer")
            high: Optional[int] = tok.value
        elif tok.type is TokenType.IDENT and tok.value.lower() == "n":
            self._advance()
            high = None
        else:
            raise self._mr_error("expected integer or n after '..'")
        if low_tok.value < 1:
            raise self._mr_error("cardinality lower bound must be >= 1")
        if high is not None and high < low_tok.value:
            raise self._mr_error("empty cardinality range")
        return low_tok.value, high

    def _mr_from_list(self) -> List[sql.TableName]:
        tables = [self._mr_table()]
        while self._accept_symbol(","):
            tables.append(self._mr_table())
        return tables

    def _mr_table(self) -> sql.TableName:
        name = self._expect_ident()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident()
        elif self._current.type is TokenType.IDENT and not self._peek_word_any():
            alias = self._advance().value
        return sql.TableName(name, alias)

    def _peek_word_any(self) -> bool:
        """Whether the current identifier is a MINE RULE clause word."""
        tok = self._current
        return tok.type is TokenType.IDENT and tok.value.upper() in (
            "CLUSTER",
            "EXTRACTING",
        )

    def _attribute_list(self) -> List[str]:
        attrs = [self._expect_ident()]
        while self._accept_symbol(","):
            attrs.append(self._expect_ident())
        return attrs

    def _threshold(self) -> float:
        tok = self._current
        if tok.type is not TokenType.NUMBER:
            raise self._mr_error("expected a numeric threshold")
        self._advance()
        value = float(tok.value)
        if not 0.0 <= value <= 1.0:
            raise self._mr_error(
                f"threshold must be within [0, 1], got {value}"
            )
        return value


def parse_mine_rule(text: str) -> MineRuleStatement:
    """Parse a MINE RULE statement from *text*."""
    try:
        parser = MineRuleParser(text)  # tokenizes: may raise SqlParseError
    except SqlParseError as exc:
        raise MineRuleParseError(str(exc)) from exc
    return parser.parse()


def parse_refresh(text: str) -> RefreshStatement:
    """Parse a ``REFRESH RULES <output_table>`` statement from *text*."""
    try:
        parser = MineRuleParser(text)  # tokenizes: may raise SqlParseError
    except SqlParseError as exc:
        raise MineRuleParseError(str(exc)) from exc
    return parser.parse_refresh()


_STATEMENT_KINDS = {("MINE", "RULE"): "mine", ("REFRESH", "RULES"): "refresh"}


def statement_kind(text: str) -> str:
    """Which front end *text* belongs to, read off its first two
    tokens: ``"mine"`` for ``MINE RULE ...``, ``"refresh"`` for
    ``REFRESH RULES ...``, ``"meta"`` for a shell dot-command,
    ``"sql"`` for everything else — including text the lexer rejects,
    which the SQL parser then reports."""
    text = text.lstrip()
    if text.startswith("."):
        return "meta"
    try:
        head = list(itertools.islice(Lexer(text).iter_tokens(), 2))
    except SqlParseError:
        return "sql"
    words = tuple(
        token.value.upper() for token in head if token.type is TokenType.IDENT
    )
    return _STATEMENT_KINDS.get(words, "sql")
