"""Tokenizer for the SQL dialect understood by the engine.

The token stream distinguishes keywords, identifiers, literals
(numbers, strings, dates), host variables (``:name``), and operator /
punctuation symbols.  Keywords are recognised case-insensitively;
identifiers preserve their original spelling but compare
case-insensitively at the catalog level.
"""

from __future__ import annotations

import datetime
import enum
from dataclasses import dataclass
from typing import Any, Iterator, List

from repro.sqlengine.errors import SqlParseError


class TokenType(enum.Enum):
    KEYWORD = "KEYWORD"
    IDENT = "IDENT"
    NUMBER = "NUMBER"
    STRING = "STRING"
    DATE = "DATE"
    HOSTVAR = "HOSTVAR"  # :name
    SYMBOL = "SYMBOL"  # punctuation and operators
    EOF = "EOF"


#: Reserved words of the dialect.  Everything else is an identifier.
KEYWORDS = frozenset(
    """
    SELECT DISTINCT ALL FROM WHERE GROUP BY HAVING ORDER ASC DESC
    AND OR NOT IN BETWEEN LIKE ESCAPE IS NULL TRUE FALSE UNKNOWN EXISTS
    CREATE TABLE VIEW SEQUENCE INDEX DROP DELETE UPDATE SET INSERT INTO VALUES
    AS ON UNION INTERSECT EXCEPT CASE WHEN THEN ELSE END CAST
    COUNT SUM AVG MIN MAX LIMIT OFFSET DATE JOIN INNER LEFT RIGHT OUTER CROSS
    """.split()
)

#: Multi-character operator symbols, longest first.
_SYMBOLS2 = ("<>", "<=", ">=", "!=", "||", "..")
_SYMBOLS1 = "+-*/%(),.<>=;:"


@dataclass(frozen=True)
class Token:
    """One lexical token: its type, uppercase-normalised text for
    keywords/symbols, the literal value for constants, and position."""

    type: TokenType
    text: str
    value: Any
    position: int
    line: int

    def is_keyword(self, *words: str) -> bool:
        return self.type is TokenType.KEYWORD and self.text in words

    def is_symbol(self, *symbols: str) -> bool:
        return self.type is TokenType.SYMBOL and self.text in symbols

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.type.name}, {self.text!r})"



def _is_digit(ch: str) -> bool:
    """ASCII digit check (str.isdigit also matches e.g. superscripts,
    which int() rejects)."""
    return "0" <= ch <= "9"


def _is_ident_start(ch: str) -> bool:
    return ("a" <= ch <= "z") or ("A" <= ch <= "Z") or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return _is_ident_start(ch) or _is_digit(ch)


class Lexer:
    """Single-pass tokenizer; call :meth:`tokens` once per statement."""

    def __init__(self, text: str):
        self._text = text
        self._pos = 0
        self._line = 1

    def tokens(self) -> List[Token]:
        """Tokenize the whole input, appending a trailing EOF token."""
        out = list(self.iter_tokens())
        out.append(Token(TokenType.EOF, "", None, self._pos, self._line))
        return out

    # ------------------------------------------------------------------
    def iter_tokens(self) -> Iterator[Token]:
        """The tokens one at a time, lexed on demand (no EOF token)."""
        text = self._text
        n = len(text)
        while self._pos < n:
            ch = text[self._pos]
            if ch in " \t\r":
                self._pos += 1
            elif ch == "\n":
                self._pos += 1
                self._line += 1
            elif text.startswith("--", self._pos):
                self._skip_line_comment()
            elif text.startswith("/*", self._pos):
                self._skip_block_comment()
            elif _is_digit(ch) or (
                ch == "." and self._pos + 1 < n
                and _is_digit(text[self._pos + 1])
            ):
                yield self._number()
            elif ch == "'":
                yield self._string()
            elif ch == ":" and self._pos + 1 < n and (
                _is_ident_start(text[self._pos + 1])
            ):
                yield self._hostvar()
            elif _is_ident_start(ch) or ch == '"':
                yield self._word()
            else:
                yield self._symbol()

    def _skip_line_comment(self) -> None:
        end = self._text.find("\n", self._pos)
        self._pos = len(self._text) if end < 0 else end

    def _skip_block_comment(self) -> None:
        end = self._text.find("*/", self._pos + 2)
        if end < 0:
            raise SqlParseError("unterminated comment", self._pos, self._line)
        self._line += self._text.count("\n", self._pos, end)
        self._pos = end + 2

    def _number(self) -> Token:
        start = self._pos
        text = self._text
        n = len(text)
        seen_dot = False
        while self._pos < n:
            ch = text[self._pos]
            if _is_digit(ch):
                self._pos += 1
            elif ch == "." and not seen_dot:
                # ".." is the cardinality range operator, not a decimal point
                if text.startswith("..", self._pos):
                    break
                seen_dot = True
                self._pos += 1
            else:
                break
        raw = text[start : self._pos]
        value: Any = float(raw) if seen_dot else int(raw)
        return Token(TokenType.NUMBER, raw, value, start, self._line)

    def _string(self) -> Token:
        start = self._pos
        self._pos += 1  # opening quote
        chars: List[str] = []
        text = self._text
        n = len(text)
        while self._pos < n:
            ch = text[self._pos]
            if ch == "'":
                if self._pos + 1 < n and text[self._pos + 1] == "'":
                    chars.append("'")  # escaped quote
                    self._pos += 2
                    continue
                self._pos += 1
                value = "".join(chars)
                return Token(TokenType.STRING, value, value, start, self._line)
            if ch == "\n":
                self._line += 1
            chars.append(ch)
            self._pos += 1
        raise SqlParseError("unterminated string literal", start, self._line)

    def _hostvar(self) -> Token:
        start = self._pos
        self._pos += 1  # the colon
        text = self._text
        n = len(text)
        while self._pos < n and _is_ident_char(text[self._pos]):
            self._pos += 1
        name = text[start + 1 : self._pos]
        return Token(TokenType.HOSTVAR, name, name, start, self._line)

    def _word(self) -> Token:
        start = self._pos
        text = self._text
        n = len(text)
        if text[self._pos] == '"':  # delimited identifier
            end = text.find('"', self._pos + 1)
            if end < 0:
                raise SqlParseError(
                    "unterminated delimited identifier", start, self._line
                )
            name = text[self._pos + 1 : end]
            self._pos = end + 1
            return Token(TokenType.IDENT, name, name, start, self._line)
        while self._pos < n and _is_ident_char(text[self._pos]):
            self._pos += 1
        word = text[start : self._pos]
        upper = word.upper()
        if upper == "DATE" and self._peek_string_follows():
            return self._date_literal(start)
        if upper in KEYWORDS:
            return Token(TokenType.KEYWORD, upper, None, start, self._line)
        return Token(TokenType.IDENT, word, word, start, self._line)

    def _peek_string_follows(self) -> bool:
        pos = self._pos
        text = self._text
        while pos < len(text) and text[pos] in " \t":
            pos += 1
        return pos < len(text) and text[pos] == "'"

    def _date_literal(self, start: int) -> Token:
        while self._text[self._pos] in " \t":
            self._pos += 1
        string_tok = self._string()
        try:
            value = datetime.date.fromisoformat(string_tok.value)
        except ValueError:
            raise SqlParseError(
                f"invalid DATE literal {string_tok.value!r}", start, self._line
            ) from None
        return Token(TokenType.DATE, string_tok.value, value, start, self._line)

    def _symbol(self) -> Token:
        start = self._pos
        text = self._text
        for sym in _SYMBOLS2:
            if text.startswith(sym, start):
                self._pos += len(sym)
                canonical = "<>" if sym == "!=" else sym
                return Token(TokenType.SYMBOL, canonical, None, start, self._line)
        ch = text[start]
        if ch in _SYMBOLS1:
            self._pos += 1
            return Token(TokenType.SYMBOL, ch, None, start, self._line)
        raise SqlParseError(f"unexpected character {ch!r}", start, self._line)


def tokenize(text: str) -> List[Token]:
    """Convenience wrapper: tokenize *text* into a list of tokens."""
    return Lexer(text).tokens()
