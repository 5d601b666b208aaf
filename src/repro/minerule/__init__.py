"""The MINE RULE language front end.

This package implements the SQL-like data-mining operator of Section 2
and the grammar of Section 4.1 of the paper: the lexer/parser and the
statement-kind classifier the shell and the job service share
(:mod:`repro.minerule.parser`), the statement AST
(:mod:`repro.minerule.statements`), the semantic checks 1-4 performed
by the translator against the data dictionary
(:mod:`repro.minerule.validator`) and the classification into the
boolean directives H, W, M, G, C, K, F, R
(:mod:`repro.minerule.classifier`).
"""

from repro.minerule.classifier import Directives, classify
from repro.minerule.errors import (
    MineRuleError,
    MineRuleParseError,
    MineRuleValidationError,
)
from repro.minerule.parser import (
    parse_mine_rule,
    parse_refresh,
    statement_kind,
)
from repro.minerule.render import render_mine_rule
from repro.minerule.statements import (
    ItemDescriptor,
    MineRuleStatement,
    RefreshStatement,
)
from repro.minerule.validator import validate

__all__ = [
    "Directives",
    "ItemDescriptor",
    "MineRuleError",
    "MineRuleParseError",
    "MineRuleStatement",
    "MineRuleValidationError",
    "RefreshStatement",
    "classify",
    "parse_mine_rule",
    "parse_refresh",
    "render_mine_rule",
    "statement_kind",
    "validate",
]
