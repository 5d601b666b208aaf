"""AST for MINE RULE statements (grammar of Section 4.1).

Embedded search conditions (`<mining cond>`, `<source cond>`,
`<group cond>`, `<cluster cond>`) are ordinary SQL expression trees
from :mod:`repro.sqlengine.ast_nodes`; in the mining and cluster
conditions, column references qualified ``BODY.x`` / ``HEAD.x`` denote
the rule-element sides exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.sqlengine import ast_nodes as sql


@dataclass(frozen=True)
class ItemDescriptor:
    """``[<card spec>] <schema> AS BODY|HEAD``.

    ``attributes`` is the (ordered) attribute list forming rule
    elements; ``card_min``/``card_max`` bound the element-set
    cardinality, with ``card_max is None`` meaning the grammar's ``n``
    (unbounded).
    """

    attributes: Tuple[str, ...]
    card_min: int = 1
    card_max: Optional[int] = None

    def admits(self, cardinality: int) -> bool:
        """Whether an element set of this size satisfies the spec."""
        if cardinality < self.card_min:
            return False
        return self.card_max is None or cardinality <= self.card_max

    @property
    def card_text(self) -> str:
        upper = "n" if self.card_max is None else str(self.card_max)
        return f"{self.card_min}..{upper}"

    def attribute_set(self) -> frozenset:
        return frozenset(a.lower() for a in self.attributes)


@dataclass(frozen=True)
class MineRuleStatement:
    """A parsed MINE RULE operation."""

    output_table: str
    body: ItemDescriptor
    head: ItemDescriptor
    select_support: bool
    select_confidence: bool
    from_list: Tuple[sql.TableName, ...]
    group_attributes: Tuple[str, ...]
    min_support: float
    min_confidence: float
    mining_condition: Optional[sql.Expression] = None
    source_condition: Optional[sql.Expression] = None
    group_condition: Optional[sql.Expression] = None
    cluster_attributes: Tuple[str, ...] = ()
    cluster_condition: Optional[sql.Expression] = None
    #: original statement text (kept for diagnostics / logging)
    text: str = ""

    @property
    def has_clusters(self) -> bool:
        return bool(self.cluster_attributes)

    @property
    def same_schema(self) -> bool:
        """True when body and head are defined on the same attributes
        (the H directive is the negation of this)."""
        return self.body.attribute_set() == self.head.attribute_set()

    def describe(self) -> str:
        """One-line summary used in traces and examples."""
        parts = [
            f"MINE RULE {self.output_table}",
            f"body {','.join(self.body.attributes)} [{self.body.card_text}]",
            f"head {','.join(self.head.attributes)} [{self.head.card_text}]",
            f"group by {','.join(self.group_attributes)}",
        ]
        if self.cluster_attributes:
            parts.append(f"cluster by {','.join(self.cluster_attributes)}")
        parts.append(f"support>={self.min_support}")
        parts.append(f"confidence>={self.min_confidence}")
        return "; ".join(parts)


@dataclass(frozen=True)
class RefreshStatement:
    """``REFRESH RULES <output_table>`` — bring a previously mined rule
    table up to date with rows appended to its source since the last
    run (or refresh) of the owning MINE RULE statement."""

    output_table: str
    #: original statement text (kept for diagnostics / logging)
    text: str = ""

    def describe(self) -> str:
        return f"REFRESH RULES {self.output_table}"
