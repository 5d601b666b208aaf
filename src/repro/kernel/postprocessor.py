"""The Postprocessor (Section 4.4).

The core operator conceptually returns rules as pairs of itemsets of
item identifiers.  To avoid SQL3 set-type constructors ("not
standardized and not yet available on most relational systems") the
rules are stored in a normalized form of three tables:

* ``<out>``               — (BodyId, HeadId [, SUPPORT] [, CONFIDENCE])
* ``OutputBodies``        — (BodyId, Bid), one row per body member
* ``OutputHeads``         — (HeadId, Hid)

:meth:`Postprocessor.store_encoded_rules` is the core operator's output
interface writing those tables; :meth:`Postprocessor.decode` then runs
the translator's postprocessing queries (Appendix A, last query) to
produce the user-readable ``<out>_Bodies`` / ``<out>_Heads`` relations,
plus a denormalized ``<out>_Display`` table serving the paper's
"ease of view" goal (it renders itemsets like ``{brown_boots,jackets}``
exactly as Figure 2b does).

The run's ``RunContext.attempt`` opens the ``postprocessor.store`` /
``.decode`` spans and fault sites around these methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.kernel.core.rules import EncodedRule
from repro.kernel.program import TranslationProgram
from repro.sqlengine.engine import Database
from repro.sqlengine.types import SqlType

#: decoded item: single attribute value, or tuple for composite schemas
Item = Any


class Postprocessor:
    """Stores encoded rules and decodes them against Bset/Hset."""

    def __init__(self, database: Database):
        self._db = database

    # ------------------------------------------------------------------
    # the core operator's output interface
    # ------------------------------------------------------------------

    def store_encoded_rules(
        self, program: TranslationProgram, rules: Sequence[EncodedRule]
    ) -> None:
        """Write ``<out>``, ``OutputBodies`` and ``OutputHeads``.

        Identical bodies (heads) share one identifier, so the auxiliary
        tables stay normalized.
        """
        statement = program.statement
        names = program.workspace
        out = statement.output_table

        body_ids: Dict[FrozenSet[int], int] = {}
        head_ids: Dict[FrozenSet[int], int] = {}
        body_rows: List[Tuple[int, int]] = []
        head_rows: List[Tuple[int, int]] = []
        rule_rows: List[Tuple[Any, ...]] = []

        for rule in rules:
            body_id = body_ids.get(rule.body)
            if body_id is None:
                body_id = len(body_ids) + 1
                body_ids[rule.body] = body_id
                body_rows.extend((body_id, bid) for bid in sorted(rule.body))
            head_id = head_ids.get(rule.head)
            if head_id is None:
                head_id = len(head_ids) + 1
                head_ids[rule.head] = head_id
                head_rows.extend((head_id, hid) for hid in sorted(rule.head))
            row: List[Any] = [body_id, head_id]
            if statement.select_support:
                row.append(rule.support)
            if statement.select_confidence:
                row.append(rule.confidence)
            rule_rows.append(tuple(row))

        columns = ["BodyId", "HeadId"]
        types: List[Optional[SqlType]] = [SqlType.INTEGER, SqlType.INTEGER]
        if statement.select_support:
            columns.append("SUPPORT")
            types.append(SqlType.REAL)
        if statement.select_confidence:
            columns.append("CONFIDENCE")
            types.append(SqlType.REAL)

        self._db.create_table_from_rows(
            out, columns, rule_rows, types, replace=True
        )
        self._db.create_table_from_rows(
            names.output_bodies,
            ["BodyId", "Bid"],
            body_rows,
            [SqlType.INTEGER, SqlType.INTEGER],
            replace=True,
        )
        self._db.create_table_from_rows(
            names.output_heads,
            ["HeadId", "Hid"],
            head_rows,
            [SqlType.INTEGER, SqlType.INTEGER],
            replace=True,
        )

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------

    def decode(self, program: TranslationProgram) -> None:
        """Run the translator's postprocessing queries, then build the
        display table.

        Idempotent: the decode outputs are dropped first, so a retried
        or resumed decode cannot duplicate rows in ``<out>_Bodies`` /
        ``<out>_Heads``.
        """
        out = program.statement.output_table
        for table in (f"{out}_Bodies", f"{out}_Heads", f"{out}_Display"):
            self._db.catalog.drop_table(table, if_exists=True)
        for query in program.postprocessing:
            self._db.execute(query.sql)
        self._build_display(program)

    def item_decoders(
        self, program: TranslationProgram
    ) -> Tuple[Dict[int, Item], Dict[int, Item]]:
        """(body decoder, head decoder): item id -> user-level value.

        Single-attribute schemas decode to the bare value, composite
        schemas to a tuple in schema order.
        """
        names = program.workspace
        statement = program.statement
        body = self._read_item_table(
            names.bset, "Bid", statement.body.attributes
        )
        if program.directives.H:
            head = self._read_item_table(
                names.hset, "Hid", statement.head.attributes
            )
        else:
            head = body
        return body, head

    def decoded_rules(
        self, program: TranslationProgram, rules: Sequence[EncodedRule]
    ) -> List["DecodedRule"]:
        body_decoder, head_decoder = self.item_decoders(program)
        return [
            DecodedRule(
                body=frozenset(body_decoder[bid] for bid in rule.body),
                head=frozenset(head_decoder[hid] for hid in rule.head),
                support=rule.support,
                confidence=rule.confidence,
            )
            for rule in rules
        ]

    # ------------------------------------------------------------------

    def _read_item_table(
        self, table: str, id_column: str, attributes: Sequence[str]
    ) -> Dict[int, Item]:
        attr_list = ", ".join(attributes)
        rows = self._db.query(f"SELECT {id_column}, {attr_list} FROM {table}")
        if len(attributes) == 1:
            return {row[0]: row[1] for row in rows}
        return {row[0]: tuple(row[1:]) for row in rows}

    def _build_display(self, program: TranslationProgram) -> None:
        statement = program.statement
        out = statement.output_table
        body_decoder, head_decoder = self.item_decoders(program)

        columns = ["BODY", "HEAD"]
        if statement.select_support:
            columns.append("SUPPORT")
        if statement.select_confidence:
            columns.append("CONFIDENCE")

        rows = []
        body_members = self._group_members(
            self._db.query(
                f"SELECT BodyId, Bid FROM {program.workspace.output_bodies}"
            )
        )
        head_members = self._group_members(
            self._db.query(
                f"SELECT HeadId, Hid FROM {program.workspace.output_heads}"
            )
        )
        select_cols = ", ".join(["BodyId", "HeadId"] + columns[2:])
        for row in self._db.query(f"SELECT {select_cols} FROM {out}"):
            body_id, head_id = row[0], row[1]
            display_row = [
                render_itemset(body_members[body_id], body_decoder),
                render_itemset(head_members[head_id], head_decoder),
            ]
            display_row.extend(row[2:])
            rows.append(tuple(display_row))
        rows.sort()
        self._db.create_table_from_rows(
            f"{out}_Display", columns, rows, replace=True
        )

    @staticmethod
    def _group_members(rows: Sequence[Tuple[int, int]]) -> Dict[int, List[int]]:
        members: Dict[int, List[int]] = {}
        for set_id, item_id in rows:
            members.setdefault(set_id, []).append(item_id)
        return members


def render_itemset(item_ids: Sequence[int], decoder: Dict[int, Item]) -> str:
    """``{a,b}`` rendering used by the display table (Figure 2b)."""
    values = sorted(_render_item(decoder[item_id]) for item_id in item_ids)
    return "{" + ",".join(values) + "}"


def _render_item(item: Item) -> str:
    if isinstance(item, tuple):
        return "(" + ",".join(str(v) for v in item) + ")"
    return str(item)


@dataclass(frozen=True)
class DecodedRule:
    """A rule decoded to user-level item values."""

    body: FrozenSet[Item]
    head: FrozenSet[Item]
    support: float
    confidence: float

    def __str__(self) -> str:
        body = "{" + ",".join(sorted(map(str, self.body))) + "}"
        head = "{" + ",".join(sorted(map(str, self.head))) + "}"
        return (
            f"{body} => {head} "
            f"(support={self.support:.3f}, confidence={self.confidence:.3f})"
        )
