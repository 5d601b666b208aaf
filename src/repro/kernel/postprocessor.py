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
from repro.sqlengine.table import Table
from repro.sqlengine.types import SqlType

#: decoded item: single attribute value, or tuple for composite schemas
Item = Any

#: (body decoder, head decoder): item id -> user-level value
Decoders = Tuple[Dict[int, Item], Dict[int, Item]]


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
        bodies: Tuple[List[int], List[int]] = ([], [])  # BodyId, Bid
        heads: Tuple[List[int], List[int]] = ([], [])  # HeadId, Hid
        rule_bodies: List[int] = []
        rule_heads: List[int] = []

        for rule in rules:
            body_id = body_ids.get(rule.body)
            if body_id is None:
                body_id = body_ids[rule.body] = len(body_ids) + 1
                _add_members(bodies, body_id, rule.body)
            head_id = head_ids.get(rule.head)
            if head_id is None:
                head_id = head_ids[rule.head] = len(head_ids) + 1
                _add_members(heads, head_id, rule.head)
            rule_bodies.append(body_id)
            rule_heads.append(head_id)

        columns = ["BodyId", "HeadId"]
        types: List[Optional[SqlType]] = [SqlType.INTEGER, SqlType.INTEGER]
        values: List[List[Any]] = [rule_bodies, rule_heads]
        if statement.select_support:
            columns.append("SUPPORT")
            types.append(SqlType.REAL)
            values.append([rule.support for rule in rules])
        if statement.select_confidence:
            columns.append("CONFIDENCE")
            types.append(SqlType.REAL)
            values.append([rule.confidence for rule in rules])

        self._create_table(out, columns, types, values)
        self._create_table(
            names.output_bodies, ["BodyId", "Bid"],
            [SqlType.INTEGER, SqlType.INTEGER], bodies,
        )
        self._create_table(
            names.output_heads, ["HeadId", "Hid"],
            [SqlType.INTEGER, SqlType.INTEGER], heads,
        )

    def _create_table(
        self, name: str, columns: Sequence[str],
        types: Sequence[Optional[SqlType]], values: Sequence[List[Any]],
    ) -> None:
        """(Re)create table *name* holding the column lists *values*,
        one per column: written column-wise, no row tuples."""
        self._db.catalog.drop_table(name, if_exists=True)
        table = Table(name, columns, types)
        table.insert_columns(values)
        self._db.catalog.create_table(table)

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------

    def decode(self, program: TranslationProgram) -> Decoders:
        """Run the translator's postprocessing queries, then build the
        display table; returns the item decoders it read, for
        :meth:`decoded_rules`.

        Idempotent: the decode outputs are dropped first, so a retried
        or re-run decode cannot duplicate rows in ``<out>_Bodies`` /
        ``<out>_Heads``.
        """
        out = program.statement.output_table
        for table in (f"{out}_Bodies", f"{out}_Heads", f"{out}_Display"):
            self._db.catalog.drop_table(table, if_exists=True)
        for query in program.postprocessing:
            self._db.execute(query.sql)
        decoders = self.item_decoders(program)
        self._build_display(program, decoders)
        return decoders

    def item_decoders(self, program: TranslationProgram) -> Decoders:
        """(body decoder, head decoder): item id -> user-level value,
        read from ``Bset`` (and ``Hset`` when the head has its own
        schema).

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
        self, decoders: Decoders, rules: Sequence[EncodedRule]
    ) -> List["DecodedRule"]:
        """The *rules* decoded to item values through *decoders* (what
        :meth:`decode` returned); each distinct body and head is
        decoded once and shared by the rules that have it."""
        body_decoder, head_decoder = decoders
        bodies: Dict[FrozenSet[int], FrozenSet[Item]] = {}
        heads: Dict[FrozenSet[int], FrozenSet[Item]] = {}
        return [
            DecodedRule(
                body=_decoded(rule.body, bodies, body_decoder),
                head=_decoded(rule.head, heads, head_decoder),
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

    def _build_display(
        self, program: TranslationProgram, decoders: Decoders
    ) -> None:
        statement = program.statement
        out = statement.output_table
        body_decoder, head_decoder = decoders

        columns = ["BODY", "HEAD"]
        if statement.select_support:
            columns.append("SUPPORT")
        if statement.select_confidence:
            columns.append("CONFIDENCE")

        body_text = self._rendered(
            f"SELECT BodyId, Bid FROM {program.workspace.output_bodies}",
            body_decoder,
        )
        head_text = self._rendered(
            f"SELECT HeadId, Hid FROM {program.workspace.output_heads}",
            head_decoder,
        )
        select_cols = ", ".join(["BodyId", "HeadId"] + columns[2:])
        rows = [
            (body_text[row[0]], head_text[row[1]], *row[2:])
            for row in self._db.query(f"SELECT {select_cols} FROM {out}")
        ]
        rows.sort()
        self._db.create_table_from_rows(
            f"{out}_Display", columns, rows, replace=True
        )

    def _rendered(self, sql: str, decoder: Dict[int, Item]) -> Dict[int, str]:
        """set id -> its ``{a,b}`` rendering, over the (set id, item id)
        rows *sql* reads."""
        members: Dict[int, List[int]] = {}
        for set_id, item_id in self._db.query(sql):
            members.setdefault(set_id, []).append(item_id)
        return {set_id: render_itemset(item_ids, decoder)
                for set_id, item_ids in members.items()}


def _add_members(
    table: Tuple[List[int], List[int]], set_id: int, items: FrozenSet[int]
) -> None:
    """Append the (set id, item id) rows of one body or head, items
    ascending, to the two columns *table*."""
    members = sorted(items)
    table[0].extend([set_id] * len(members))
    table[1].extend(members)


def _decoded(
    itemset: FrozenSet[int], cache: Dict[FrozenSet[int], FrozenSet[Item]],
    decoder: Dict[int, Item],
) -> FrozenSet[Item]:
    """*itemset* decoded through *decoder*, once per distinct itemset
    (*cache* keeps the decoded ones)."""
    decoded = cache.get(itemset)
    if decoded is None:
        decoded = cache[itemset] = frozenset(map(decoder.__getitem__, itemset))
    return decoded


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
