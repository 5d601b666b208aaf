"""Incremental maintenance of MINE RULE outputs (``REFRESH RULES``).

After a MINE RULE run, :class:`MiningState` keeps what it takes to mine
the statement again without its SQL program: the item and group ids
(two dicts), one group bitmap per item (a
:class:`~repro.algorithms.bitset.VerticalInput`) and the append stamp
of the source.  A refresh reads only the **increment**, the source's
rows from the watermark ``state.row_count`` on, handed to the engine
as a relation of its own (``Table.tail``: values shared) under the
statement's table name, so the one ``SELECT DISTINCT <schema>,
<group>`` pairs query, source condition included, reads the appended
rows and nothing else.  State capture is the same path with watermark 0.

* **delta** ORs the increment's pairs into a new input; new items and
  groups get the next ids, as a from-scratch staging enumeration of
  the appended table numbers them;
* **recount** numbers the items of at least ``mingroups`` groups as
  Q3b does (first appearance) and mines them with the pool member a
  MINE RULE run uses (``MiningSystem.algorithm``).

The counts feed :func:`repro.kernel.core.simple.build_rules` and the
postprocessor, so a refreshed rule table is bit-identical to a
from-scratch run of the statement on the appended table.

A refresh falls back to a forced full re-mine when the statement is
not eligible (general core, group HAVING, multi-table FROM) or when
the rows below the watermark may not be the ones the snapshot saw: the
source table object was replaced, the engine rewrote rows in place
(``Table.rewrites``: every UPDATE, DELETE and truncate), the source
shrank, or the sampled prefix fingerprint changed (edits of the column
vectors behind the engine's back).  :class:`SourceMutated` signals it.
"""

from __future__ import annotations

import weakref
import zlib
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.algorithms.base import FrequentItemsetMiner, ItemsetCounts
from repro.algorithms.bitset import VerticalInput, mask_from_slots
from repro.kernel.core.inputs import min_group_count
from repro.kernel.names import Workspace
from repro.kernel.program import TranslationProgram
from repro.minerule.errors import MineRuleError
from repro.minerule.statements import MineRuleStatement
from repro.sqlengine.render import render_expr
from repro.sqlengine.table import Table

#: sampled-fingerprint resolution: at most this many rows are hashed
#: per refresh, whatever the table size (mutation detection stays
#: O(samples), the append path stays O(delta))
FINGERPRINT_SAMPLES = 1024


class RefreshError(MineRuleError):
    """REFRESH RULES targeted an output table no MINE RULE run of this
    system has produced (nothing to maintain)."""


class SourceMutated(Exception):
    """The source table is not an append-only extension of the recorded
    snapshot — the caller must fall back to a full re-mine."""


def fingerprint_stride(row_count: int) -> int:
    """The sampling stride of a *row_count*-row prefix: the smallest
    power of two that hashes at most :data:`FINGERPRINT_SAMPLES` rows
    (past that many rows, at least half as many).  While it stays the
    same, the next prefix's hash continues this one's."""
    return 1 << (max(row_count - 1, 0) // FINGERPRINT_SAMPLES).bit_length()


def _fingerprint(
    table: Table, start: int, stop: int, stride: int, crc: int = 0
) -> int:
    """*crc* continued over ``repr`` of every *stride*-th row of
    ``[start, stop)``, read as strided column slices (no other row is
    touched).  ``[0, stop)`` in one call equals ``[0, start)`` then
    ``[start, stop)`` when *start* is a multiple of *stride*."""
    for row in table.sample(stop, stride, start):
        crc = zlib.crc32(repr(row).encode("utf-8"), crc)
    return crc


@dataclass(frozen=True)
class MiningState:
    """What a refresh needs to mine one statement again.

    Items and groups are interned in **staging first-appearance
    order** — the order ``SELECT DISTINCT <schema>, <group>`` emits
    pairs, which is the order queries Q3a/Q3b enumerate them — so the
    ``Bset`` encoding of any later refresh can be reproduced without
    re-running the preprocessor.  The next refresh extends the two
    dicts in place and builds a new :attr:`vertical`, whose sizes
    are the ones this state committed: what an attempt interned before
    it died is simply interned again.
    """

    #: item value-tuple -> item id; dict order is id order
    items: Dict[Tuple, int]
    #: group value-tuple -> bit position in the bitmaps
    groups: Dict[Tuple, int]
    #: item id -> group bitmap over the group slots: its
    #: ``group_count`` is the committed group count (Q1's ``totg``), its
    #: key count the committed item count, ``entries`` the distinct pairs
    vertical: VerticalInput
    #: the append watermark: source rows covered by this snapshot
    row_count: int
    #: crc32 over ``repr`` of the sampled prefix rows
    fingerprint: int
    #: stride the fingerprint was sampled with (a power of two)
    stride: int
    #: the table object read (dropped + recreated is another object)
    source: "weakref.ref[Table]"
    #: that table's ``rewrites`` count at the snapshot
    rewrites: int


@dataclass
class RefreshStats:
    """Observability of one refresh (mirrored into tracer spans)."""

    mode: str = "incremental"  # "incremental" | "full"
    reason: str = ""  # why a full re-mine was forced
    #: source row count the increment started from (0 = state capture)
    watermark: int = 0
    #: rows of the relation the pairs query scanned, counted on the
    #: relation: ``delta_rows`` unless something read below the watermark
    scanned_rows: int = 0
    delta_rows: int = 0
    #: (group, item) pairs the increment added to the bitmaps
    delta_pairs: int = 0
    new_items: int = 0
    new_groups: int = 0
    #: items and groups with at least one new pair
    touched_items: int = 0
    touched_groups: int = 0
    #: candidate itemsets the pool member evaluated
    recounted_itemsets: int = 0
    frequent_itemsets: int = 0
    totg: int = 0
    min_count: int = 0
    rules: int = 0

    def as_args(self) -> Dict[str, object]:
        """The non-zero fields, plus what an incremental refresh always
        says: where it started and how much it scanned."""
        keep = {"mode"}
        if self.mode == "incremental":
            keep |= {"watermark", "scanned_rows"}
        return {k: v for k, v in self.__dict__.items() if v or k in keep}


def refresh_eligibility(program: TranslationProgram) -> Optional[str]:
    """None when the statement supports incremental maintenance, else
    the human-readable reason a full re-mine is forced."""
    statement = program.statement
    if not program.core.simple:
        return (
            "general core statement (mining condition, distinct head "
            "schema or clusters)"
        )
    if statement.group_condition is not None:
        return "GROUP BY ... HAVING can invalidate groups retroactively"
    if len(statement.from_list) != 1:
        return "multi-table FROM list"
    return None


def pairs_query(statement: MineRuleStatement, relation: str) -> str:
    """The collapsed Q0+Q3a query over *relation* (the increment):
    every distinct (schema, group) pair of its (filtered) rows in
    first-appearance order, NULL group keys excluded; a row with a NULL
    in the schema still counts its group (``_apply_pairs`` interns no
    item for it).  The relation is bound to the name the
    statement itself uses for its source, so the source condition
    renders and resolves unchanged."""
    table = statement.from_list[0]
    columns = ", ".join(
        tuple(statement.body.attributes) + tuple(statement.group_attributes)
    )
    sql = (
        f"SELECT DISTINCT {columns} FROM {relation} "
        f"{table.alias or table.name} WHERE "
        + " AND ".join(
            f"{attr} IS NOT NULL" for attr in statement.group_attributes
        )
    )
    if statement.source_condition is not None:
        sql += f" AND ({render_expr(statement.source_condition)})"
    return sql


class RefreshComputation:
    """One refresh of one statement: delta scan, then a mining run of
    *algorithm* over the updated bitmaps.  The caller
    (:meth:`repro.system.MiningSystem.refresh`) owns locking, tracer
    spans, fault sites and the emission through the postprocessor.
    Nothing the recorded state answers from changes until
    :meth:`recount` returns the new state (the shared id dicts only
    grow past the sizes it committed), so a faulted phase can simply
    be retried.
    """

    def __init__(
        self,
        db,
        statement: MineRuleStatement,
        state: Optional[MiningState],
        algorithm: FrequentItemsetMiner,
        workspace: Workspace = Workspace(),
    ):
        self.db = db
        self.statement = statement
        self.state = state
        self.algorithm = algorithm
        self.workspace = workspace
        self.stats = RefreshStats()
        #: delta()'s result: the next state
        self._pending: Optional[MiningState] = None
        #: recount()'s results: the ``Bset`` rows (Bid, item..., count)
        #: and the frequent itemsets' counts keyed by Bid
        self.bset_rows: List[Tuple] = []
        self.counts: ItemsetCounts = {}

    # -- phase 1: delta ---------------------------------------------------

    def delta(self) -> RefreshStats:
        """Verify the append-only premise, run the pairs query over the
        increment and OR its pairs into the next state's bitmaps.

        Raises :class:`SourceMutated` when the source is not an
        append-only extension of the snapshot."""
        table_name = self.statement.from_list[0].name
        catalog = self.db.catalog
        if not catalog.has_table(table_name):
            raise SourceMutated(f"source table {table_name!r} is gone")
        table = catalog.get_table(table_name)
        watermark, stamp = self._check_append_only(table)
        increment = table.tail(watermark, self.workspace.increment)
        catalog.create_table(increment)
        try:
            pairs = self.db.execute(
                pairs_query(self.statement, increment.name)
            ).rows
        finally:
            catalog.drop_table(increment.name)
        self.stats.scanned_rows = len(increment)
        self._apply_pairs(pairs, stamp)
        return self.stats

    def _check_append_only(self, table: Table) -> Tuple[int, Dict[str, object]]:
        """The watermark the increment starts from, once the rows below
        it are known to be the snapshot's, and the :class:`MiningState`
        fields that describe the source as read now.  The new
        fingerprint continues the verified one over the sampled rows
        past the watermark unless the stride changed."""
        state, n = self.state, len(table)
        watermark = crc = start = 0
        stride = fingerprint_stride(n)
        if state is not None:
            watermark = state.row_count
            for mutated, how in (
                (state.source() is not table, "was dropped and recreated"),
                (table.rewrites != state.rewrites,
                 "had rows rewritten in place (UPDATE, DELETE or truncate)"),
                (n < watermark, f"shrank from {watermark} to {n} rows"),
                (_fingerprint(table, 0, watermark, state.stride)
                 != state.fingerprint,
                 "changed its sampled prefix fingerprint (rows were "
                 "updated or deleted in place)"),
            ):
                if mutated:
                    raise SourceMutated(f"source table {table.name!r} {how}")
            if stride == state.stride:
                crc, start = state.fingerprint, -(-watermark // stride) * stride
        self.stats.watermark = watermark
        self.stats.delta_rows = n - watermark
        return watermark, dict(
            row_count=n,
            fingerprint=_fingerprint(table, start, n, stride, crc),
            stride=stride,
            source=weakref.ref(table),
            rewrites=table.rewrites,
        )

    def _apply_pairs(
        self, pairs: List[Tuple], stamp: Dict[str, object]
    ) -> None:
        """Intern the increment's distinct (schema, group) pairs,
        extending the item and group dicts in place: new items and
        groups get the next ids (matching a from-scratch staging
        enumeration of the appended table)."""
        state = self.state
        k = len(self.statement.body.attributes)
        if state is not None:
            items, groups, old = state.items, state.groups, state.vertical
        else:
            items, groups, old = {}, {}, VerticalInput(0, {}, 0)
        added: Dict[int, List[int]] = defaultdict(list)
        for row in pairs:
            slot = groups.setdefault(row[k:], len(groups))
            if None not in row[:k]:  # else the row counts its group only
                added[items.setdefault(row[:k], len(items))].append(slot)
        vertical = self._extend(old, added, len(groups))
        self._pending = MiningState(items, groups, vertical, **stamp)

    def _extend(
        self, old: VerticalInput, added: Dict[int, List[int]], totg: int
    ) -> VerticalInput:
        """A new input over *totg* group slots: *old*'s bitmaps with the
        *added* slots ORed in, *old* left as it is.  The new pairs are
        the popcount growth of each touched item's bitmap."""
        nbytes = (totg + 7) >> 3
        bitmaps = dict(old.bitmaps)
        entries, touched, new_groups = old.entries, 0, 0
        for index in sorted(added):
            before = bitmaps.get(index, 0)
            bitmaps[index] = after = before | mask_from_slots(
                added[index], nbytes
            )
            if after != before:
                entries += after.bit_count() - before.bit_count()
                touched += 1
                new_groups |= after ^ before
        stats = self.stats
        stats.delta_pairs = entries - old.entries
        stats.new_items = len(bitmaps) - len(old.bitmaps)
        stats.new_groups = totg - len(old)
        stats.touched_items = touched
        stats.touched_groups = new_groups.bit_count()
        return VerticalInput(totg, bitmaps, entries)

    # -- phase 2: recount -------------------------------------------------

    def recount(self) -> MiningState:
        """Number the items of at least ``mingroups`` groups 1..n in
        first-appearance order, as Q3b's ``Bset`` does, and mine them
        with the pool member.  Keeps the ``Bset`` rows and the counts
        for emission and returns the new state, which the caller
        commits."""
        pending = self._pending
        vertical = pending.vertical
        totg = len(vertical)
        min_count = min_group_count(self.statement.min_support, totg)
        frequent: Dict[int, int] = {}
        bset_rows: List[Tuple] = []
        for item, index in pending.items.items():
            bitmap = vertical.bitmaps[index]
            count = bitmap.bit_count()
            if count >= min_count:
                frequent[len(frequent) + 1] = bitmap
                bset_rows.append((len(frequent), *item, count))
        entries = sum(row[-1] for row in bset_rows)
        self.counts = self.algorithm.mine(
            VerticalInput(totg, frequent, entries), min_count
        )
        self.bset_rows = bset_rows
        mined = getattr(self.algorithm, "stats", None)
        stats = self.stats
        stats.recounted_itemsets = mined.candidates if mined is not None else 0
        stats.frequent_itemsets = len(self.counts)
        stats.totg = totg
        stats.min_count = min_count
        return pending
