"""FUP-style incremental maintenance of MINE RULE outputs.

After an initial MINE RULE run, :class:`MiningState` persists the exact
mining state of the statement — every frequent itemset with its exact
group count **plus the negative border** (the maximal infrequent
candidates: itemsets whose proper subsets are all frequent but which
failed the support threshold themselves).  ``REFRESH RULES <out>``
maintains that state FUP-style (Cheung et al.) from the **increment**:
the source's stored rows from the append watermark ``state.row_count``
on, handed to the engine as a relation of its own (``Table.tail``:
shared values, nothing copied per row) under the statement's table
name, so the one ``SELECT DISTINCT <schema>, <group>`` pairs query —
source condition included — reads the appended rows and nothing else.
State capture is the same path with watermark 0.

* itemsets already in the state (frequent or border) never re-scan the
  full table: appended rows can only flip bits of *touched* group
  slots, so the exact new count is

  ``new = old + popcount(AND_new & T) - popcount(AND_old & T)``

  evaluated over compact bitmaps restricted to the touched slots
  ``T``; the snapshot is probed only where a touched slot existed in
  it (a new group's bit is zero in every old bitmap);
* only *border-crossing* itemsets force a re-scan: when a border
  itemset turns frequent (or the support threshold drops because
  ``totg`` grew), its superset candidates were never counted, so their
  supports come from fresh AND/popcount passes over the full item
  bitmaps (the in-memory image of the table — still no SQL
  re-preprocessing);
* the refreshed state is rebuilt as exactly ``F' ∪ border'`` of the
  new data, so repeated refreshes never accumulate stale itemsets.

Cost: the pairs query, the interning and the bit probes are
O(increment); the count adjustment and the closure O(|F ∪ border|)
(every item is in it); over the group universe there are only big-int
``&`` / ``|`` / ``to_bytes`` on touched items' bitmaps.  Nothing walks
or copies a structure the size of the source or of the snapshot.

The refreshed frequent counts feed the *serial* rule constructor and
postprocessor (:func:`repro.kernel.core.simple.build_rules` +
:class:`repro.kernel.postprocessor.Postprocessor`), with the ``Bset``
encoding rebuilt in staging first-appearance order — the same order
queries Q3a/Q3b produce — so a refreshed rule table is bit-identical
to a from-scratch run of the statement on the appended table.

A refresh falls back to a forced full re-mine (and state re-capture)
when the statement is not eligible (general core, group HAVING,
multi-table FROM) or when the rows below the watermark may not be the
ones the snapshot saw: the source table object was replaced, the
engine rewrote rows in place (``Table.rewrites``: every UPDATE, DELETE
and truncate, exactly), the source shrank, or the sampled prefix
fingerprint changed (the guard for edits of the column vectors behind
the engine's back).  :class:`SourceMutated` signals the fallback.
"""

from __future__ import annotations

import functools
import weakref
import zlib
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.algorithms.base import FrequentItemsetMiner
from repro.algorithms.bitset import SlotUniverse, mask_from_slots
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
    """Sampling stride hashing at most :data:`FINGERPRINT_SAMPLES`
    rows of a *row_count*-row prefix."""
    return max(1, row_count // FINGERPRINT_SAMPLES)


def _fingerprint(table: Table, row_count: int, stride: int) -> int:
    """crc32 over ``repr`` of every *stride*-th of the first
    *row_count* rows, read as strided column slices (no other row is
    touched)."""
    crc = 0
    for row in table.sample(row_count, stride):
        crc = zlib.crc32(repr(row).encode("utf-8"), crc)
    return crc


@dataclass
class MiningState:
    """Exact mining state of one statement over one source snapshot.

    Items and groups are interned in **staging first-appearance
    order** — the order ``SELECT DISTINCT <schema>, <group>`` emits
    pairs, which is the order queries Q3a/Q3b enumerate them — so the
    ``Bset`` encoding of any later refresh can be reproduced without
    re-running the preprocessor.  The next refresh extends the two
    universes in place; :attr:`item_count` and :attr:`totg` are the
    sizes this state committed, so what an attempt interned before it
    died is simply interned again.
    """

    #: item value-tuples; slot = item id
    items: SlotUniverse
    #: group value-tuples; slot = bit position in :attr:`masks`
    groups: SlotUniverse
    #: per-item big-int bitmap: bit ``g`` set iff the item occurs in
    #: group slot ``g`` (the vertical layout of PR2's bitset core)
    masks: List[int]
    #: exact group counts of F ∪ negative border, by frozenset of item ids
    counts: Dict[FrozenSet[int], int]
    #: committed number of items (= ``len(masks)``)
    item_count: int
    #: committed number of groups (= Q1's ``totg``)
    totg: int
    #: support threshold in groups (= Q3b's ``mingroups``)
    min_count: int
    #: the append watermark: source rows covered by this snapshot
    row_count: int
    #: crc32 over ``repr`` of the sampled prefix rows
    fingerprint: int
    #: stride the fingerprint was sampled with
    stride: int
    #: the table object read (dropped + recreated is another object)
    source: "weakref.ref[Table]"
    #: that table's ``rewrites`` count at the snapshot
    rewrites: int

    def frequent(self) -> Dict[FrozenSet[int], int]:
        """The frequent subset of :attr:`counts` (what rule
        construction consumes)."""
        return {
            itemset: count
            for itemset, count in self.counts.items()
            if count >= self.min_count
        }


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
    delta_pairs: int = 0
    new_items: int = 0
    new_groups: int = 0
    touched_items: int = 0
    touched_groups: int = 0
    #: state itemsets whose counts carried over or were delta-adjusted
    known_itemsets: int = 0
    #: itemsets that needed a full-bitmap re-scan (border crossers,
    #: new-item candidates)
    recounted_itemsets: int = 0
    frequent_itemsets: int = 0
    border_itemsets: int = 0
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


# ---------------------------------------------------------------------------
# the two refresh phases
# ---------------------------------------------------------------------------


class RefreshComputation:
    """One refresh of one statement: delta scan + FUP recount.

    Computation over the engine's in-memory tables — the caller
    (:meth:`repro.system.MiningSystem.refresh`) owns locking, tracer
    spans, fault sites and the emission through the postprocessor.
    Nothing the recorded state answers from changes until
    :meth:`recount` returns the new state (the shared universes only
    grow past the sizes it committed), so a faulted phase can simply
    be retried.
    """

    def __init__(
        self,
        db,
        statement: MineRuleStatement,
        state: Optional[MiningState],
        workspace: Workspace = Workspace(),
    ):
        self.db = db
        self.statement = statement
        self.state = state
        self.workspace = workspace
        self.stats = RefreshStats()
        #: delta()'s result: the next state, its counts still to come
        self._pending: Optional[MiningState] = None
        self._known: Dict[FrozenSet[int], int] = {}
        #: item id -> its recorded bitmap as bytes (probe cache)
        self._snapshot_bytes: Dict[int, bytes] = {}

    # -- phase 1: delta ---------------------------------------------------

    def delta(self) -> RefreshStats:
        """Verify the append-only premise, run the pairs query over the
        increment, intern its pairs and delta-adjust every known
        itemset count.

        Raises :class:`SourceMutated` when the source is not an
        append-only extension of the snapshot."""
        table_name = self.statement.from_list[0].name
        catalog = self.db.catalog
        if not catalog.has_table(table_name):
            raise SourceMutated(f"source table {table_name!r} is gone")
        table = catalog.get_table(table_name)
        watermark, snapshot = self._check_append_only(table)
        increment = table.tail(watermark, self.workspace.increment)
        catalog.create_table(increment)
        try:
            pairs = self.db.execute(
                pairs_query(self.statement, increment.name)
            ).rows
        finally:
            catalog.drop_table(increment.name)
        self.stats.scanned_rows = len(increment)
        self._apply_pairs(pairs, snapshot)
        return self.stats

    def _check_append_only(self, table: Table) -> Tuple[int, Dict[str, object]]:
        """The watermark the increment starts from, once the rows below
        it are known to be the snapshot's, and the :class:`MiningState`
        fields that describe the source as read now."""
        state, n, watermark = self.state, len(table), 0
        if state is not None:
            watermark = state.row_count
            for mutated, how in (
                (state.source() is not table, "was dropped and recreated"),
                (table.rewrites != state.rewrites,
                 "had rows rewritten in place (UPDATE, DELETE or truncate)"),
                (n < watermark, f"shrank from {watermark} to {n} rows"),
            ):
                if mutated:
                    raise SourceMutated(f"source table {table.name!r} {how}")
            crc = _fingerprint(table, watermark, state.stride)
            if crc != state.fingerprint:
                raise SourceMutated(
                    "sampled prefix fingerprint changed "
                    "(rows were updated or deleted in place)"
                )
        self.stats.watermark = watermark
        self.stats.delta_rows = n - watermark
        stride = fingerprint_stride(n)
        return watermark, dict(
            row_count=n,
            fingerprint=_fingerprint(table, n, stride),
            stride=stride,
            source=weakref.ref(table),
            rewrites=table.rewrites,
        )

    def _apply_pairs(
        self, pairs: List[Tuple], snapshot: Dict[str, object]
    ) -> None:
        """Intern the increment's distinct (schema, group) pairs,
        extending the item and group universes in place: new items and
        groups get fresh slots at the end (matching a from-scratch
        staging enumeration of the appended table), a pair repeated
        from the snapshot is skipped via an O(1) bit probe."""
        state = self.state
        k = len(self.statement.body.attributes)
        if state is not None:
            items, groups = state.items, state.groups
            old_items, old_groups = state.item_count, state.totg
            masks = list(state.masks)
        else:
            items, groups = SlotUniverse(), SlotUniverse()
            old_items = old_groups = 0
            masks = []
        item_slot, group_slot = items.slot, groups.slot
        in_snapshot = self._in_snapshot
        added: Dict[int, List[int]] = {}

        for row in pairs:
            slot = group_slot(row[k:])
            if None in row[:k]:
                continue  # the row counts its group, holds no item
            index = item_slot(row[:k])
            if index < old_items and slot < old_groups and in_snapshot(
                index, slot
            ):
                continue  # a pair the increment repeats
            added.setdefault(index, []).append(slot)

        nbytes_new = (len(groups) + 7) // 8
        masks.extend([0] * (len(items) - old_items))
        for index, slots in added.items():
            masks[index] |= mask_from_slots(slots, nbytes_new)

        self._pending = MiningState(
            items=items, groups=groups, masks=masks, counts={},
            item_count=len(masks), totg=len(groups), min_count=0, **snapshot,
        )
        stats = self.stats
        stats.delta_pairs = sum(len(s) for s in added.values())
        stats.new_items = len(items) - old_items
        stats.new_groups = len(groups) - old_groups
        stats.touched_items = len(added)
        touched = {slot for slots in added.values() for slot in slots}
        stats.touched_groups = len(touched)
        self._update_known_counts(added, touched)

    def _in_snapshot(self, index: int, slot: int) -> bool:
        """Whether the recorded state has item *index* in group *slot*
        (both its own): one ``to_bytes`` per item, then O(1) probes."""
        raw = self._snapshot_bytes.get(index)
        if raw is None:
            raw = self._snapshot_bytes[index] = self.state.masks[
                index
            ].to_bytes((self.state.totg + 7) // 8, "little")
        return bool((raw[slot >> 3] >> (slot & 7)) & 1)

    def _update_known_counts(
        self, added: Dict[int, List[int]], touched: Set[int]
    ) -> None:
        """FUP delta adjustment (module docstring): ``new = old +
        pc(AND_new & T) - pc(AND_old & T)`` over the touched slots,
        the snapshot probed only at touched slots it had."""
        state = self.state
        if state is None:
            return
        # compact bitmaps: one bit per touched slot, in any fixed order
        slot_pos = {slot: pos for pos, slot in enumerate(touched)}
        compact = functools.partial(
            mask_from_slots, nbytes=(len(touched) + 7) // 8
        )
        compact_added = {
            index: compact(slot_pos[slot] for slot in slots)
            for index, slots in added.items()
        }
        old_touched = [
            (pos, slot) for slot, pos in slot_pos.items() if slot < state.totg
        ]
        compact_old = functools.cache(lambda index: compact(
            pos for pos, slot in old_touched if self._in_snapshot(index, slot)
        ))

        known: Dict[FrozenSet[int], int] = {}
        for itemset, count in state.counts.items():
            if compact_added.keys().isdisjoint(itemset):
                known[itemset] = count
                continue
            new_bits = -1
            old_bits = -1
            for index in itemset:
                bits = compact_old(index)
                old_bits &= bits
                new_bits &= bits | compact_added.get(index, 0)
            known[itemset] = (
                count + new_bits.bit_count() - old_bits.bit_count()
            )
        self._known = known
        self.stats.known_itemsets = len(known)

    # -- phase 2: recount -------------------------------------------------

    def recount(self) -> MiningState:
        """Level-wise closure over the updated counts: candidates whose
        counts are known (delta-adjusted) cost a dict lookup; only
        border-crossing candidates re-scan the full bitmaps.  Returns
        the committed new state (F' ∪ border')."""
        pending = self._pending
        masks, totg, known = pending.masks, pending.totg, self._known
        min_count = min_group_count(self.statement.min_support, totg)
        counts: Dict[FrozenSet[int], int] = {}
        stats = self.stats
        stats.recounted_itemsets = 0  # idempotent under phase retries

        def exact(members: Tuple[int, ...]) -> int:
            key = frozenset(members)
            count = known.get(key)
            if count is None:
                bits = masks[members[0]]
                for index in members[1:]:
                    bits &= masks[index]
                count = bits.bit_count()
                stats.recounted_itemsets += 1
            counts[key] = count
            return count

        level = [(index,) for index in range(len(masks))]
        while level:
            level = [
                members for members in level if exact(members) >= min_count
            ]
            level = FrequentItemsetMiner.join_candidates(level)

        frequent = sum(1 for c in counts.values() if c >= min_count)
        stats.frequent_itemsets = frequent
        stats.border_itemsets = len(counts) - frequent
        stats.totg = totg
        stats.min_count = min_count
        return replace(pending, counts=counts, min_count=min_count)


# ---------------------------------------------------------------------------
# emission helpers (Bset rebuild + rule counts in encoded space)
# ---------------------------------------------------------------------------


def encode_for_emission(
    state: MiningState,
) -> Tuple[List[Tuple], Dict[FrozenSet[int], int]]:
    """The ``Bset`` rows and the frequent counts re-keyed by Bid.

    Bids are assigned 1..n over the *frequent items in first-appearance
    order* — exactly what Q3b's ``GROUP BY <schema> HAVING COUNT(*) >=
    :mingroups`` with a fresh Bid sequence produces — so the encoded
    rules (and therefore every output table) of a refresh are
    bit-identical to a from-scratch run."""
    bid_of: Dict[int, int] = {}
    bset_rows: List[Tuple] = []
    for index, item in enumerate(state.items):
        count = state.counts.get(frozenset((index,)))
        if count is None or count < state.min_count:
            continue
        bid = len(bset_rows) + 1
        bid_of[index] = bid
        bset_rows.append((bid, *item, count))
    counts_by_bid = {
        frozenset(bid_of[index] for index in itemset): count
        for itemset, count in state.frequent().items()
    }
    return bset_rows, counts_by_bid
