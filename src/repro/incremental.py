"""FUP-style incremental maintenance of MINE RULE outputs.

After an initial MINE RULE run, :class:`MiningState` persists the exact
mining state of the statement — every frequent itemset with its exact
group count **plus the negative border** (the maximal infrequent
candidates: itemsets whose proper subsets are all frequent but which
failed the support threshold themselves).  On ``REFRESH RULES <out>``
the delta of the source table is diffed against the recorded snapshot
and the state is maintained FUP-style (Cheung et al.):

* itemsets already in the state (frequent or border) never re-scan the
  full table: appended rows can only flip bits of *touched* group
  slots, so the exact new count is

  ``new = old + popcount(AND_new & T) - popcount(AND_old & T)``

  evaluated over compact bitmaps restricted to the touched slots
  ``T`` — work proportional to the delta, not the table;
* only *border-crossing* itemsets force a full re-scan: when a border
  itemset turns frequent (or the support threshold drops because
  ``totg`` grew), its superset candidates were never counted, so their
  supports come from fresh AND/popcount passes over the full item
  bitmaps (the in-memory image of the table — still no SQL
  re-preprocessing);
* the refreshed state is rebuilt as exactly ``F' ∪ border'`` of the
  new data, so repeated refreshes never accumulate stale itemsets.

The refreshed frequent counts feed the *serial* rule constructor and
postprocessor (:func:`repro.kernel.core.simple.build_rules` +
:class:`repro.kernel.postprocessor.Postprocessor`), with the ``Bset``
encoding rebuilt in staging first-appearance order — the same order
queries Q3a/Q3b produce — so a refreshed rule table is bit-identical
to a from-scratch run of the statement on the appended table.

A refresh falls back to a forced full re-mine (and state re-capture)
when the statement is not eligible (general core, group HAVING,
multi-table FROM), when the source shrank or its sampled prefix
fingerprint changed (not append-only), or when no state has been
captured yet.  :class:`SourceMutated` signals the fallback.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.algorithms.bitset import mask_from_slots
from repro.kernel.core.inputs import min_group_count
from repro.kernel.program import TranslationProgram
from repro.minerule.errors import MineRuleError
from repro.minerule.statements import MineRuleStatement
from repro.sqlengine.render import render_expr

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


@dataclass
class MiningState:
    """Exact mining state of one statement over one source snapshot.

    Items and groups are interned in **staging first-appearance
    order** — the order ``SELECT DISTINCT <schema>, <group>`` emits
    pairs, which is the order queries Q3a/Q3b enumerate them — so the
    ``Bset`` encoding of any later refresh can be reproduced without
    re-running the preprocessor.
    """

    #: item value-tuples in first-appearance order (index = item id)
    item_order: List[Tuple]
    #: item value-tuple -> index in :attr:`item_order`
    item_index: Dict[Tuple, int]
    #: group value-tuple -> bitmap slot
    group_index: Dict[Tuple, int]
    #: per-item big-int bitmap: bit ``g`` set iff the item occurs in
    #: group slot ``g`` (the vertical layout of PR2's bitset core)
    masks: List[int]
    #: exact group counts of F ∪ negative border, keyed by frozensets
    #: of item indexes
    counts: Dict[FrozenSet[int], int]
    #: total number of groups (= Q1's ``totg``)
    totg: int
    #: support threshold in groups (= Q3b's ``mingroups``)
    min_count: int
    #: base-table rows covered by this snapshot
    row_count: int
    #: crc32 over ``repr`` of the sampled prefix rows
    fingerprint: int
    #: stride the fingerprint was sampled with
    stride: int

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
        return {k: v for k, v in self.__dict__.items() if v or k == "mode"}


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


def pairs_query(statement: MineRuleStatement) -> str:
    """The collapsed Q0+Q3a query: every distinct (schema, group) pair
    of the (filtered) source in first-appearance order."""
    table = statement.from_list[0]
    source = table.name + (f" {table.alias}" if table.alias else "")
    columns = ", ".join(
        tuple(statement.body.attributes) + tuple(statement.group_attributes)
    )
    sql = f"SELECT DISTINCT {columns} FROM {source}"
    if statement.source_condition is not None:
        sql += f" WHERE {render_expr(statement.source_condition)}"
    return sql


# ---------------------------------------------------------------------------
# the two refresh phases
# ---------------------------------------------------------------------------


class RefreshComputation:
    """One refresh of one statement: delta scan + FUP recount.

    Pure computation over the engine's in-memory tables — the caller
    (:meth:`repro.system.MiningSystem.refresh`) owns locking, tracer
    spans, fault sites and the emission through the postprocessor.
    Both phases are side-effect free until :meth:`recount` returns the
    new state, so a faulted phase can simply be retried.
    """

    def __init__(
        self,
        db,
        statement: MineRuleStatement,
        state: Optional[MiningState],
    ):
        self.db = db
        self.statement = statement
        self.state = state
        self.stats = RefreshStats()
        # populated by delta()
        self._item_order: List[Tuple] = []
        self._item_index: Dict[Tuple, int] = {}
        self._group_index: Dict[Tuple, int] = {}
        self._masks: List[int] = []
        self._known: Dict[FrozenSet[int], int] = {}
        self._row_count = 0
        self._fingerprint = 0
        self._stride = 1

    # -- phase 1: delta ---------------------------------------------------

    def delta(self) -> RefreshStats:
        """Verify the append-only premise, intern the delta pairs and
        delta-adjust every known itemset count.

        Raises :class:`SourceMutated` when the source is not an
        append-only extension of the snapshot."""
        rows = self._source_rows()
        self._check_append_only(rows)
        pairs = self.db.execute(pairs_query(self.statement)).rows
        self._apply_pairs(pairs)
        return self.stats

    def _source_rows(self) -> List[Tuple]:
        table_name = self.statement.from_list[0].name
        if not self.db.catalog.has_table(table_name):
            raise SourceMutated(f"source table {table_name!r} is gone")
        return self.db.catalog.get_table(table_name).rows

    def _check_append_only(self, rows: List[Tuple]) -> None:
        state = self.state
        n = len(rows)
        old_n = state.row_count if state is not None else 0
        if state is not None:
            if n < old_n:
                raise SourceMutated(
                    f"source shrank from {old_n} to {n} rows"
                )
            crc = 0
            for i in range(0, old_n, state.stride):
                crc = zlib.crc32(repr(rows[i]).encode("utf-8"), crc)
            if crc != state.fingerprint:
                raise SourceMutated(
                    "sampled prefix fingerprint changed "
                    "(rows were updated or deleted in place)"
                )
        stride = fingerprint_stride(n)
        crc = 0
        for i in range(0, n, stride):
            crc = zlib.crc32(repr(rows[i]).encode("utf-8"), crc)
        self._row_count = n
        self._fingerprint = crc
        self._stride = stride
        self.stats.delta_rows = n - old_n

    def _apply_pairs(self, pairs: List[Tuple]) -> None:
        """Intern the distinct (schema, group) pairs, growing the item
        and group orders append-only, and record per-item added slots.

        The pairs list is a superset of the recorded state: new items
        and groups get fresh indexes/slots at the end (matching a
        from-scratch staging enumeration of the appended table), and
        pairs already present are skipped via an O(1) bit probe."""
        state = self.state
        k = len(self.statement.body.attributes)
        item_order = list(state.item_order) if state else []
        item_index = dict(state.item_index) if state else {}
        group_index = dict(state.group_index) if state else {}
        old_items = len(item_order)
        old_groups = len(group_index)
        old_bytes: Dict[int, bytes] = {}
        nbytes_old = (old_groups + 7) // 8
        added: Dict[int, List[int]] = {}

        for row in pairs:
            item = tuple(row[:k])
            group = tuple(row[k:])
            slot = group_index.get(group)
            if slot is None:
                slot = len(group_index)
                group_index[group] = slot
            index = item_index.get(item)
            if index is None:
                index = len(item_order)
                item_index[item] = index
                item_order.append(item)
            elif index < old_items and slot < old_groups:
                probe = old_bytes.get(index)
                if probe is None:
                    probe = state.masks[index].to_bytes(
                        nbytes_old, "little"
                    )
                    old_bytes[index] = probe
                if (probe[slot >> 3] >> (slot & 7)) & 1:
                    continue  # pair already in the snapshot
            added.setdefault(index, []).append(slot)

        totg = len(group_index)
        nbytes_new = (totg + 7) // 8
        masks: List[int] = []
        for index in range(len(item_order)):
            slots = added.get(index)
            if slots is None:
                masks.append(state.masks[index])  # untouched: shared
                continue
            mask = mask_from_slots(slots, nbytes_new)
            if index < old_items:
                mask |= state.masks[index]  # extend the snapshot's bitmap
            masks.append(mask)

        self._item_order = item_order
        self._item_index = item_index
        self._group_index = group_index
        self._masks = masks
        stats = self.stats
        stats.delta_pairs = sum(len(s) for s in added.values())
        stats.new_items = len(item_order) - old_items
        stats.new_groups = totg - old_groups
        stats.touched_items = len(added)
        touched_slots = sorted(
            {slot for slots in added.values() for slot in slots}
        )
        stats.touched_groups = len(touched_slots)
        self._update_known_counts(added, touched_slots, nbytes_new)

    def _update_known_counts(
        self,
        added: Dict[int, List[int]],
        touched_slots: List[int],
        nbytes_new: int,
    ) -> None:
        """FUP delta adjustment: every itemset of the recorded state
        gets its exact new count from bitmaps *restricted to the
        touched slots* — appended rows cannot flip any other bit, so
        ``new = old + pc(AND_new & T) - pc(AND_old & T)``."""
        state = self.state
        if state is None:
            return
        touched_items = set(added)
        slot_pos = {slot: pos for pos, slot in enumerate(touched_slots)}
        compact_added: Dict[int, int] = {}
        for index, slots in added.items():
            bits = 0
            for slot in slots:
                bits |= 1 << slot_pos[slot]
            compact_added[index] = bits
        compact_cache: Dict[int, int] = {}

        def compact_new(index: int) -> int:
            bits = compact_cache.get(index)
            if bits is None:
                raw = self._masks[index].to_bytes(nbytes_new, "little")
                bits = 0
                for pos, slot in enumerate(touched_slots):
                    if (raw[slot >> 3] >> (slot & 7)) & 1:
                        bits |= 1 << pos
                compact_cache[index] = bits
            return bits

        known = self._known
        for itemset, count in state.counts.items():
            if touched_items.isdisjoint(itemset):
                known[itemset] = count
                continue
            new_bits = -1
            old_bits = -1
            for index in itemset:
                bits = compact_new(index)
                new_bits &= bits
                old_bits &= bits & ~compact_added.get(index, 0)
            mask = (1 << len(touched_slots)) - 1
            known[itemset] = (
                count
                + (new_bits & mask).bit_count()
                - (old_bits & mask).bit_count()
            )
        self.stats.known_itemsets = len(known)

    # -- phase 2: recount -------------------------------------------------

    def recount(self) -> MiningState:
        """Level-wise closure over the updated counts: candidates whose
        counts are known (delta-adjusted) cost a dict lookup; only
        border-crossing candidates re-scan the full bitmaps.  Returns
        the committed new state (F' ∪ border')."""
        masks = self._masks
        known = self._known
        totg = len(self._group_index)
        min_count = min_group_count(self.statement.min_support, totg)
        counts: Dict[FrozenSet[int], int] = {}
        stats = self.stats
        stats.recounted_itemsets = 0  # idempotent under phase retries

        def exact(key: FrozenSet[int], members: Tuple[int, ...]) -> int:
            count = known.get(key)
            if count is None:
                bits = masks[members[0]]
                for index in members[1:]:
                    bits &= masks[index]
                count = bits.bit_count()
                stats.recounted_itemsets += 1
            return count

        level: List[Tuple[int, ...]] = []
        for index in range(len(self._item_order)):
            key = frozenset((index,))
            count = exact(key, (index,))
            counts[key] = count
            if count >= min_count:
                level.append((index,))

        while level:
            survivors = {frozenset(members) for members in level}
            next_level: List[Tuple[int, ...]] = []
            for candidate in _apriori_candidates(level, survivors):
                key = frozenset(candidate)
                count = exact(key, candidate)
                counts[key] = count
                if count >= min_count:
                    next_level.append(candidate)
            level = next_level

        frequent = sum(1 for c in counts.values() if c >= min_count)
        stats.frequent_itemsets = frequent
        stats.border_itemsets = len(counts) - frequent
        stats.totg = totg
        stats.min_count = min_count
        return MiningState(
            item_order=self._item_order,
            item_index=self._item_index,
            group_index=self._group_index,
            masks=masks,
            counts=counts,
            totg=totg,
            min_count=min_count,
            row_count=self._row_count,
            fingerprint=self._fingerprint,
            stride=self._stride,
        )


def _apriori_candidates(
    level: List[Tuple[int, ...]], survivors: Set[FrozenSet[int]]
) -> List[Tuple[int, ...]]:
    """Classic prefix-join + subset-prune candidate generation over the
    sorted frequent tuples of one level."""
    level = sorted(level)
    out: List[Tuple[int, ...]] = []
    n = len(level)
    for i in range(n):
        head = level[i]
        prefix = head[:-1]
        for j in range(i + 1, n):
            other = level[j]
            if other[:-1] != prefix:
                break
            candidate = head + (other[-1],)
            if len(candidate) > 2:
                key = frozenset(candidate)
                if any(
                    key - {member} not in survivors for member in candidate
                ):
                    continue
            out.append(candidate)
    return out


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
    for index, item in enumerate(state.item_order):
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
