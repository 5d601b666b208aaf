"""General core processing (Section 4.3.2): the m x n rule lattice.

"With general association rules, the core operator starts from the
initial set of large elementary rules, and proceeds discovering rules
with bodies and heads of arbitrary cardinality [...]  given the set of
rules m x n [...] the algorithm computes the set of rules (m+1) x n and
the set of rules m x (n+1), from which rules with insufficient support
are pruned.  [...]  The efficiency of the algorithm is maximized if, at
each step, we start from the set with lower cardinality."

Key data structure: every rule carries the set of ``(group, body
cluster, head cluster)`` triples supporting it.  Extending a rule
intersects the parents' triple sets, which is *exact*:
``(B1 u B2) x H`` is contained in a cluster pair iff both ``B1 x H``
and ``B2 x H`` are.  This is the lattice counterpart of the group-id
lists of Section 4.3.1.

Data path, linear in the elementary occurrences:

* **Collect once.**  One collector serves both elementary sources (the
  ``InputRules`` rows, or the lazy cartesian product over
  ``ClusterCouples``): every triple gets an ``int`` slot in a
  :class:`repro.algorithms.bitset.GroupedUniverse` (contiguous per
  group, one guard bit between groups, ``group_of[slot]`` kept beside)
  and every ``(body item, head item)`` pair a plain list of the slots
  it occurs in.  Pairs are pruned at the support threshold on those
  lists, *before* any support is materialized.
* **Two layouts, each built once**, chosen by what the collector
  measured (:data:`DENSE_MAX_BITS_PER_MEMBER`): *dense* (``"bitset"``)
  — a rule's support is one big int built by
  :func:`~repro.algorithms.bitset.mask_from_slots`, the join is ``&``
  and the distinct groups are counted by mask-and-popcount over the
  universe's guard bits; *sparse* (``"set"``) — the support is a
  ``frozenset`` of slots, the join is ``&`` and the distinct groups are
  counted through ``group_of``.  ``representation=`` forces one;
  :attr:`GeneralCoreOperator.representation` reports the layout used.
  Both produce the same ordered rule list.
* **Group-level join filter.**  Every rule also carries a bitmap over
  group positions (``totg`` bits).  The groups of ``t1 & t2`` are a
  subset of ``groups(t1) & groups(t2)``, so when that intersection has
  fewer than ``min_count`` bits the joined rule cannot be large and the
  triple-level intersection is skipped.  It is only a bound: two rules
  may share a group through different cluster pairs, so survivors are
  still intersected and counted exactly; the child keeps ``g1 & g2``,
  which bounds its groups in turn.

Elementary rules come either from the ``InputRules`` table (when the
mining condition was evaluated in SQL by queries Q8-Q10) or are derived
here from ``CodedSource`` + ``ClusterCouples``: "the core operator
itself performs the precomputation of elementary rules, which
conceptually requires the building of the cartesian product of the
source tuples belonging to the same group [...]  The cartesian product
is not materialized" — we enumerate it lazily per cluster pair.

Confidence uses body occurrences from ``CodedSource`` only ("all body
clusters are used for computing confidence", Section 2): a group counts
for the body B iff B is contained in a single body cluster, regardless
of whether that cluster pairs with any head cluster.  This reproduces
Figure 2b exactly (confidence 0.5 for {jackets} => {col_shirts}).
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro import faults
from repro.algorithms.bitset import (
    BitsetStats,
    GroupedUniverse,
    mask_from_slots,
)
from repro.kernel.core.inputs import GeneralInput
from repro.kernel.core.rules import CONFIDENCE_EPSILON as _EPSILON
from repro.kernel.core.rules import EncodedRule
from repro.kernel.program import CoreDirectives

#: a rule key: (sorted body ids, sorted head ids)
RuleKey = Tuple[Tuple[int, ...], Tuple[int, ...]]
#: the slots supporting a rule (or the occurrences of a body item): a
#: bitmap over the slot universe, or a frozenset of slots — both
#: intersect with ``&``
Support = Union[int, FrozenSet[int]]
#: what the lattice keeps per rule: its triple-slot support, a bitmap
#: over group positions that bounds its groups from above, and its
#: exact distinct-group count
Rule = Tuple[Support, int, int]
RuleSet = Dict[RuleKey, Rule]
#: the collector's output: (body item, head item) -> triple slots
Occurrences = Dict[Tuple[int, int], List[int]]

#: the layout choice when none is forced: the dense bitmap carries a
#: run whose universe has at most this many bits per member of the mean
#: surviving elementary support, the slot sets carry the rest.  A
#: bitmap join costs the universe's words whatever the support holds, a
#: set join costs the smaller support's members, so the ratio of the
#: two is what decides.  Calibrated on two inputs (``run()``, best of
#: 3): the dense BENCH_PR2 lattice at 23 bits per member, bitmaps
#: 0.13 s against slot sets 0.35 s; the sparse ``clicks_general`` input
#: at 645, bitmaps 0.32 s against slot sets 0.27 s.  DESIGN.md has the
#: inputs measured in between, which place the break-even near 500.
DENSE_MAX_BITS_PER_MEMBER = 512

#: the two support layouts (module docstring)
LAYOUTS = ("bitset", "set")

#: how _compute_set picks the parent when both exist (the "smaller"
#: strategy is the paper's heuristic; the others exist for the
#: ablation bench SYN-6)
PARENT_STRATEGIES = ("smaller", "body", "head")


class GeneralCoreOperator:
    """Lattice mining over elementary rules.

    ``parent_strategy`` selects which parent set generates a lattice
    set reachable from two parents: ``"smaller"`` follows the paper
    ("start from the set with lower cardinality"), ``"body"``/"head"``
    always prefer the body/head parent — all three are correct, the
    heuristic only affects the join work.

    ``representation`` forces the physical support layout (see the
    module docstring); ``None`` lets each run pick from what its
    collector measured.  The mined rules are identical either way.
    """

    def __init__(
        self,
        parent_strategy: str = "smaller",
        representation: Optional[str] = None,
    ) -> None:
        if parent_strategy not in PARENT_STRATEGIES:
            raise ValueError(
                f"unknown parent strategy {parent_strategy!r}; "
                f"choose from {PARENT_STRATEGIES}"
            )
        self.parent_strategy = parent_strategy
        if representation is not None and representation not in LAYOUTS:
            raise ValueError(
                f"unknown representation {representation!r}; "
                f"choose from {LAYOUTS}"
            )
        self._forced = representation
        #: the layout of the last run, ``"bitset"`` or ``"set"``; None
        #: until an unforced operator has measured an input
        self.representation: Optional[str] = representation
        #: observability: number of rules per lattice set, keyed (m, n)
        self.lattice_sizes: Dict[Tuple[int, int], int] = {}
        #: observability: join-candidate pairs examined during expansion
        self.join_pairs_examined = 0
        #: observability: universe sizes, distinct-group counts and the
        #: triple-level intersections actually performed by the last run
        #: (a join rejected at group level performs none)
        self.bitmap_stats = BitsetStats()
        #: triple-slot universe of the current run
        self._triples = GroupedUniverse()
        #: (gid, body cluster) universe for body counts
        self._body_pairs = GroupedUniverse()

    def run(
        self, data: GeneralInput, directives: CoreDirectives
    ) -> List[EncodedRule]:
        """Compute the full rule lattice, pruned at the input's
        ``min_count``, and emit its rules.  Resets the per-run state."""
        self._reset()
        threshold = data.min_count
        elementary = self._elementary_rules(self._collect(data), threshold)
        self.lattice_sizes[(1, 1)] = len(elementary)

        body_min, body_max = directives.body_card
        head_min, head_max = directives.head_card

        lattice: Dict[Tuple[int, int], RuleSet] = {(1, 1): elementary}
        frontier = [(1, 1)]
        while frontier:
            next_frontier: List[Tuple[int, int]] = []
            for m, n in frontier:
                current = lattice[(m, n)]
                if not current:
                    continue
                if body_max is None or m + 1 <= body_max:
                    self._compute_set(
                        lattice, (m + 1, n), threshold, next_frontier
                    )
                if head_max is None or n + 1 <= head_max:
                    self._compute_set(
                        lattice, (m, n + 1), threshold, next_frontier
                    )
            frontier = next_frontier

        rules = self._emit(lattice, data, directives)
        # fold the universe counters of the finished run into the stats
        stats = self.bitmap_stats
        stats.universe_sizes["triple"] = len(self._triples)
        stats.popcount_calls += self._triples.group_count_calls
        if self._body_pairs.groups:
            stats.universe_sizes["body_pair"] = len(self._body_pairs)
            stats.popcount_calls += self._body_pairs.group_count_calls
        return rules

    def _reset(self) -> None:
        self.lattice_sizes = {}
        self.join_pairs_examined = 0
        self.bitmap_stats.clear()
        self._triples = GroupedUniverse()
        self._body_pairs = GroupedUniverse()

    # ------------------------------------------------------------------
    # the two layouts
    # ------------------------------------------------------------------

    def _settle_layout(self, members: int, supports: int) -> None:
        """Fix this run's layout: the forced one, else dense when the
        triple universe has at most :data:`DENSE_MAX_BITS_PER_MEMBER`
        bits per member of the mean support (*members* slots over
        *supports* supports, as the collector measured them)."""
        if self._forced is not None:
            self.representation = self._forced
            return
        bits = 8 * self._triples.nbytes
        dense = bits * supports <= DENSE_MAX_BITS_PER_MEMBER * members
        self.representation = "bitset" if dense else "set"

    def _support(
        self, universe: GroupedUniverse, slots: Iterable[int]
    ) -> Support:
        """Materialize one support over *universe* in the run's layout."""
        if self.representation == "bitset":
            return mask_from_slots(slots, universe.nbytes)
        return frozenset(slots)

    def _group_count(
        self, universe: GroupedUniverse, support: Optional[Support]
    ) -> int:
        """Distinct groups among the slots of *support*."""
        if not support:
            return 0
        if self.representation == "bitset":
            return universe.group_count(support)
        return universe.slot_group_count(support)

    # ------------------------------------------------------------------
    # elementary rules
    # ------------------------------------------------------------------

    def _collect(self, data: GeneralInput) -> Occurrences:
        """Every elementary occurrence, met once: triples are numbered
        into :attr:`_triples` group by group and each (body item, head
        item) pair gets the list of triple slots it occurs in."""
        add = self._triples.add
        occurrences: Occurrences = defaultdict(list)
        if data.elementary is not None:
            # Precomputed in SQL (queries Q8..Q10); sorted so each
            # gid's slots stay contiguous whatever the table's row
            # order, and the rows of one triple (and repeated rows)
            # are neighbours.
            last_row = last_triple = None
            slot = -1
            for row in sorted(data.elementary):
                if row == last_row:
                    continue
                last_row = row
                if row[:3] != last_triple:
                    last_triple = row[:3]
                    slot = add(row[0])
                occurrences[row[3:]].append(slot)
            return occurrences

        # Derived here: lazy cartesian product within valid cluster
        # pairs, one gid at a time.  The slots of a group are counted
        # here and registered together: one universe call per group.
        triples = self._triples
        same_schema = data.same_schema
        for gid, body_clusters in data.body_items.items():
            head_clusters = data.head_items.get(gid)
            if not head_clusters:
                continue
            first = slot = triples.next_slot(gid)
            for bc, hc in data.group_cluster_pairs(gid):
                body_ids = body_clusters.get(bc)
                head_ids = head_clusters.get(hc)
                if not body_ids or not head_ids:
                    continue
                exclude_equal = same_schema and bc == hc
                for bid in body_ids:
                    for hid in head_ids:
                        if exclude_equal and bid == hid:
                            continue
                        occurrences[bid, hid].append(slot)
                slot += 1
            if slot > first:
                triples.add(gid, slot - first)
        return occurrences

    def _elementary_rules(
        self, occurrences: Occurrences, min_count: int
    ) -> RuleSet:
        """The large elementary rules.  A pair is pruned on its slot
        list — a support is materialized for the survivors only, in the
        layout their measured lengths select."""
        triples = self._triples
        group_of = triples.group_of.__getitem__
        survivors: List[Tuple[Tuple[int, int], List[int], Set[int]]] = []
        members = 0
        for pair, slots in occurrences.items():
            if len(slots) < min_count:
                continue  # fewer triples than groups needed
            groups = set(map(group_of, slots))
            if len(groups) >= min_count:
                survivors.append((pair, slots, groups))
                members += len(slots)
        self._settle_layout(members, len(survivors))
        group_bytes = (triples.groups + 7) >> 3
        return {
            ((bid,), (hid,)): (
                self._support(triples, slots),
                mask_from_slots(groups, group_bytes),
                len(groups),
            )
            for (bid, hid), slots, groups in survivors
        }

    # ------------------------------------------------------------------
    # lattice expansion
    # ------------------------------------------------------------------

    def _compute_set(
        self,
        lattice: Dict[Tuple[int, int], RuleSet],
        target: Tuple[int, int],
        min_count: int,
        frontier: List[Tuple[int, int]],
    ) -> None:
        """Compute rule set *target* once, from its smaller parent."""
        if target in lattice:
            return
        faults.check("core.lattice")
        m, n = target
        parents: List[Tuple[Tuple[int, int], str]] = []
        if m >= 2 and (m - 1, n) in lattice:
            parents.append(((m - 1, n), "body"))
        if n >= 2 and (m, n - 1) in lattice:
            parents.append(((m, n - 1), "head"))
        if not parents:
            return
        if self.parent_strategy == "smaller":
            # "start from the set with lower cardinality"
            parents.sort(key=lambda entry: len(lattice[entry[0]]))
        elif self.parent_strategy == "head":
            parents.sort(key=lambda entry: entry[1] != "head")
        else:  # "body"
            parents.sort(key=lambda entry: entry[1] != "body")
        parent_key, direction = parents[0]
        result = self._extend(
            lattice[parent_key], min_count, 0 if direction == "body" else 1
        )
        lattice[target] = result
        self.lattice_sizes[target] = len(result)
        if result:
            frontier.append(target)

    def _extend(self, rules: RuleSet, min_count: int, side: int) -> RuleSet:
        """Grow *side* of every rule by one item — 0: (m, n) -> (m+1, n),
        joining rules that share the head and a body prefix; 1: (m, n)
        -> (m, n+1), sharing the body and a head prefix.  A pair whose
        group bitmaps share fewer than *min_count* groups is rejected
        before its triple-level intersection."""
        siblings: Dict[
            Tuple[Tuple[int, ...], Tuple[int, ...]],
            List[Tuple[Tuple[int, ...], Rule]],
        ] = {}
        for key, rule in rules.items():
            grown = key[side]
            siblings.setdefault((key[1 - side], grown[:-1]), []).append(
                (grown, rule)
            )
        triples = self._triples
        group_count = (
            triples.group_count
            if self.representation == "bitset"
            else triples.slot_group_count
        )
        out: RuleSet = {}
        examined = intersected = 0
        for (fixed, _prefix), entries in siblings.items():
            entries.sort(key=itemgetter(0))
            for position, (k1, (t1, g1, _)) in enumerate(entries, 1):
                for k2, (t2, g2, _) in entries[position:]:
                    groups = g1 & g2
                    if groups.bit_count() < min_count:
                        continue
                    shared = t1 & t2
                    intersected += 1
                    count = group_count(shared)
                    if count >= min_count:
                        grown = k1 + (k2[-1],)
                        key = (fixed, grown) if side else (grown, fixed)
                        out[key] = (shared, groups, count)
            examined += len(entries) * (len(entries) - 1) // 2
        self.join_pairs_examined += examined
        self.bitmap_stats.intersections += intersected
        return out

    # ------------------------------------------------------------------
    # rule emission
    # ------------------------------------------------------------------

    def _emit(
        self,
        lattice: Dict[Tuple[int, int], RuleSet],
        data: GeneralInput,
        directives: CoreDirectives,
    ) -> List[EncodedRule]:
        body_min, body_max = directives.body_card
        head_min, head_max = directives.head_card
        min_confidence = directives.min_confidence

        body_occurrences = self._body_occurrence_index(data)
        body_count_cache: Dict[Tuple[int, ...], int] = {}

        rules: List[EncodedRule] = []
        for (m, n), rule_set in lattice.items():
            if m < body_min or (body_max is not None and m > body_max):
                continue
            if n < head_min or (head_max is not None and n > head_max):
                continue
            for (body, head), (_, _, support_count) in rule_set.items():
                body_count = self._body_count(
                    body, body_occurrences, body_count_cache
                )
                confidence = (
                    support_count / body_count if body_count else 0.0
                )
                if confidence + _EPSILON < min_confidence:
                    continue
                rules.append(
                    EncodedRule(
                        body=frozenset(body),
                        head=frozenset(head),
                        support_count=support_count,
                        body_count=body_count,
                        support=(
                            support_count / data.totg if data.totg else 0.0
                        ),
                        confidence=confidence,
                    )
                )
        rules.sort(key=EncodedRule.key)
        return rules

    def _body_occurrence_index(self, data: GeneralInput) -> Dict[int, Support]:
        """item id -> its occurrences as (group, body cluster) slots of
        :attr:`_body_pairs`, in the run's layout."""
        pairs = self._body_pairs
        slots_of: Dict[int, List[int]] = defaultdict(list)
        for gid, clusters in data.body_items.items():
            first = pairs.add(gid, len(clusters))
            for slot, items in enumerate(clusters.values(), first):
                for bid in items:
                    slots_of[bid].append(slot)
        return {
            bid: self._support(pairs, slots)
            for bid, slots in slots_of.items()
        }

    def _body_count(
        self,
        body: Tuple[int, ...],
        occurrences: Dict[int, Support],
        cache: Dict[Tuple[int, ...], int],
    ) -> int:
        """Groups where all body items co-occur in one body cluster."""
        count = cache.get(body)
        if count is None:
            shared = occurrences.get(body[0])
            for bid in body[1:]:
                other = occurrences.get(bid)
                if not shared or not other:
                    shared = None
                    break
                shared = shared & other
            count = cache[body] = self._group_count(self._body_pairs, shared)
        return count
