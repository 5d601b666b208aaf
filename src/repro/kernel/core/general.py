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

* **Collect once.**  The loader's per-group triples are numbered as
  they come: every triple gets an ``int`` slot in a
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
* **Side-count join filter.**  A survivor whose grown side (the body,
  or the head) lies inside one cluster in fewer than ``min_count``
  groups is rejected before intersecting too: every supporting
  triple's cluster holds that side, so ``support(B => H) <=
  body_count(B)`` (and ``head_count(H)``), counted as bitmaps over a
  (group, cluster) slot universe.  Emission divides by the same cached
  body counts.

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
    Callable,
    Dict,
    FrozenSet,
    Hashable,
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
#: the slots supporting a rule: a bitmap over the slot universe, or a
#: frozenset of slots — both intersect with ``&``
Support = Union[int, FrozenSet[int]]
#: what the lattice keeps per rule: its triple-slot support, a bitmap
#: over group positions that bounds its groups from above, and its
#: exact distinct-group count
Rule = Tuple[Support, int, int]
RuleSet = Dict[RuleKey, Rule]
#: the collector's output: body item -> head item -> triple slots
Occurrences = Dict[int, Dict[int, List[int]]]

#: the layout choice when none is forced: the dense bitmap carries a
#: run whose universe has at most this many bits per member of the mean
#: surviving elementary support, the slot sets carry the rest.  A
#: bitmap join costs the universe's words whatever the support holds, a
#: set join costs the smaller support's members, so the ratio of the
#: two is what decides.  Calibrated on two inputs (``run()``, best of
#: 3): the dense BENCH_PR2 lattice at 23 bits per member, bitmaps
#: 0.13 s against slot sets 0.35 s; the sparse ``clicks_general`` input
#: at 645, bitmaps 0.22 s against slot sets 0.21 s.  DESIGN.md has the
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
        #: (a join rejected before intersecting performs none)
        self.bitmap_stats = BitsetStats()
        #: triple-slot universe of the current run
        self._triples = GroupedUniverse()
        #: (gid, cluster) universe for body and head counts
        self._cluster_slots = GroupedUniverse()
        #: the run's body counts, then its head counts when heads grow
        self._side_counts: Tuple[SideCounts, ...] = ()

    def run(
        self, data: GeneralInput, directives: CoreDirectives
    ) -> List[EncodedRule]:
        """Compute the full rule lattice, pruned at the input's
        ``min_count``, and emit its rules.  Resets the per-run state."""
        self._reset()
        threshold = data.min_count
        elementary = self._elementary_rules(self._collect(data), threshold)
        self.lattice_sizes[(1, 1)] = len(elementary)
        self._side_counts = self._count_sides(data, directives)

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
        if self._cluster_slots.groups:
            # the (gid, cluster) universe of both sides' counts, under
            # the label BENCH_TREND tracks
            stats.universe_sizes["body_pair"] = len(self._cluster_slots)
            stats.popcount_calls += self._cluster_slots.group_count_calls
        return rules

    def _reset(self) -> None:
        self.lattice_sizes = {}
        self.join_pairs_examined = 0
        self.bitmap_stats.clear()
        self._triples = GroupedUniverse()
        self._cluster_slots = GroupedUniverse()

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

    # ------------------------------------------------------------------
    # elementary rules
    # ------------------------------------------------------------------

    def _collect(self, data: GeneralInput) -> Occurrences:
        """Every elementary occurrence, met once: the loader's triples
        are numbered into :attr:`_triples` group by group (one universe
        call per group) and each (body item, head item) pair gets the
        list of triple slots it occurs in — a triple's ``InputRules``
        pairs (Q8..Q10), or the lazy cartesian product of its clusters'
        items."""
        triples = self._triples
        occurrences: Occurrences = defaultdict(lambda: defaultdict(list))
        for gid, by_triple in (data.input_rules or {}).items():
            first = triples.add(gid, len(by_triple))
            for slot, pairs in enumerate(by_triple.values(), first):
                for bid, hid in pairs:
                    occurrences[bid][hid].append(slot)
        body, head = data.body_clusters, data.head_clusters
        same_schema = data.same_schema
        for gid, (body_keys, head_keys) in data.triples.items():
            first = slot = triples.next_slot(gid)
            for bc, hc in zip(body_keys, head_keys):
                body_ids = body.get(bc)
                head_ids = head.get(hc)
                if not body_ids or not head_ids:
                    continue
                exclude_equal = same_schema and bc == hc
                for bid in body_ids:
                    slots_of = occurrences[bid]
                    for hid in head_ids:
                        if exclude_equal and bid == hid:
                            continue
                        slots_of[hid].append(slot)
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
        for bid, slots_of in occurrences.items():
            for hid, slots in slots_of.items():
                if len(slots) < min_count:
                    continue  # fewer triples than groups needed
                groups = set(map(group_of, slots))
                if len(groups) >= min_count:
                    survivors.append(((bid, hid), slots, groups))
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
        group bitmaps share fewer than *min_count* groups, or whose
        grown side's own count is below it, is rejected before its
        triple-level intersection."""
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
        side_count = self._side_counts[side]
        out: RuleSet = {}
        examined = intersected = 0
        for (fixed, _prefix), entries in siblings.items():
            entries.sort(key=itemgetter(0))
            for position, (k1, (t1, g1, _)) in enumerate(entries, 1):
                for k2, (t2, g2, _) in entries[position:]:
                    groups = g1 & g2
                    if groups.bit_count() < min_count:
                        continue
                    grown = k1 + (k2[-1],)
                    if side_count[grown] < min_count:
                        continue
                    shared = t1 & t2
                    intersected += 1
                    count = group_count(shared)
                    if count >= min_count:
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
        body_counts = self._side_counts[0]

        rules: List[EncodedRule] = []
        for (m, n), rule_set in lattice.items():
            if m < body_min or (body_max is not None and m > body_max):
                continue
            if n < head_min or (head_max is not None and n > head_max):
                continue
            for (body, head), (_, _, support_count) in rule_set.items():
                body_count = body_counts[body]
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

    def _count_sides(
        self, data: GeneralInput, directives: CoreDirectives
    ) -> Tuple[SideCounts, ...]:
        """The run's body counts and, when heads can grow past one item,
        its head counts (the body's own when the sides share the schema):
        one slot per cluster in :attr:`_cluster_slots`, and an index of
        each side's items over it."""
        universe = self._cluster_slots
        slots: List[Tuple[int, Hashable]] = []
        for gid, keys in data.clusters.items():
            slots.extend(enumerate(keys, universe.add(gid, len(keys))))
        body = self._side_index(data.body_clusters, slots)
        if data.same_schema:
            return body, body
        head_max = directives.head_card[1]
        if head_max is not None and head_max < 2:
            return (body,)  # no (m, n + 1) join reads head counts
        return body, self._side_index(data.head_clusters, slots)

    def _side_index(
        self,
        items_of: Dict[Hashable, Set[int]],
        slots: List[Tuple[int, Hashable]],
    ) -> SideCounts:
        """The counts over *items_of*: each item's cluster slots as a
        bitmap over :attr:`_cluster_slots`."""
        slots_of: Dict[int, List[int]] = defaultdict(list)
        for slot, key in slots:
            for item in items_of.get(key, ()):
                slots_of[item].append(slot)
        universe = self._cluster_slots
        return SideCounts(
            {
                item: mask_from_slots(item_slots, universe.nbytes)
                for item, item_slots in slots_of.items()
            },
            universe.group_count,
        )


class SideCounts(dict):
    """One side's counts: sorted item ids -> the groups where they all
    occur in one cluster, computed on first lookup from each item's
    cluster bitmap (a dict: a repeated lookup costs no call)."""

    def __init__(
        self,
        occurrences: Dict[int, int],
        group_count: Callable[[int], int],
    ) -> None:
        super().__init__()
        self._occurrences = occurrences
        self._group_count = group_count

    def __missing__(self, itemset: Tuple[int, ...]) -> int:
        shared = self._occurrences.get(itemset[0])
        for item in itemset[1:]:
            other = self._occurrences.get(item)
            if not shared or not other:
                shared = None
                break
            shared = shared & other
        count = self[itemset] = self._group_count(shared) if shared else 0
        return count
