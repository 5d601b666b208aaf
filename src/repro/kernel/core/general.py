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
  they come: every *joinable* triple gets an ``int`` slot in a
  :class:`repro.algorithms.bitset.GroupedUniverse` (contiguous per
  group, a guard bit closing each group's span, ``group_of[slot]`` kept
  beside; a group is its position, not its ``Gid``) and every ``(body
  item, head item)`` pair a plain list of the slots it occurs in.  A
  triple is joinable when its body cluster holds two items or more and
  bodies can grow, or the same for heads (on the ``InputRules`` path:
  two distinct items among its pairs); an occurrence in any other
  triple is listed by its group position only.
  Every (m+1, n) rule needs m+1 >= 2 body items in each supporting
  triple's body cluster (and likewise for heads), so a join never
  reads a slot left out.  Pairs are pruned at the support threshold
  on those lists, *before* any support is materialized.
* **One layout, built once.**  A surviving pair's support is one big
  int over the joinable slots, built by
  :func:`~repro.algorithms.bitset.mask_from_slots` as soon as the pair
  passes the threshold (its slot list is released at once); the join
  is ``&`` and the distinct groups are counted by mask-and-popcount
  over the universe's guard bits.  A *leaf* set — at both cardinality
  limits, so no set's parent — keeps no supports, only counts and
  group bounds.
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
from typing import Any, Callable, Dict, Hashable, List, Optional, Set, Tuple

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
#: what the lattice keeps per rule: its triple-slot support (a bitmap
#: over the slot universe, None in a leaf set), a bitmap over group
#: positions that bounds its groups from above, and its exact
#: distinct-group count
Rule = Tuple[Optional[int], int, int]
RuleSet = Dict[RuleKey, Rule]
#: the collector's output: body item -> head item -> the slot of each
#: joinable triple it occurs in, ``~position`` of the group of any other
Occurrences = Dict[int, Dict[int, List[int]]]


class GeneralCoreOperator:
    """Lattice mining over elementary rules.

    A lattice set reachable from two parents is generated from the
    smaller one, as the paper says ("start from the set with lower
    cardinality").
    """

    def __init__(self) -> None:
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
        #: the run's (body, head) cardinality maxima, None: unbounded
        self._limits: Tuple[Optional[int], Optional[int]] = (None, None)

    def run(
        self, data: GeneralInput, directives: CoreDirectives
    ) -> List[EncodedRule]:
        """Compute the full rule lattice, pruned at the input's
        ``min_count``, and emit its rules.  Resets the per-run state."""
        self._reset()
        body_max, head_max = directives.body_card[1], directives.head_card[1]
        self._limits = (body_max, head_max)
        threshold = data.min_count
        elementary = self._elementary_rules(self._collect(data), threshold)
        self.lattice_sizes[(1, 1)] = len(elementary)
        self._side_counts = self._count_sides(data, directives)

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
            stats.universe_sizes["body_pair"] = len(self._cluster_slots)
            stats.popcount_calls += self._cluster_slots.group_count_calls
        stats.passes = len(self.lattice_sizes)  # one per lattice set
        return rules

    def span_args(self) -> Dict[str, Any]:
        """The last run's observations as attributes of the ``core``
        component span: its one layout, its lattice and join counters
        and its bitmap counters."""
        return {
            "representation": "bitset",
            "join_pairs_examined": self.join_pairs_examined,
            "lattice_sizes": dict(self.lattice_sizes),
            **self.bitmap_stats.span_args(),
        }

    def _is_leaf(self, m: int, n: int) -> bool:
        """Whether set (m, n) is at both cardinality limits."""
        return all(limit is not None and size >= limit
                   for size, limit in zip((m, n), self._limits))

    def _reset(self) -> None:
        self.lattice_sizes = {}
        self.join_pairs_examined = 0
        self.bitmap_stats.clear()
        self._triples = GroupedUniverse()
        self._cluster_slots = GroupedUniverse()

    # ------------------------------------------------------------------
    # elementary rules
    # ------------------------------------------------------------------

    def _collect(self, data: GeneralInput) -> Occurrences:
        """Every elementary occurrence, met once: the loader's joinable
        triples are numbered into :attr:`_triples` group by group (one
        :meth:`~GroupedUniverse.add` per group, once its joinable
        triples are counted) and each (body item, head item) pair gets
        the list of its occurrences — a triple's ``InputRules`` pairs
        (Q8..Q10), or the lazy cartesian product of its clusters'
        items."""
        triples = self._triples
        body_grows, head_grows = (limit is None or limit > 1
                                  for limit in self._limits)
        occurrences: Occurrences = defaultdict(lambda: defaultdict(list))
        for by_triple in (data.input_rules or {}).values():
            first = slot = len(triples.group_of)  # the next group's base
            outside = ~triples.groups
            for pairs in by_triple.values():
                join = (body_grows and len({bid for bid, _ in pairs}) > 1
                        or head_grows and len({hid for _, hid in pairs}) > 1)
                mark = slot if join else outside
                slot += join
                for bid, hid in pairs:
                    occurrences[bid][hid].append(mark)
            triples.add(slot - first)
        body, head = data.body_clusters, data.head_clusters
        same_schema = data.same_schema
        for body_keys, head_keys in data.triples.values():
            first = slot = len(triples.group_of)  # the next group's base
            outside = ~triples.groups
            for bc, hc in zip(body_keys, head_keys):
                body_ids = body.get(bc)
                head_ids = head.get(hc)
                if not body_ids or not head_ids:
                    continue
                join = (body_grows and len(body_ids) > 1
                        or head_grows and len(head_ids) > 1)
                mark = slot if join else outside
                slot += join
                exclude_equal = same_schema and bc == hc
                for bid in body_ids:
                    marks_of = occurrences[bid]
                    for hid in head_ids:
                        if exclude_equal and bid == hid:
                            continue
                        marks_of[hid].append(mark)
            triples.add(slot - first)
        return occurrences

    def _elementary_rules(
        self, occurrences: Occurrences, min_count: int
    ) -> RuleSet:
        """The large elementary rules.  A pair is pruned on its list,
        popped out of *occurrences* as it is read: a survivor's support
        bitmap (of its joinable slots) is built at once and no list
        outlives its pair."""
        triples = self._triples
        group_of = triples.group_of.__getitem__
        nbytes, group_bytes = triples.nbytes, (triples.groups + 7) >> 3
        leaf = self._is_leaf(1, 1)
        rules: RuleSet = {}
        for bid, marks_of in occurrences.items():
            for hid in list(marks_of):
                marks = marks_of.pop(hid)
                if len(marks) < min_count:
                    continue  # fewer triples than groups needed
                slots = [mark for mark in marks if mark >= 0]
                groups = set(map(group_of, slots))
                groups.update(~mark for mark in marks if mark < 0)
                if len(groups) >= min_count:
                    rules[(bid,), (hid,)] = (
                        None if leaf else mask_from_slots(slots, nbytes),
                        mask_from_slots(groups, group_bytes),
                        len(groups),
                    )
        return rules

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
        # "start from the set with lower cardinality"
        parents.sort(key=lambda entry: len(lattice[entry[0]]))
        parent_key, direction = parents[0]
        result = self._extend(
            lattice[parent_key], min_count, 0 if direction == "body" else 1,
            self._is_leaf(m, n),
        )
        lattice[target] = result
        self.lattice_sizes[target] = len(result)
        if result:
            frontier.append(target)

    def _extend(
        self, rules: RuleSet, min_count: int, side: int, leaf: bool
    ) -> RuleSet:
        """Grow *side* of every rule by one item — 0: (m, n) -> (m+1, n),
        joining rules that share the head and a body prefix; 1: (m, n)
        -> (m, n+1), sharing the body and a head prefix.  A pair whose
        group bitmaps share fewer than *min_count* groups, or whose
        grown side's own count is below it, is rejected before its
        triple-level intersection.  A *leaf* result keeps no supports."""
        siblings: Dict[
            Tuple[Tuple[int, ...], Tuple[int, ...]],
            List[Tuple[Tuple[int, ...], Rule]],
        ] = {}
        for key, rule in rules.items():
            grown = key[side]
            siblings.setdefault((key[1 - side], grown[:-1]), []).append(
                (grown, rule)
            )
        group_count = self._triples.group_count
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
                        out[key] = (None if leaf else shared, groups, count)
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
        for keys in data.clusters.values():
            slots.extend(enumerate(keys, universe.add(len(keys))))
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
