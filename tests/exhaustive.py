"""The exhaustive itemset oracle of the pool tests.

:class:`Exhaustive` enumerates candidate itemsets levelwise without any
pruning beyond the level cut-off (it stops at the first empty level,
which is safe by downward closure) and counts each one by scanning
every group: exponential, and sharing no counting code with the pool
members it checks.  It is a plain class, not a registered pool member:
importing this module leaves ``repro.algorithms.ALGORITHMS`` alone.
:func:`join_candidates` is the reference Apriori candidate generation
that ``Apriori._join_level``'s inline generation is tested against.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Tuple

from repro.algorithms import ItemsetCounts, MinerInput, VerticalInput

#: byte value -> the positions of its set bits, ascending
_BITS_OF_BYTE = tuple(
    tuple(bit for bit in range(8) if byte >> bit & 1) for byte in range(256)
)


def mask_slots(mask: int) -> Iterator[int]:
    """The set slots of the bitmap *mask*, ascending: one pass over its
    bytes (the inverse of :func:`repro.algorithms.bitset.mask_from_slots`)."""
    data = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
    for index, byte in enumerate(data):
        if byte:
            base = index << 3
            for bit in _BITS_OF_BYTE[byte]:
                yield base + bit


def group_map(vertical: VerticalInput) -> Dict[int, FrozenSet]:
    """``slot -> frozenset(items)`` of *vertical*'s group slots that hold
    an item, ascending, rebuilt from its item bitmaps: a slot no group
    was numbered with is skipped."""
    members: Dict[int, List[Hashable]] = defaultdict(list)
    for item, bitmap in vertical.bitmaps.items():
        for slot in mask_slots(bitmap):
            members[slot].append(item)
    return {slot: frozenset(members[slot]) for slot in sorted(members)}


class Exhaustive:
    """Levelwise enumeration of every combination, with the pool's
    ``mine(groups, min_count)`` contract."""

    def mine(self, groups: MinerInput, min_count: int) -> ItemsetCounts:
        if min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {min_count}")
        if isinstance(groups, VerticalInput):
            groups = group_map(groups)
        baskets = list(groups.values())
        items = sorted({item for basket in baskets for item in basket})
        counts: ItemsetCounts = {}
        for size in range(1, len(items) + 1):
            found_any = False
            for combo in itertools.combinations(items, size):
                candidate = frozenset(combo)
                count = sum(1 for basket in baskets if candidate <= basket)
                if count >= min_count:
                    counts[candidate] = count
                    found_any = True
            if not found_any:
                break
        return counts


def join_candidates(frequent: Iterable[Tuple[int, ...]]) -> List[Tuple[int, ...]]:
    """Apriori candidate generation: join k-itemsets sharing a
    (k-1)-prefix, then prune candidates with an infrequent k-subset.
    Itemsets are sorted tuples.  The two subsets without one of the
    last two items are the joined parents, so only the others are
    probed (none for a 2-item candidate)."""
    frequent = sorted(frequent)
    frequent_set = set(frequent)
    candidates: List[Tuple[int, ...]] = []
    by_prefix: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {}
    for itemset in frequent:
        by_prefix.setdefault(itemset[:-1], []).append(itemset)
    for siblings in by_prefix.values():
        for a, b in itertools.combinations(siblings, 2):
            candidate = a + (b[-1],) if a[-1] < b[-1] else b + (a[-1],)
            if all(
                candidate[:drop] + candidate[drop + 1:] in frequent_set
                for drop in range(len(candidate) - 2)
            ):
                candidates.append(candidate)
    return candidates
