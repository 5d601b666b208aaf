"""Big-int bitmaps: the vertical mining representation.

The pool algorithms and the general core operator spend nearly all of
their time intersecting sets of identifiers — group ids for the
gid-list algorithms of Section 4.3.1, ``(group, body cluster, head
cluster)`` triples for the rule lattice of Section 4.3.2.  Python
integers are arbitrary-precision bit arrays whose bitwise operators
run in C over whole machine words, so with the encoded identifiers,
dense already, as contiguous bit slots, set intersection becomes ``&``
and support counting becomes :meth:`int.bit_count` — typically an
order of magnitude faster than hashing tuples into ``set`` objects.

The representation stays entirely behind the paper's encoding
borderline: algorithms still see only identifiers, the bitmaps are a
private physical layout — the only one the pool members and the
general core (:mod:`repro.kernel.core.general`) have.

Big ints are immutable, so building one a bit at a time
(``mask |= 1 << slot``) copies the whole integer per bit — quadratic in
the universe size.  Every big-int bitmap here is therefore built by
:func:`mask_from_slots`: the slots are collected first, set in a
``bytearray`` in place and converted once, which is linear.
"""

from __future__ import annotations

import itertools
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import Any, Dict, FrozenSet, Hashable, Iterable, List, Mapping
from typing import Optional, Sequence, Tuple


@dataclass
class BitsetStats:
    """Counters of the bitmap kernels (observability).

    ``universe_sizes`` maps a universe label (e.g. ``"gid"``,
    ``"triple"``) to the number of slots interned; ``popcount_calls``
    counts support evaluations (``bit_count`` or distinct-group
    scans); ``intersections`` counts bitmap ``&`` operations on the
    measured hot paths.  ``passes`` counts levelwise (or recursive)
    rounds over the lattice, ``candidates`` the itemsets generated for
    support evaluation.  ``bits_set``/``bits_possible`` sample bitmap
    occupancy at construction — their ratio is :meth:`density`.
    """

    universe_sizes: Dict[str, int] = field(default_factory=dict)
    popcount_calls: int = 0
    intersections: int = 0
    passes: int = 0
    candidates: int = 0
    bits_set: int = 0
    bits_possible: int = 0

    def clear(self) -> None:
        self.universe_sizes = {}
        self.popcount_calls = 0
        self.intersections = 0
        self.passes = 0
        self.candidates = 0
        self.bits_set = 0
        self.bits_possible = 0

    def sample_density(self, supports: Sequence[int], universe_size: int) -> None:
        """Accumulate occupancy of freshly built bitmaps, given their
        popcounts *supports*, over a universe of *universe_size* slots."""
        self.bits_set += sum(supports)
        self.bits_possible += len(supports) * universe_size

    def density(self) -> float:
        """Fraction of set bits among the sampled bitmaps (0.0 when
        nothing was sampled)."""
        if not self.bits_possible:
            return 0.0
        return self.bits_set / self.bits_possible

    def span_args(self) -> Dict[str, Any]:
        """The counters as attributes of the ``core`` component span,
        where the trace, the ``repro_core_*`` series and the rendered
        flow and report read them."""
        return {
            "popcounts": self.popcount_calls,
            "intersections": self.intersections,
            "passes": self.passes,
            "candidates": self.candidates,
            "bitset_density": round(self.density(), 6),
            "universe_sizes": dict(self.universe_sizes),
        }


def mask_from_slots(slots: Iterable[int], nbytes: int) -> int:
    """The big-int bitmap with *slots* set, over a universe of
    *nbytes* bytes: bits are set in place in a ``bytearray`` and the
    integer is built once, so the cost is linear in the slots (plus one
    pass over the universe) instead of one whole-integer copy per bit.
    Duplicate slots are harmless; a slot beyond *nbytes* raises
    ``IndexError``."""
    buffer = bytearray(nbytes)
    for slot in slots:
        buffer[slot >> 3] |= 1 << (slot & 7)
    return int.from_bytes(buffer, "little")


@dataclass(frozen=True)
class VerticalInput:
    """The simple core's input, the one type every pool member mines:
    encoded groups in vertical form, one gid bitmap per item, built at
    construction.  :meth:`from_columns` builds it from the ``Gid``/``Bid``
    columns of ``CodedSource``, :meth:`from_groups` from a ``gid ->
    items`` map, and :meth:`of` is the normalisation each ``mine()``
    applies to its argument.

    It never changes once built — the members read it and build their
    own structures beside it — so one input can be mined by any number
    of statements (the Section-3 reuse cache keeps it,
    :mod:`repro.system`).  It is kept small for that: a group count and
    one big int per item, no slot lists and no gid -> slot map.
    """

    #: the encoded groups: those holding a pair (the popcount of the
    #: bitmaps' union), or a refresh state's whole group universe
    group_count: int
    #: item id -> gid bitmap over the group slots, ascending by item; a
    #: repeated (group, item) pair sets its bit once
    bitmaps: Dict[Hashable, int]
    #: (group, item) pairs read
    entries: int

    @classmethod
    def from_columns(cls, gid_col: Sequence, bid_col: Sequence) -> "VerticalInput":
        """Bit ``Gid - 1`` for each pair: a sequence numbered the groups
        densely already.  Ids that are not dense (:func:`_dense_top`)
        are renumbered once, in first-appearance order, before the
        same build."""
        top = _dense_top(gid_col)
        if top is None:
            gid_col, top = _renumbered(gid_col)
        return cls._of_pairs(zip(gid_col, bid_col), top, len(bid_col))

    @classmethod
    def from_groups(cls, groups: Mapping[Hashable, FrozenSet]) -> "VerticalInput":
        pairs = [(gid, item) for gid, items in enumerate(groups.values(), 1)
                 for item in items]
        return cls._of_pairs(pairs, len(groups), len(pairs))

    @classmethod
    def _of_pairs(
        cls, pairs: Iterable[Tuple[int, Hashable]], top: int, entries: int
    ) -> "VerticalInput":
        """The input over (group id, item) *pairs* with ids 1..*top*:
        bit ``id - 1`` of the item's bitmap."""
        ids_of: Dict[Hashable, List[int]] = defaultdict(list)
        for gid, item in pairs:
            ids_of[item].append(gid)
        bitmaps = {item: mask_from_slots(ids_of[item], (top >> 3) + 1) >> 1
                   for item in sorted(ids_of)}
        return cls(reduce(or_, bitmaps.values(), 0).bit_count(), bitmaps,
                   entries)

    @classmethod
    def of(cls, source) -> "VerticalInput":
        """*source* itself if already vertical, else built from a group map."""
        return source if isinstance(source, cls) else cls.from_groups(source)

    def __len__(self) -> int:  # groups
        return self.group_count


def _dense_top(ids: Sequence) -> Optional[int]:
    """The largest of *ids* if each can be its own bit slot — ints from
    1 to twice their number, so that no bitmap is sized by a stray huge
    id — else None."""
    if isinstance(ids, array) and ids.typecode == "q" or all(
            type(ident) is int for ident in ids):
        top = max(ids, default=0)
        if min(ids, default=1) >= 1 and top <= 2 * len(ids):
            return top
    return None


def _renumbered(ids: Sequence) -> Tuple[List[int], int]:
    """*ids* numbered 1..k in first-appearance order, and k."""
    number = dict(zip(dict.fromkeys(ids), itertools.count(1)))
    return list(map(number.__getitem__, ids)), len(number)




class GroupedUniverse:
    """A dense slot universe laid out contiguously per group, with one
    always-zero *guard* bit closing each group's span.  A group is its
    position in :meth:`add` order: the loaders hand over encoded
    groups, already numbered, so no key is interned here.

    The guard bits turn distinct-group counting into three big-int
    operations and one popcount (the triple-slot -> group-slot
    masking): with ``L`` holding a bit at every group's base slot and
    ``H`` a bit at every group's guard slot,

        ``((mask | H) - L) & H``

    keeps a group's guard bit set iff the group contributed at least
    one slot to *mask*.  Subtracting the base bit borrows all the way
    up through the group's span exactly when the span is empty
    (clearing the guard bit), and since ``mask | H`` sets every guard
    bit, the borrow never crosses into the next group.  The whole
    count runs in C over machine words — no per-bit walk.

    :attr:`group_of` maps every slot to the position of its group,
    which is how a plain list of slots counts its distinct groups
    before any bitmap is built.  A group may hold no slot (``add(0)``):
    its base bit is its guard bit, so it still has a position and is
    never counted.
    """

    __slots__ = ("_bases", "group_of", "_anchor_low", "_anchor_high",
                 "_anchor_size", "group_count_calls")

    def __init__(self) -> None:
        #: base slot of each group, in position order (ascending)
        self._bases: List[int] = []
        #: slot -> group position, a guard slot carrying its own group;
        #: its length is the next group's base slot
        self.group_of: List[int] = []
        self._anchor_low = 0
        self._anchor_high = 0
        self._anchor_size = -1  # len(group_of) when the anchors were built
        #: observability: distinct-group counts performed
        self.group_count_calls = 0

    def __len__(self) -> int:  # slots, guards left out
        return len(self.group_of) - len(self._bases)

    @property
    def groups(self) -> int:
        """Number of groups added."""
        return len(self._bases)

    @property
    def nbytes(self) -> int:
        """Bytes that hold every slot and guard."""
        return (len(self.group_of) + 7) >> 3

    def add(self, count: int) -> int:
        """A new group of *count* consecutive slots, closed by its
        guard bit; its first slot is returned."""
        first = len(self.group_of)
        self._bases.append(first)
        self.group_of.extend([len(self._bases) - 1] * (count + 1))
        return first

    def _anchors(self) -> Tuple[int, int]:
        """The (base, guard) anchor bitmaps, rebuilt lazily after the
        universe grew.  Every guard sits just below the next group's
        base, and the last one in the last slot."""
        size = len(self.group_of)
        if self._anchor_size != size:
            low = mask_from_slots(self._bases, self.nbytes)
            self._anchor_low = low
            self._anchor_high = (low >> 1) | 1 << (size - 1)
            self._anchor_size = size
        return self._anchor_low, self._anchor_high

    def group_count(self, mask: int) -> int:
        """Number of distinct groups among the set slots of *mask* —
        mask-and-popcount, exact, O(universe words)."""
        self.group_count_calls += 1
        if not mask:
            return 0
        low, high = self._anchors()
        return (((mask | high) - low) & high).bit_count()
