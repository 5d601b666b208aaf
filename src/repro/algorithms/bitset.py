"""Big-int bitmaps: the vertical mining representation.

The pool algorithms and the general core operator spend nearly all of
their time intersecting sets of identifiers — group ids for the
gid-list algorithms of Section 4.3.1, ``(group, body cluster, head
cluster)`` triples for the rule lattice of Section 4.3.2.  Python
integers are arbitrary-precision bit arrays whose bitwise operators
run in C over whole machine words, so after densely re-indexing the
identifiers into contiguous bit slots, set intersection becomes ``&``
and support counting becomes :meth:`int.bit_count` — typically an
order of magnitude faster than hashing tuples into ``set`` objects.

The representation stays entirely behind the paper's encoding
borderline: algorithms still see only identifiers, the bitmaps are a
private physical layout — the only one a pool member has.  The general
core also keeps a slot-set layout because sparse supports are faster as
sets, and picks between the two from what it measured
(:mod:`repro.kernel.core.general`).

Big ints are immutable, so building one a bit at a time
(``mask |= 1 << slot``) copies the whole integer per bit — quadratic in
the universe size.  Every big-int bitmap here is therefore built by
:func:`mask_from_slots`: the slots are collected first, set in a
``bytearray`` in place and converted once, which is linear.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator
from typing import List, Mapping, Optional, Sequence, Tuple


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

    universe_sizes: Dict[str, int] = None  # type: ignore[assignment]
    popcount_calls: int = 0
    intersections: int = 0
    passes: int = 0
    candidates: int = 0
    bits_set: int = 0
    bits_possible: int = 0

    def __post_init__(self) -> None:
        if self.universe_sizes is None:
            self.universe_sizes = {}

    def merge(self, other: "BitsetStats") -> None:
        for label, size in other.universe_sizes.items():
            self.universe_sizes[label] = max(
                self.universe_sizes.get(label, 0), size
            )
        self.popcount_calls += other.popcount_calls
        self.intersections += other.intersections
        self.passes += other.passes
        self.candidates += other.candidates
        self.bits_set += other.bits_set
        self.bits_possible += other.bits_possible

    def clear(self) -> None:
        self.universe_sizes = {}
        self.popcount_calls = 0
        self.intersections = 0
        self.passes = 0
        self.candidates = 0
        self.bits_set = 0
        self.bits_possible = 0

    def sample_density(self, bitmaps: "Iterable[int]", universe_size: int) -> None:
        """Accumulate occupancy of freshly built *bitmaps* over a
        universe of *universe_size* slots."""
        n = 0
        for bitmap in bitmaps:
            self.bits_set += bitmap.bit_count()
            n += 1
        self.bits_possible += n * universe_size

    def density(self) -> float:
        """Fraction of set bits among the sampled bitmaps (0.0 when
        nothing was sampled)."""
        if not self.bits_possible:
            return 0.0
        return self.bits_set / self.bits_possible


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


class SlotUniverse:
    """Dense re-indexing of hashable identifiers into bit slots.

    Slots are assigned in first-appearance order, so building the
    universe from a deterministic iteration yields a deterministic
    layout (and therefore deterministic masks).
    """

    __slots__ = ("_slot_of", "_members")

    def __init__(self, idents: Iterable[Hashable] = ()) -> None:
        self._slot_of: Dict[Hashable, int] = dict(
            zip(dict.fromkeys(idents), itertools.count())
        )
        self._members: List[Hashable] = list(self._slot_of)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, ident: Hashable) -> bool:
        return ident in self._slot_of

    def __iter__(self) -> Iterator[Hashable]:
        """The identifiers in slot order."""
        return iter(self._members)

    def slot(self, ident: Hashable) -> int:
        """The slot of *ident*, assigned on first use."""
        slot = self._slot_of.get(ident)
        if slot is None:
            slot = len(self._members)
            self._slot_of[ident] = slot
            self._members.append(ident)
        return slot

    def slots(self, idents: Iterable[Hashable]) -> Iterator[int]:
        """The slots of already interned *idents*, in their order."""
        return map(self._slot_of.__getitem__, idents)


@dataclass
class VerticalInput:
    """The simple core's input, the one type every pool member mines:
    encoded groups in vertical form.  :meth:`from_columns` builds it
    from the ``Gid``/``Bid`` columns of ``CodedSource``,
    :meth:`from_groups` from a ``gid -> items`` map, and :meth:`of` is
    the normalisation each ``mine()`` applies to its argument.  Gid
    lists are materialised on demand (:meth:`gid_lists`), the
    horizontal map (:attr:`groups`) only when a member asks for it.
    """

    #: group id <-> dense bit slot, in first-appearance order
    universe: SlotUniverse
    #: item id -> slots of the groups containing it; a repeated
    #: (group, item) pair repeats its slot, which gid lists absorb
    slots_of: Dict[Hashable, List[int]]
    #: (group, item) pairs read
    entries: int
    _groups: Optional[Mapping[Hashable, FrozenSet]] = None

    @classmethod
    def from_columns(cls, gid_col: Sequence, bid_col: Sequence) -> "VerticalInput":
        universe = SlotUniverse(gid_col)
        slots_of: Dict[Hashable, List[int]] = defaultdict(list)
        for slot, bid in zip(universe.slots(gid_col), bid_col):
            slots_of[bid].append(slot)
        return cls(universe, dict(slots_of), len(bid_col))

    @classmethod
    def from_groups(cls, groups: Mapping[Hashable, FrozenSet]) -> "VerticalInput":
        slots_of: Dict[Hashable, List[int]] = defaultdict(list)
        entries = 0
        for slot, items in enumerate(groups.values()):
            entries += len(items)
            for item in items:
                slots_of[item].append(slot)
        return cls(SlotUniverse(groups), dict(slots_of), entries, groups)

    @classmethod
    def of(cls, source) -> "VerticalInput":
        """*source* itself if already vertical, else built from a group map."""
        return source if isinstance(source, cls) else cls.from_groups(source)

    def __len__(self) -> int:  # groups
        return len(self.universe)

    def gid_lists(self, min_count: int = 1) -> Dict[Hashable, int]:
        """item -> gid list, a big-int bitmap over the group slots,
        ascending by item.  An item with fewer than *min_count* slots
        is never materialised: the length of its list bounds its
        support from above."""
        nbytes = (len(self.universe) + 7) >> 3
        slots_of = self.slots_of
        return {
            item: mask_from_slots(slots_of[item], nbytes)
            for item in sorted(slots_of)
            if len(slots_of[item]) >= min_count
        }

    @property
    def groups(self) -> Mapping[Hashable, FrozenSet]:
        """The horizontal view, ``gid -> frozenset(items)`` in slot
        order, for the members that scan groups (dhp, exhaustive,
        aprioritid, sampling's draw, partition's slicing).  Derived
        from the slot lists on first use."""
        if self._groups is None:
            members: List[List[Hashable]] = [[] for _ in range(len(self))]
            for item, slots in self.slots_of.items():
                for slot in slots:
                    members[slot].append(item)
            self._groups = dict(zip(self.universe, map(frozenset, members)))
        return self._groups


def count_itemsets(
    vertical: VerticalInput, candidates: Iterable[FrozenSet], min_count: int,
    stats: BitsetStats,
) -> Dict[FrozenSet, int]:
    """The *candidates* contained in at least *min_count* groups of
    the whole input, with exact counts (the two-phase members' second
    pass): AND the items' gid lists, count.  A globally infrequent
    item has no gid list and sinks its candidates."""
    stats.universe_sizes["gid"] = len(vertical)
    gid_lists = vertical.gid_lists(min_count)
    counts: Dict[FrozenSet, int] = {}
    for candidate in candidates:
        try:
            first, *rest = [gid_lists[item] for item in candidate]
        except KeyError:
            continue
        for gid_list in rest:
            first &= gid_list
        stats.intersections += len(rest)
        stats.popcount_calls += 1
        count = first.bit_count()
        if count >= min_count:
            counts[candidate] = count
    return counts


class GroupedUniverse:
    """A dense slot universe over keyed identifiers — tuples whose
    first element is a *group key* — laid out contiguously per group
    with one always-zero *guard* bit above each group's span.

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

    :attr:`group_of` maps every slot to the position of its group (in
    interning order), which is how a *sparse* support — a set of slots
    rather than a bitmap — counts its distinct groups.

    Callers must add slots grouped by key (the loaders iterate per
    group, and the elementary-rule table is sorted first); interleaving
    keys raises.
    """

    __slots__ = ("_base_of", "_bases", "_last_key", "group_of",
                 "_anchor_low", "_anchor_high", "_anchor_size",
                 "group_count_calls")

    def __init__(self) -> None:
        #: group key -> base slot of the group's span
        self._base_of: Dict[Hashable, int] = {}
        #: base slots in interning order (ascending)
        self._bases: List[int] = []
        self._last_key: Hashable = _NO_KEY
        #: slot -> group position; a guard slot carries the group below
        #: it and is never looked up.  Its length is the next free slot.
        self.group_of: List[int] = []
        self._anchor_low = 0
        self._anchor_high = 0
        self._anchor_size = -1  # len(group_of) when the anchors were built
        #: observability: distinct-group counts performed
        self.group_count_calls = 0

    def __len__(self) -> int:
        return len(self.group_of) - max(len(self._bases) - 1, 0)

    @property
    def groups(self) -> int:
        """Number of group keys interned."""
        return len(self._bases)

    @property
    def nbytes(self) -> int:
        """Bytes that hold every slot and the open last group's guard."""
        return (len(self.group_of) >> 3) + 1

    def next_slot(self, key: Hashable) -> int:
        """The slot the next :meth:`add` for *key* returns."""
        return len(self.group_of) + (
            key != self._last_key and bool(self._bases)
        )

    def add(self, key: Hashable, count: int = 1) -> int:
        """*count* fresh consecutive slots in *key*'s span, the first
        one returned."""
        group_of = self.group_of
        if key != self._last_key:
            if key in self._base_of:
                raise ValueError(
                    f"group key {key!r} added non-contiguously; "
                    "add slots grouped by key"
                )
            if self._bases:
                group_of.append(len(self._bases) - 1)  # previous guard bit
            self._base_of[key] = len(group_of)
            self._bases.append(len(group_of))
            self._last_key = key
        first = len(group_of)
        group_of.extend([len(self._bases) - 1] * count)
        return first

    def _anchors(self) -> Tuple[int, int]:
        """The (base, guard) anchor bitmaps, rebuilt lazily after the
        universe grew.  Group *i*'s guard slot sits just below group
        *i+1*'s base; the still-open last group's guard is the next
        unassigned slot."""
        size = len(self.group_of)
        if self._anchor_size != size:
            bases = self._bases
            guards = [base - 1 for base in bases[1:]]
            guards.append(size)
            self._anchor_low = mask_from_slots(bases, self.nbytes)
            self._anchor_high = mask_from_slots(guards, self.nbytes)
            self._anchor_size = size
        return self._anchor_low, self._anchor_high

    def group_count(self, mask: int) -> int:
        """Number of distinct group keys among the set slots of
        *mask* — mask-and-popcount, exact, O(universe words)."""
        self.group_count_calls += 1
        if not mask:
            return 0
        low, high = self._anchors()
        return (((mask | high) - low) & high).bit_count()

    def slot_group_count(self, slots: Iterable[int]) -> int:
        """The same count for a sparse support: distinct groups among
        the slots of a set, through :attr:`group_of`."""
        self.group_count_calls += 1
        return len(set(map(self.group_of.__getitem__, slots)))


class _NoKey:
    """Sentinel distinct from any group key (including None)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<no key>"


_NO_KEY = _NoKey()
