"""Sharded multi-core mining: group-range partitioning + exact merge.

The paper's encoded representation — ``(Gid, Bid)`` pairs, and
``(Gid, Cid, ...)`` for the general variant — partitions cleanly by
group range, and every count the core operator needs (itemset group
counts, rule support counts, body occurrence counts) is *additive*
across gid-disjoint slices.  That is exactly the shape of the
Partition pool member (Savasere et al., VLDB 1995) lifted from one
process to many:

phase 1 (local)
    every shard mines its contiguous gid range with a proportionally
    scaled threshold ``max(1, ceil(min_count/total * shard_size))``.
    Any globally frequent itemset/rule must be locally frequent in at
    least one shard, so the union of the local result keys is a
    complete candidate superset (never a miss; possibly extra
    candidates that the recount discards).

phase 2 (recount)
    every shard counts *all* candidates exactly over its own range —
    vertical AND-and-popcount for the simple variant
    (:func:`exact_itemset_counts`), elementary-support intersection
    for the lattice variant
    (:meth:`~repro.kernel.core.general.GeneralCoreOperator.exact_counts`).

merge
    per-candidate counts sum across shards; globally frequent
    survivors go through the *same* rule construction as the serial
    path (:func:`repro.kernel.core.simple.build_rules`, or the
    general emission arithmetic replicated in
    :func:`_emit_general`), so the output rule list is bit-identical
    to ``workers=1`` — same integers, same float divisions, same
    canonical sort.

Workers are ``multiprocessing.Pool`` processes (start method
selectable: fork is cheapest, spawn is the portable/CI choice).  The
mining input travels once per pool via the worker initializer —
inherited through the fork memory image for free, pickled once per
worker under spawn — and each task payload carries only its gid span,
so per-phase serialization stays negligible next to the mining
itself.  ``in_process=True`` runs the identical phase functions
inline — used by the differential tests and as the graceful fallback
when a pool cannot be created.  Fault site ``core.shard.<i>`` is
checked in the parent before dispatching shard ``i`` (schedules are
process-local, so checks inside workers would never fire).
"""

from __future__ import annotations

import math
import time
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro import faults
from repro.algorithms.base import (
    FrequentItemsetMiner,
    GroupMap,
    ItemsetCounts,
    item_bitmaps,
)
from repro.algorithms.bitset import (
    BitsetStats,
    SlotUniverse,
    packed_item_bitmaps,
    packed_kernels_enabled,
    validate_representation,
)
from repro.kernel.core.general import GeneralCoreOperator, RuleKey
from repro.kernel.core.inputs import GeneralInput, SimpleInput
from repro.kernel.core.rules import CONFIDENCE_EPSILON as _EPSILON
from repro.kernel.core.rules import EncodedRule
from repro.kernel.core.simple import build_rules
from repro.kernel.metrics import CoreStats
from repro.kernel.program import CoreDirectives
from repro.obs import context as obs_context
from repro.obs.context import ChildTracer
from repro.obs.metrics import NULL_REGISTRY
from repro.obs.spans import NULL_TRACER

#: start methods accepted by :class:`ShardedMiner` (None: platform
#: default — fork on POSIX, spawn elsewhere)
START_METHODS = ("fork", "spawn", "forkserver")


def local_min_count(min_count: int, total: int, shard_size: int) -> int:
    """The scaled phase-1 threshold of a shard holding *shard_size* of
    *total* groups: the same ``ceil`` scaling as the Partition
    algorithm, guaranteeing that a globally frequent itemset is
    locally frequent in at least one shard."""
    if shard_size == 0:
        return 1
    fraction = min_count / total
    return max(1, math.ceil(fraction * shard_size - 1e-9))


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic split of a group universe into contiguous Gid
    ranges.

    ``bounds[i]`` is the inclusive ``(lo, hi)`` gid range of shard
    ``i`` (``None`` for an empty shard — more shards than groups);
    ``sizes[i]`` its group count.  Ranges follow sorted-gid order and
    sizes are balanced to within one group (the first ``total %
    shards`` shards take the extra group), so the same universe always
    yields the same plan.
    """

    shards: int
    bounds: Tuple[Optional[Tuple[int, int]], ...]
    sizes: Tuple[int, ...]

    @classmethod
    def split(cls, gids, shards: int) -> "ShardPlan":
        if shards < 1:
            raise ValueError(f"shards must be positive, got {shards}")
        ordered = sorted(gids)
        total = len(ordered)
        base, extra = divmod(total, shards)
        bounds: List[Optional[Tuple[int, int]]] = []
        sizes: List[int] = []
        start = 0
        for index in range(shards):
            size = base + (1 if index < extra else 0)
            if size == 0:
                bounds.append(None)
            else:
                bounds.append((ordered[start], ordered[start + size - 1]))
            sizes.append(size)
            start += size
        return cls(shards=shards, bounds=tuple(bounds), sizes=tuple(sizes))

    @property
    def total(self) -> int:
        return sum(self.sizes)

    def assign(self, groups: GroupMap) -> List[Dict[int, FrozenSet[int]]]:
        """Split a group map into per-shard sub-maps along the plan."""
        ordered = sorted(groups)
        out: List[Dict[int, FrozenSet[int]]] = []
        start = 0
        for size in self.sizes:
            out.append(
                {gid: groups[gid] for gid in ordered[start : start + size]}
            )
            start += size
        return out

    def shard_of(self, gid: int) -> Optional[int]:
        """The shard whose range contains *gid* (None when out of
        every range)."""
        for index, span in enumerate(self.bounds):
            if span is not None and span[0] <= gid <= span[1]:
                return index
        return None

    def describe(self) -> str:
        """One-line summary for the process trace."""
        spans = ", ".join(
            "empty" if span is None else f"{span[0]}..{span[1]} ({size})"
            for span, size in zip(self.bounds, self.sizes)
        )
        return f"{self.shards} shards: {spans}"


class ColumnarShardSource:
    """Lazy per-shard group maps over the raw ``(Gid, Bid)`` identifier
    columns of a columnar ``CodedSource`` table.

    The streaming alternative to ``ShardPlan.assign``: instead of
    materializing every shard's ``{gid: frozenset(items)}`` dict in the
    parent (dicts of frozensets pickle expensively, and under spawn the
    whole bundle travels to every worker), the bundle carries the two
    flat identifier lists straight off the columnar table's vectors
    plus the shard bounds.  Each worker builds — and memoizes — only
    the shard maps it is actually handed, in the same sorted-gid order
    as ``ShardPlan.assign``, so the mining output stays bit-identical
    to the dict path.  Indexing mimics the per-shard list the phase
    functions expect (``shards[index]``).

    The general variant keeps the sliced-input path: its per-shard
    inputs are nested cluster maps that have no flat column shape.
    """

    __slots__ = ("gids", "bids", "bounds", "_cache")

    def __init__(self, gids, bids, bounds):
        self.gids = gids
        self.bids = bids
        self.bounds = bounds
        self._cache: Dict[int, Dict[int, FrozenSet[int]]] = {}

    def __getstate__(self):
        # the memo stays process-local; only the columns travel
        return (self.gids, self.bids, self.bounds)

    def __setstate__(self, state):
        self.gids, self.bids, self.bounds = state
        self._cache = {}

    def __len__(self) -> int:
        return len(self.bounds)

    def __getitem__(self, index: int) -> Dict[int, FrozenSet[int]]:
        groups = self._cache.get(index)
        if groups is None:
            sets: Dict[int, set] = {}
            span = self.bounds[index]
            if span is not None:
                lo, hi = span
                for gid, bid in zip(self.gids, self.bids):
                    if lo <= gid <= hi:
                        sets.setdefault(gid, set()).add(bid)
            groups = {gid: frozenset(sets[gid]) for gid in sorted(sets)}
            self._cache[index] = groups
        return groups


def exact_itemset_counts(
    groups: GroupMap,
    candidates: List[Tuple[int, ...]],
    representation: str,
) -> List[int]:
    """Exact group counts of every candidate itemset over *groups*,
    aligned with *candidates* (sorted item tuples).

    The shard-local recount kernel of the simple variant: vertical
    AND-and-popcount on the bitmap layouts, a horizontal subset scan
    on ``"set"``.  No threshold is applied — merging partial counts
    across shards needs the zeros too.
    """
    if not groups:
        return [0] * len(candidates)
    if representation == "set":
        sets = [frozenset(candidate) for candidate in candidates]
        counts = [0] * len(candidates)
        for items in groups.values():
            for index, candidate in enumerate(sets):
                if candidate <= items:
                    counts[index] += 1
        return counts
    universe = SlotUniverse(groups)
    if representation == "packed" and packed_kernels_enabled(len(universe)):
        item_maps = packed_item_bitmaps(groups.items(), universe)
    else:
        item_maps = item_bitmaps(groups.items(), universe)
    counts = []
    for candidate in candidates:
        mask = None
        missing = False
        for item in candidate:
            bitmap = item_maps.get(item)
            if bitmap is None:
                missing = True
                break
            mask = bitmap if mask is None else mask & bitmap
            if not mask:
                break
        counts.append(0 if missing or mask is None else mask.bit_count())
    return counts


def slice_general_input(
    data: GeneralInput, lo: int, hi: int, min_count: int
) -> GeneralInput:
    """The gid-range restriction of a general-core input: same flags,
    per-shard threshold, and only the groups with ``lo <= gid <= hi``."""
    body_items = {
        gid: clusters
        for gid, clusters in data.body_items.items()
        if lo <= gid <= hi
    }
    head_items = {
        gid: clusters
        for gid, clusters in data.head_items.items()
        if lo <= gid <= hi
    }
    cluster_pairs = None
    if data.cluster_pairs is not None:
        cluster_pairs = {
            gid: pairs
            for gid, pairs in data.cluster_pairs.items()
            if lo <= gid <= hi
        }
    elementary = None
    if data.elementary is not None:
        elementary = [row for row in data.elementary if lo <= row[0] <= hi]
    return GeneralInput(
        totg=data.totg,
        min_count=min_count,
        same_schema=data.same_schema,
        clustered=data.clustered,
        body_items=body_items,
        head_items=head_items,
        cluster_pairs=cluster_pairs,
        elementary=elementary,
    )


#: user-facing message when an *explicitly requested* packed layout is
#: remapped for the lattice core (tests pin this text)
PACKED_LATTICE_REMAP_MESSAGE = (
    'representation="packed" is not supported by the lattice (general) '
    "core: the guard-bit distinct-group trick needs big-int borrow "
    'subtraction; proceeding with representation="bitset"'
)

_packed_remap_warned = False


def _warn_packed_lattice_remap(tracer) -> None:
    """Surface an explicit packed->bitset lattice remap: a tracer
    instant every time, a ``RuntimeWarning`` once per process (the
    remap is per-run but nagging on every statement helps nobody)."""
    global _packed_remap_warned
    if tracer is not None and tracer.enabled:
        tracer.instant(
            "core.representation_remap",
            category="core",
            requested="packed",
            effective="bitset",
        )
    if not _packed_remap_warned:
        warnings.warn(
            PACKED_LATTICE_REMAP_MESSAGE, RuntimeWarning, stacklevel=3
        )
        _packed_remap_warned = True


def reset_packed_remap_warning() -> None:
    """Re-arm the one-time remap warning (test isolation helper)."""
    global _packed_remap_warned
    _packed_remap_warned = False


# ---------------------------------------------------------------------------
# phase functions (module level: picklable under every start method)
# ---------------------------------------------------------------------------

#: the per-pool input bundle, installed by :func:`_set_worker_bundle`.
#: Shipping the (large) mining input once per pool — through the fork
#: memory image for free, or one initializer pickle per worker under
#: spawn — instead of once per shard per phase keeps the task payloads
#: down to ``(index, ...)`` tuples; on a saturated machine the
#: per-task serialization would otherwise rival the mining itself.
#: The bundle holds the input *pre-sliced* per shard, so a forked
#: worker only ever touches (and therefore copy-on-writes) its own
#: shard's objects, not the whole group universe.
_WORKER_BUNDLE = None

#: trace id of the run that owns this pool (None: tracing off).  Set
#: by the initializer alongside the bundle; phase functions record
#: their spans into a per-task :class:`ChildTracer` and ship the
#: events back with the shard result for the parent to splice.
_WORKER_TRACE: Optional[str] = None


def _set_worker_bundle(bundle, trace: Optional[str] = None) -> None:
    """Pool initializer: install the shared input bundle and the
    owning run's trace id.  Also called directly (same process) by the
    inline executor paths."""
    global _WORKER_BUNDLE, _WORKER_TRACE
    _WORKER_BUNDLE = bundle
    _WORKER_TRACE = trace


def _child_tracer() -> Optional[ChildTracer]:
    """A per-task child tracer when the owning run is traced."""
    if _WORKER_TRACE is None:
        return None
    return ChildTracer(trace_id=_WORKER_TRACE or None)


def _shard_span(tracer: Optional[ChildTracer], phase: str, index: int):
    if tracer is None:
        return nullcontext()
    return tracer.span(
        f"core.shard.{index}.{phase}",
        category="core.shard",
        phase=phase,
        shard=index,
    )


def _child_events(tracer: Optional[ChildTracer]):
    return tracer.export() if tracer is not None else None


def _mine_simple_shard(payload):
    """Phase 1 (simple): locally frequent itemset keys of one shard."""
    index, local_min = payload
    started = time.perf_counter()
    tracer = _child_tracer()
    _, shards, algorithm = _WORKER_BUNDLE
    keys: List[Tuple[int, ...]] = []
    stats = BitsetStats()
    with _shard_span(tracer, "local", index):
        groups = shards[index]
        if groups:
            counts = algorithm.mine(groups, local_min)
            keys = sorted(tuple(sorted(itemset)) for itemset in counts)
            shard_stats = getattr(algorithm, "stats", None)
            if shard_stats is not None:
                stats.merge(shard_stats)
    return (
        index, keys, stats,
        time.perf_counter() - started, _child_events(tracer),
    )


def _count_simple_shard(payload):
    """Phase 2 (simple): exact candidate counts of one shard."""
    index, candidates, representation = payload
    started = time.perf_counter()
    tracer = _child_tracer()
    _, shards, _ = _WORKER_BUNDLE
    with _shard_span(tracer, "recount", index):
        counts = exact_itemset_counts(
            shards[index], candidates, representation
        )
    return (
        index, counts, None,
        time.perf_counter() - started, _child_events(tracer),
    )


def _mine_general_shard(payload):
    """Phase 1 (general): locally frequent lattice keys of one shard."""
    index, local_min = payload
    started = time.perf_counter()
    tracer = _child_tracer()
    _, shards, directives, representation = _WORKER_BUNDLE
    with _shard_span(tracer, "local", index):
        operator = GeneralCoreOperator(representation=representation)
        lattice = operator.mine_lattice(
            shards[index], directives, min_count=local_min
        )
        operator.finalize_stats()
        keys = sorted(
            key for rule_set in lattice.values() for key in rule_set
        )
    extras = (
        dict(operator.lattice_sizes),
        operator.join_pairs_examined,
        operator.bitmap_stats,
        operator.representation,
    )
    return (
        index, keys, extras,
        time.perf_counter() - started, _child_events(tracer),
    )


def _count_general_shard(payload):
    """Phase 2 (general): exact support/body counts of one shard."""
    index, candidates, bodies = payload
    started = time.perf_counter()
    tracer = _child_tracer()
    _, shards, _, representation = _WORKER_BUNDLE
    with _shard_span(tracer, "recount", index):
        operator = GeneralCoreOperator(representation=representation)
        supports, body_counts = operator.exact_counts(
            shards[index], candidates, bodies
        )
    return (
        index,
        (supports, body_counts),
        operator.bitmap_stats,
        time.perf_counter() - started,
        _child_events(tracer),
    )


def _emit_general(
    candidates: List[RuleKey],
    support_counts: List[int],
    body_counts: Dict[Tuple[int, ...], int],
    data: GeneralInput,
    directives: CoreDirectives,
) -> List[EncodedRule]:
    """The general variant's emission over merged exact counts — the
    same cardinality/confidence arithmetic and canonical sort as
    ``GeneralCoreOperator._emit``, fed by integers instead of support
    sets, so the float ratios come out bit-identical."""
    body_min, body_max = directives.body_card
    head_min, head_max = directives.head_card
    min_confidence = directives.min_confidence
    min_count = data.min_count

    rules: List[EncodedRule] = []
    for (body, head), support_count in zip(candidates, support_counts):
        if support_count < min_count:
            continue
        m, n = len(body), len(head)
        if m < body_min or (body_max is not None and m > body_max):
            continue
        if n < head_min or (head_max is not None and n > head_max):
            continue
        body_count = body_counts[body]
        confidence = support_count / body_count if body_count else 0.0
        if confidence + _EPSILON < min_confidence:
            continue
        rules.append(
            EncodedRule(
                body=frozenset(body),
                head=frozenset(head),
                support_count=support_count,
                body_count=body_count,
                support=support_count / data.totg if data.totg else 0.0,
                confidence=confidence,
            )
        )
    rules.sort(key=EncodedRule.key)
    return rules


# ---------------------------------------------------------------------------


class ShardedMiner:
    """The sharded executor: plan, fan out, recount, merge.

    ``workers`` bounds the process pool; ``shards`` (default:
    ``workers``) the number of gid ranges — more shards than workers
    simply queue.  ``start_method`` picks the multiprocessing start
    method (None: platform default).  ``in_process=True`` executes the
    identical phase functions inline, which is also the automatic
    fallback when the pool cannot be created (the results do not
    depend on where the phases run).
    """

    def __init__(
        self,
        workers: int = 2,
        shards: Optional[int] = None,
        start_method: Optional[str] = None,
        in_process: bool = False,
        tracer=None,
        metrics=None,
        explicit_representation: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        if shards is not None and shards < 1:
            raise ValueError(f"shards must be positive, got {shards}")
        if start_method is not None and start_method not in START_METHODS:
            raise ValueError(
                f"unknown start method {start_method!r}; "
                f"choose from {START_METHODS}"
            )
        self.workers = workers
        self.shards = shards if shards is not None else workers
        self.start_method = start_method
        self.in_process = in_process
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        #: True when the representation came from the user (an explicit
        #: choice that gets a warning if the lattice remaps it) rather
        #: than the executor's own packed auto-upgrade
        self.explicit_representation = explicit_representation
        #: (phase, shard) -> wall seconds of the last run
        self.shard_seconds: Dict[Tuple[str, int], float] = {}
        #: set when a pool could not be created and phases ran inline
        self.degraded: Optional[str] = None

    # -- the two public entry points -----------------------------------

    def mine_simple(
        self,
        data: SimpleInput,
        directives: CoreDirectives,
        algorithm: FrequentItemsetMiner,
        columns: Optional[Tuple[List[int], List[int]]] = None,
    ) -> Tuple[List[EncodedRule], CoreStats]:
        """Sharded counterpart of ``SimpleCoreOperator.run`` —
        bit-identical rules, counts merged from per-shard passes.

        *columns* streams the shard inputs: the raw ``(Gid, Bid)``
        identifier lists of a columnar ``CodedSource``
        (:meth:`~repro.kernel.core.inputs.CoreInputLoader.load_simple_columns`)
        ride the bundle as a :class:`ColumnarShardSource` and each
        worker builds only its own shard's group map; ``data.groups``
        is then never consulted."""
        representation = validate_representation(
            getattr(algorithm, "representation", "bitset")
        )
        self.shard_seconds = {}
        if columns is not None:
            gid_col, bid_col = columns
            plan = ShardPlan.split(set(gid_col), self.shards)
            total = plan.total
        else:
            groups = data.groups
            plan = ShardPlan.split(groups, self.shards)
            total = len(groups)

        stats = BitsetStats()
        counts: ItemsetCounts = {}
        if total:
            if columns is not None:
                shard_maps = ColumnarShardSource(
                    gid_col, bid_col, plan.bounds
                )
            else:
                shard_maps = plan.assign(groups)
            bundle = ("simple", shard_maps, algorithm)
            local_payloads = [
                (index, local_min_count(data.min_count, total, size))
                for index, size in enumerate(plan.sizes)
            ]
            with self._executor(len(local_payloads), bundle) as run_phase:
                local = self._run_phase(
                    "local", run_phase, _mine_simple_shard, local_payloads
                )
                candidates = sorted(
                    {key for _, keys, _, _, _ in local for key in keys}
                )
                for _, _, shard_stats, _, _ in local:
                    stats.merge(shard_stats)

                count_payloads = [
                    (index, candidates, representation)
                    for index in range(plan.shards)
                ]
                recount = self._run_phase(
                    "recount", run_phase, _count_simple_shard, count_payloads
                )
            merged = [0] * len(candidates)
            for _, shard_counts, _, _, _ in recount:
                for index, value in enumerate(shard_counts):
                    merged[index] += value
            counts = {
                frozenset(candidate): count
                for candidate, count in zip(candidates, merged)
                if count >= data.min_count
            }

        rules = build_rules(counts, data.totg, directives)
        core_stats = CoreStats(
            variant="simple",
            representation=representation,
            algorithm=algorithm.name,
            universe_sizes=dict(stats.universe_sizes),
            popcount_calls=stats.popcount_calls,
            intersections=stats.intersections,
            passes=stats.passes,
            candidates_generated=stats.candidates,
            bitset_density=stats.density(),
            shards=plan.shards,
            workers=self.workers,
        )
        return rules, core_stats

    def mine_general(
        self,
        data: GeneralInput,
        directives: CoreDirectives,
        representation: Optional[str] = None,
    ) -> Tuple[List[EncodedRule], CoreStats]:
        """Sharded counterpart of ``GeneralCoreOperator.run``:
        *representation* forces every shard's support layout, None lets
        each shard pick from what it measured."""
        if representation is not None:
            validate_representation(representation)
        if representation == "packed" and self.explicit_representation:
            _warn_packed_lattice_remap(self.tracer)
        self.shard_seconds = {}
        gids = set(data.body_items) | set(data.head_items)
        if data.cluster_pairs is not None:
            gids |= set(data.cluster_pairs)
        if data.elementary is not None:
            gids |= {row[0] for row in data.elementary}
        plan = ShardPlan.split(gids, self.shards)
        total = len(gids)

        stats = BitsetStats()
        lattice_sizes: Dict[Tuple[int, int], int] = {}
        join_pairs = 0
        layouts: Set[str] = set()
        candidates: List[RuleKey] = []
        support_totals: List[int] = []
        body_totals: Dict[Tuple[int, ...], int] = {}
        if total:
            shard_inputs = [
                slice_general_input(
                    data,
                    span[0],
                    span[1],
                    local_min_count(data.min_count, total, size),
                )
                if span is not None
                else slice_general_input(data, 0, -1, 1)
                for span, size in zip(plan.bounds, plan.sizes)
            ]
            bundle = ("general", shard_inputs, directives, representation)
            local_payloads = [
                (index, shard.min_count)
                for index, shard in enumerate(shard_inputs)
            ]
            with self._executor(len(local_payloads), bundle) as run_phase:
                local = self._run_phase(
                    "local", run_phase, _mine_general_shard, local_payloads
                )
                candidates = sorted(
                    {key for _, keys, _, _, _ in local for key in keys}
                )
                for _, _, extras, _, _ in local:
                    sizes, pairs, shard_stats, layout = extras
                    for key, value in sizes.items():
                        lattice_sizes[key] = lattice_sizes.get(key, 0) + value
                    join_pairs += pairs
                    stats.merge(shard_stats)
                    if sizes.get((1, 1)):
                        layouts.add(layout)

                bodies = sorted({body for body, _ in candidates})
                count_payloads = [
                    (index, candidates, bodies)
                    for index in range(plan.shards)
                ]
                recount = self._run_phase(
                    "recount", run_phase, _count_general_shard, count_payloads
                )
            support_totals = [0] * len(candidates)
            body_totals = {body: 0 for body in bodies}
            for _, (supports, body_counts), shard_stats, _, _ in recount:
                for index, value in enumerate(supports):
                    support_totals[index] += value
                for body, value in zip(bodies, body_counts):
                    body_totals[body] += value
                stats.merge(shard_stats)

        rules = _emit_general(
            candidates, support_totals, body_totals, data, directives
        )
        core_stats = CoreStats(
            variant="general",
            # the layouts the phase-1 shards mined in (each measures
            # its own slice, so they may differ); moot when none mined
            representation="+".join(sorted(layouts))
            or ("set" if representation == "set" else "bitset"),
            lattice_sizes=lattice_sizes,
            join_pairs_examined=join_pairs,
            universe_sizes=dict(stats.universe_sizes),
            popcount_calls=stats.popcount_calls,
            intersections=stats.intersections,
            passes=stats.passes or len(lattice_sizes),
            candidates_generated=stats.candidates,
            bitset_density=stats.density(),
            shards=plan.shards,
            workers=self.workers,
        )
        return rules, core_stats

    # -- execution machinery -------------------------------------------

    @contextmanager
    def _executor(self, tasks: int, bundle):
        """Yield a ``map(fn, payloads) -> results`` callable: a process
        pool shared by both phases, or inline execution (requested via
        ``in_process``, a single worker, or pool-creation failure).

        *bundle* is the shared mining input, installed into every
        worker by the pool initializer (inherited through fork, one
        pickle per worker under spawn) — task payloads then carry only
        gid spans, never the data.  The owning run's trace id rides
        along so workers record spans the parent can splice."""
        trace: Optional[str] = None
        if self.tracer.enabled:
            ctx = obs_context.current()
            trace = ctx.trace_id if ctx is not None else ""
        if self.in_process or self.workers == 1 or tasks <= 1:
            _set_worker_bundle(bundle, trace)
            yield _inline_map
            return
        import multiprocessing

        try:
            context = multiprocessing.get_context(self.start_method)
            pool = context.Pool(
                processes=min(self.workers, tasks),
                initializer=_set_worker_bundle,
                initargs=(bundle, trace),
            )
        except (ImportError, OSError, ValueError) as exc:
            self.degraded = (
                f"worker pool unavailable ({exc}); shards ran in-process"
            )
            _set_worker_bundle(bundle, trace)
            yield _inline_map
            return
        try:
            with pool:
                yield pool.map
        finally:
            pool.join()

    def _run_phase(self, phase: str, run_phase, fn, payloads):
        """Fault-check, dispatch and observe one phase.  Results come
        back ordered by shard index (``pool.map`` preserves order).
        Child-process span bundles returned with the results are
        spliced under the phase span — one trace shows the fan-out."""
        for payload in payloads:
            faults.check(f"core.shard.{payload[0]}")
        with self.tracer.span(
            f"core.shards.{phase}",
            category="core",
            shards=len(payloads),
            workers=self.workers,
        ) as phase_span:
            results = run_phase(fn, payloads)
        shard_histogram = None
        if self.metrics.enabled:
            shard_histogram = self.metrics.histogram(
                "repro_shard_seconds",
                "Wall seconds per mining shard (both phases)",
                ("shard",),
            )
        for index, _, _, seconds, child in results:
            self.shard_seconds[(phase, index)] = seconds
            if shard_histogram is not None:
                shard_histogram.observe(seconds, shard=str(index))
            if self.tracer.enabled:
                self.tracer.instant(
                    "core.shard",
                    category="core",
                    phase=phase,
                    shard=index,
                    seconds=round(seconds, 6),
                )
                self.tracer.splice(child, parent=phase_span)
        return results


def _inline_map(fn, payloads):
    return [fn(payload) for payload in payloads]
