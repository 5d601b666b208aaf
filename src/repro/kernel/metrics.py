"""Rule-quality measures and core-operator observability.

The MINE RULE operator reports support and confidence; interestingness
research contemporary with the paper added *lift* (interest),
*leverage* (Piatetsky-Shapiro) and *conviction* (Brin et al., SIGMOD
1997).  Because the tightly-coupled architecture keeps the encoded
tables in the DBMS, these measures can be computed **after** mining
from ``CodedSource`` alone — no rescan of the source data — which is
exactly the kind of follow-up analysis the decoupled architecture
cannot do.  This module is a documented extension (DESIGN.md §7).

Group-counting conventions match the core operator: a group counts for
an itemset iff all its items co-occur within one (body- or head-side)
cluster.

:class:`CoreStats` collects what the core operator observed during one
run — lattice set sizes, join pairs examined, bitmap universe sizes
and popcount calls — which the run records as attributes of its
``core`` component span (:meth:`CoreStats.span_args`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Any, Dict, FrozenSet, Hashable, List, Optional, Sequence, Set, Tuple,
)

from repro.kernel.core.inputs import CoreInputLoader
from repro.kernel.core.rules import CONFIDENCE_EPSILON, EncodedRule
from repro.kernel.program import TranslationProgram
from repro.sqlengine.engine import Database


@dataclass
class CoreStats:
    """Observability counters of one core-operator run.

    ``variant`` is ``"simple"`` or ``"general"``; ``representation``
    is the physical layout used — the general core's measured pick of
    ``"bitset"``/``"set"`` supports, always ``"bitset"`` (bitmap gid
    lists) for the simple core; ``algorithm`` names the pool member
    (simple variant only).
    ``lattice_sizes``/``join_pairs_examined`` mirror the general
    operator's counters; ``universe_sizes``/``popcount_calls``/
    ``intersections`` come from the bitmap kernel.  For the general
    variant ``intersections`` counts the triple-level intersections
    actually performed, so ``join_pairs_examined - intersections``
    joins were rejected before intersecting (by the group bitmaps or
    by the grown side's own count).
    """

    variant: str = "simple"
    representation: str = "bitset"
    algorithm: Optional[str] = None
    lattice_sizes: Dict[Tuple[int, int], int] = field(default_factory=dict)
    join_pairs_examined: int = 0
    universe_sizes: Dict[str, int] = field(default_factory=dict)
    popcount_calls: int = 0
    intersections: int = 0
    passes: int = 0
    candidates_generated: int = 0
    bitset_density: float = 0.0

    @classmethod
    def from_general(cls, operator) -> "CoreStats":
        """Collect from a :class:`GeneralCoreOperator` after a run."""
        stats = operator.bitmap_stats
        return cls(
            variant="general",
            representation=operator.representation,
            lattice_sizes=dict(operator.lattice_sizes),
            join_pairs_examined=operator.join_pairs_examined,
            universe_sizes=dict(stats.universe_sizes),
            popcount_calls=stats.popcount_calls,
            intersections=stats.intersections,
            passes=stats.passes or len(operator.lattice_sizes),
            candidates_generated=stats.candidates,
            bitset_density=stats.density(),
        )

    @classmethod
    def from_simple(cls, algorithm) -> "CoreStats":
        """Collect from a pool algorithm after a simple-core run."""
        stats = getattr(algorithm, "stats", None)
        # "auto" names the member it ran: auto(<member>)
        member = getattr(algorithm, "last_choice", "")
        return cls(
            variant="simple",
            algorithm=f"{algorithm.name}({member})" if member
            else algorithm.name,
            universe_sizes=dict(stats.universe_sizes) if stats else {},
            popcount_calls=stats.popcount_calls if stats else 0,
            intersections=stats.intersections if stats else 0,
            passes=stats.passes if stats else 0,
            candidates_generated=stats.candidates if stats else 0,
            bitset_density=stats.density() if stats else 0.0,
        )

    def span_args(self) -> Dict[str, Any]:
        """This run's observations as attributes of the ``core``
        component span — what the trace export and the
        ``repro_core_*`` series read."""
        return {
            "variant": self.variant,
            "representation": self.representation,
            **({"algorithm": self.algorithm} if self.algorithm else {}),
            "popcounts": self.popcount_calls,
            "intersections": self.intersections,
            "join_pairs_examined": self.join_pairs_examined,
            "passes": self.passes,
            "candidates": self.candidates_generated,
            "bitset_density": round(self.bitset_density, 6),
            "universe_sizes": dict(self.universe_sizes),
        }

    def describe_join_pairs(self) -> str:
        """The lattice's join work: pairs examined and how many the two
        join filters rejected — every intersection is a join that got
        past both."""
        rejected = self.join_pairs_examined - self.intersections
        return (
            f"{self.join_pairs_examined} join pairs "
            f"({rejected} rejected before intersecting)"
        )

    def describe_layout(self) -> str:
        """What the run counted on: the simple core has one layout,
        the general core names the one it measured its way to."""
        if self.variant == "simple":
            return "bitmap gid lists"
        return f"{self.representation} support sets"

    def describe(self) -> str:
        """One-line summary for the process trace."""
        parts = [f"{self.variant} core, {self.describe_layout()}"]
        if self.algorithm:
            parts.append(f"algorithm {self.algorithm}")
        if self.lattice_sizes:
            total = sum(self.lattice_sizes.values())
            parts.append(
                f"{len(self.lattice_sizes)} lattice sets / {total} rules"
            )
        if self.join_pairs_examined:
            parts.append(self.describe_join_pairs())
        if self.universe_sizes:
            sizes = ", ".join(
                f"{label}={size}"
                for label, size in sorted(self.universe_sizes.items())
            )
            parts.append(f"universes {sizes}")
        if self.popcount_calls:
            parts.append(f"{self.popcount_calls} popcounts")
        return "; ".join(parts)


@dataclass(frozen=True)
class RuleMetrics:
    """Extended measures for one encoded rule.

    ``conviction`` is ``None`` for confidence-1 rules (it diverges).
    """

    rule: EncodedRule
    head_count: int
    lift: float
    leverage: float
    conviction: Optional[float]


def compute_metrics(
    database: Database,
    program: TranslationProgram,
    rules: Sequence[EncodedRule],
) -> List[RuleMetrics]:
    """Compute lift/leverage/conviction for *rules* from the encoded
    tables of *program* (which must still be in the database)."""
    loader = CoreInputLoader(database, program.core)
    data = loader.load_general()
    totg = data.totg
    if totg == 0:
        return []

    # item -> the head clusters holding it, and each cluster's group
    clusters_of: Dict[int, Set[Hashable]] = {}
    for key, items in data.head_clusters.items():
        for item in items:
            clusters_of.setdefault(item, set()).add(key)
    group_of = {
        key: gid for gid, keys in data.clusters.items() for key in keys
    }
    cache: Dict[FrozenSet[int], int] = {}

    out: List[RuleMetrics] = []
    for rule in rules:
        head_count = cache.get(rule.head)
        if head_count is None:
            shared = set.intersection(
                *(clusters_of.get(item, set()) for item in rule.head)
            )
            head_count = cache[rule.head] = len(set(map(group_of.get, shared)))
        head_support = head_count / totg
        body_support = rule.body_count / totg
        lift = (
            rule.confidence / head_support if head_support > 0 else math.inf
        )
        leverage = rule.support - body_support * head_support
        if rule.confidence >= 1.0 - CONFIDENCE_EPSILON:
            conviction: Optional[float] = None
        else:
            conviction = (1.0 - head_support) / (1.0 - rule.confidence)
        out.append(
            RuleMetrics(
                rule=rule,
                head_count=head_count,
                lift=lift,
                leverage=leverage,
                conviction=conviction,
            )
        )
    return out


def store_metrics(
    database: Database,
    program: TranslationProgram,
    metrics: Sequence[RuleMetrics],
) -> str:
    """Persist the measures as ``<out>_Metrics`` (BodyId/HeadId keyed,
    joinable with the main output table); returns the table name."""
    out = program.statement.output_table
    # rebuild the BodyId/HeadId assignment the postprocessor used:
    # it numbers bodies/heads in first-appearance order of the rules
    body_ids: Dict[FrozenSet[int], int] = {}
    head_ids: Dict[FrozenSet[int], int] = {}
    rows = []
    for m in metrics:
        body_id = body_ids.setdefault(m.rule.body, len(body_ids) + 1)
        head_id = head_ids.setdefault(m.rule.head, len(head_ids) + 1)
        rows.append(
            (
                body_id,
                head_id,
                m.lift,
                m.leverage,
                m.conviction,
            )
        )
    database.create_table_from_rows(
        f"{out}_Metrics",
        ["BodyId", "HeadId", "LIFT", "LEVERAGE", "CONVICTION"],
        rows,
        replace=True,
    )
    return f"{out}_Metrics"
