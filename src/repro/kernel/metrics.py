"""Rule-quality measures.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Set

from repro.kernel.core.inputs import CoreInputLoader
from repro.kernel.core.rules import CONFIDENCE_EPSILON, EncodedRule
from repro.kernel.program import TranslationProgram
from repro.sqlengine.engine import Database


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
