"""Simple core processing (Section 4.3.1).

"The simple core processing algorithm is one of the traditional data
mining algorithms [...]  Then, rules are built from large itemsets by
extracting subsets of items: indicating with L a large itemset and with
H < L a subset, we form the rule (L - H) => H when it has suitable
confidence."

The large-itemset phase is delegated to any algorithm of the pool
(:mod:`repro.algorithms`); the rule-construction phase below is common
to all of them, which is precisely the algorithm-interoperability
borderline the paper draws.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List

from repro import faults
from repro.algorithms.base import FrequentItemsetMiner
from repro.kernel.core.inputs import SimpleInput
from repro.kernel.core.rules import CONFIDENCE_EPSILON as _EPSILON
from repro.kernel.core.rules import EncodedRule
from repro.kernel.program import CoreDirectives


def build_rules(
    counts: Dict[FrozenSet[int], int],
    totg: int,
    directives: CoreDirectives,
) -> List[EncodedRule]:
    """(L - H) => H extraction over exact itemset *counts*, sorted by
    the canonical (body, head) key.

    Shared by :class:`SimpleCoreOperator` and REFRESH RULES' emission
    (:mod:`repro.system`): both feed it a subset-closed count table,
    so the emitted rule lists are bit identical regardless of how the
    counts were obtained.
    """
    body_min, body_max = directives.body_card
    head_min, head_max = directives.head_card
    min_confidence = directives.min_confidence

    rules: List[EncodedRule] = []
    for itemset, itemset_count in counts.items():
        size = len(itemset)
        if size < body_min + head_min:
            continue
        largest_head = size - body_min
        if head_max is not None:
            largest_head = min(largest_head, head_max)
        ordered = sorted(itemset)
        for head_size in range(head_min, largest_head + 1):
            body_size = size - head_size
            if body_max is not None and body_size > body_max:
                continue
            for head in itertools.combinations(ordered, head_size):
                body = itemset - frozenset(head)
                body_count = counts[body]
                confidence = itemset_count / body_count
                if confidence + _EPSILON < min_confidence:
                    continue
                rules.append(
                    EncodedRule(
                        body=body,
                        head=frozenset(head),
                        support_count=itemset_count,
                        body_count=body_count,
                        support=itemset_count / totg if totg else 0.0,
                        confidence=confidence,
                    )
                )
    rules.sort(key=EncodedRule.key)
    return rules


class SimpleCoreOperator:
    """Large itemsets via the pool, then (L - H) => H rule extraction."""

    def __init__(self, algorithm: FrequentItemsetMiner):
        self.algorithm = algorithm

    def run(
        self, data: SimpleInput, directives: CoreDirectives
    ) -> List[EncodedRule]:
        """Mine rules from encoded groups: one miner call over the
        loader's vertical input, then rule extraction.

        The returned list is sorted by (body, head) identifiers so that
        downstream output tables are deterministic.
        """
        faults.check("core.simple")
        counts = self.algorithm.mine(data.groups, data.min_count)
        return build_rules(counts, data.totg, directives)
