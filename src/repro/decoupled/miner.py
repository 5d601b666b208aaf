"""Step 3 of the decoupled workflow: the standalone mining engine.

A self-contained tool in the spirit of mid-90s products: it mines the
prepared dataset with an algorithm from the same pool the core
operator uses (so the comparison is about the *architecture*, not the
algorithm), keeps the rules in memory, and can only export them back
to a text file — combining them with database data requires a manual
re-import, the paper's third criticism of the decoupled approach.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import FrozenSet, List

from repro.algorithms import FrequentItemsetMiner, get_algorithm
from repro.decoupled.encoder import EncodedDataset


@dataclass(frozen=True)
class ToolRule:
    """A rule as the standalone tool represents it (labels, not ids)."""

    body: FrozenSet[str]
    head: FrozenSet[str]
    support: float
    confidence: float


class StandaloneMiner:
    """Mines simple association rules from a prepared dataset."""

    def __init__(self, algorithm: str = "apriori"):
        self.algorithm: FrequentItemsetMiner = get_algorithm(algorithm)
        #: rules of the last run, held inside the tool
        self.rules: List[ToolRule] = []

    def mine(
        self,
        dataset: EncodedDataset,
        min_support: float,
        min_confidence: float,
        max_head_size: int = 1,
    ) -> List[ToolRule]:
        """Classic (L - H) => H rule mining over the prepared groups."""
        total = dataset.group_count
        if total == 0:
            self.rules = []
            return self.rules
        import math

        min_count = max(1, math.ceil(min_support * total - 1e-9))
        counts = self.algorithm.mine(dataset.groups, min_count)

        rules: List[ToolRule] = []
        for itemset, count in counts.items():
            if len(itemset) < 2:
                continue
            ordered = sorted(itemset)
            for head_size in range(1, max_head_size + 1):
                if head_size >= len(itemset):
                    break
                for head in itertools.combinations(ordered, head_size):
                    body = itemset - frozenset(head)
                    confidence = count / counts[body]
                    if confidence + 1e-12 < min_confidence:
                        continue
                    rules.append(
                        ToolRule(
                            body=frozenset(
                                dataset.item_labels[i] for i in body
                            ),
                            head=frozenset(
                                dataset.item_labels[i] for i in head
                            ),
                            support=count / total,
                            confidence=confidence,
                        )
                    )
        self.rules = rules
        return rules

    def export(self, destination: Path) -> int:
        """Write the rules to a text file — the only way results leave
        the tool in the decoupled architecture."""
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write("body\thead\tsupport\tconfidence\n")
            for rule in sorted(
                self.rules, key=lambda r: (sorted(r.body), sorted(r.head))
            ):
                handle.write(
                    ",".join(sorted(rule.body))
                    + "\t"
                    + ",".join(sorted(rule.head))
                    + f"\t{rule.support!r}\t{rule.confidence!r}\n"
                )
        return len(self.rules)
