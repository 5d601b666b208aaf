"""Names of the working objects created during one mining execution.

The paper uses fixed table names (Source, ValidGroups, Bset, ...); the
:class:`Workspace` prefixes them so several MINE RULE executions can
coexist in one database and so that encoded tables can be kept around
for preprocessing reuse ("the same preprocessing could be in common to
the execution of several data mining queries", Section 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class Workspace:
    """Derives every working-object name from a prefix."""

    prefix: str = "MR"

    # -- tables / views of Figure 4 ------------------------------------

    @property
    def source(self) -> str:
        return f"{self.prefix}_Source"

    @property
    def valid_groups_view(self) -> str:
        return f"{self.prefix}_ValidGroupsView"

    @property
    def valid_groups(self) -> str:
        return f"{self.prefix}_ValidGroups"

    @property
    def distinct_groups_in_body(self) -> str:
        return f"{self.prefix}_DistinctGroupsInBody"

    @property
    def bset(self) -> str:
        return f"{self.prefix}_Bset"

    @property
    def distinct_groups_in_head(self) -> str:
        return f"{self.prefix}_DistinctGroupsInHead"

    @property
    def hset(self) -> str:
        return f"{self.prefix}_Hset"

    @property
    def clusters(self) -> str:
        return f"{self.prefix}_Clusters"

    @property
    def cluster_couples(self) -> str:
        return f"{self.prefix}_ClusterCouples"

    @property
    def mining_source(self) -> str:
        return f"{self.prefix}_MiningSource"

    @property
    def coded_source(self) -> str:
        return f"{self.prefix}_CodedSource"

    @property
    def input_rules_raw(self) -> str:
        return f"{self.prefix}_InputRulesRaw"

    @property
    def large_rules(self) -> str:
        return f"{self.prefix}_LargeRules"

    @property
    def input_rules(self) -> str:
        return f"{self.prefix}_InputRules"

    @property
    def output_bodies(self) -> str:
        return f"{self.prefix}_OutputBodies"

    @property
    def output_heads(self) -> str:
        return f"{self.prefix}_OutputHeads"

    @property
    def increment(self) -> str:
        """REFRESH RULES: the source rows past the append watermark,
        registered for the one pairs query and dropped after it (never
        among :meth:`all_tables`: no program creates it)."""
        return f"{self.prefix}_Increment"

    # -- sequences -------------------------------------------------------

    @property
    def gid_sequence(self) -> str:
        return f"{self.prefix}_Gidsequence"

    @property
    def bid_sequence(self) -> str:
        return f"{self.prefix}_Bidsequence"

    @property
    def hid_sequence(self) -> str:
        return f"{self.prefix}_Hidsequence"

    @property
    def cid_sequence(self) -> str:
        return f"{self.prefix}_Cidsequence"

    # -- enumerations used by the cleanup program -----------------------

    def all_tables(self) -> List[str]:
        return [
            self.source,
            self.valid_groups,
            self.distinct_groups_in_body,
            self.bset,
            self.distinct_groups_in_head,
            self.hset,
            self.clusters,
            self.cluster_couples,
            self.mining_source,
            self.coded_source,  # a table on the simple path, a view otherwise
            self.input_rules_raw,
            self.large_rules,
            self.input_rules,
            self.output_bodies,
            self.output_heads,
        ]

    def all_views(self) -> List[str]:
        return [self.source, self.valid_groups_view, self.coded_source]

    def all_sequences(self) -> List[str]:
        return [
            self.gid_sequence,
            self.bid_sequence,
            self.hid_sequence,
            self.cid_sequence,
        ]
