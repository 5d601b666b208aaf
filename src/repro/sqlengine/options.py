"""Engine tuning options.

The defaults are what a production engine would do; the switches exist
so the ablation benchmarks (SYN-6) can quantify what each planner
feature buys the mining workload — e.g. how much of query Q4's cost
the hash join removes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class EngineOptions:
    """Planner/executor feature switches."""

    #: use hash joins for equality conjuncts (else nested loops)
    hash_joins: bool = True
    #: push single-table WHERE conjuncts below joins
    filter_pushdown: bool = True
    #: reuse physical SELECT plans across executions of the same parsed
    #: statement (invalidated whenever the catalog version changes)
    plan_cache: bool = True
    #: LRU capacity of the SQL-text -> parsed-statement cache
    statement_cache_size: int = 256
    #: LRU capacity of the plan cache
    plan_cache_size: int = 256
    #: rows per batch in the vectorized executor
    batch_size: int = 1024
    #: soft cap in bytes on executor working memory; when a sort/hash
    #: join/aggregate estimates its input above the budget it switches
    #: to the spilling out-of-core variant (None = never spill)
    memory_budget: Optional[int] = None
    #: run every uncorrelated FROM-bearing SELECT block batch-at-a-time
    #: over column lists, whatever the storage of its tables (a plan
    #: with a node that has no exact vector lowering runs on the row
    #: executor whole); False forces the row executor everywhere — the
    #: oracle of the differential tests
    vectorize: bool = True

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(
                f"batch_size must be positive, got {self.batch_size}"
            )
        if self.memory_budget is not None and self.memory_budget < 1:
            raise ValueError(
                f"memory_budget must be positive, got {self.memory_budget}"
            )
