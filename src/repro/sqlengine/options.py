"""Engine tuning options.

What a user can reason about: cache capacities and the executor's batch
size and memory budget.  The planner's features have no switch
(SYN-6a's hash-join ablation is a recorded result, EXPERIMENTS.md), and
there is one executor to choose: every statement runs batch-at-a-time
(:mod:`repro.sqlengine.vector`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class EngineOptions:
    """Cache, executor and memory settings of one database."""

    #: LRU capacity of the SQL-text -> parsed-statement cache
    statement_cache_size: int = 256
    #: LRU capacity of the plan cache, which reuses physical SELECT
    #: plans across executions of the same parsed statement until the
    #: catalog version changes (0 = no plan is reused)
    plan_cache_size: int = 256
    #: rows per batch in the vectorized executor
    batch_size: int = 1024
    #: soft cap in bytes on executor working memory; when a sort/hash
    #: join/aggregate estimates its input above the budget it switches
    #: to the spilling out-of-core variant (None = never spill)
    memory_budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(
                f"batch_size must be positive, got {self.batch_size}"
            )
        if self.memory_budget is not None and self.memory_budget < 1:
            raise ValueError(
                f"memory_budget must be positive, got {self.memory_budget}"
            )
