"""Engine tuning options.

What a user can reason about: cache capacities and the executor's batch
size.  The planner's features have no switch (SYN-6a's hash-join
ablation is a recorded result, EXPERIMENTS.md), and there is one
executor to choose: every statement runs batch-at-a-time, each node
holding its input in memory (:mod:`repro.sqlengine.vector`).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class EngineOptions:
    """Cache and executor settings of one database."""

    #: LRU capacity of the SQL-text -> parsed-statement cache
    #: (0 = nothing is cached)
    statement_cache_size: int = 256
    #: LRU capacity of the plan cache, which reuses physical SELECT
    #: plans across executions of the same parsed statement until the
    #: catalog version changes (0 = no plan is reused)
    plan_cache_size: int = 256
    #: rows per batch in the vectorized executor
    batch_size: int = 1024

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(
                f"batch_size must be positive, got {self.batch_size}"
            )
        for name in ("statement_cache_size", "plan_cache_size"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} must not be negative, got {getattr(self, name)}"
                )
