"""Engine tuning options.

What a user can reason about: the statement cache's capacity and the
executor's batch size.  The planner's features have no switch
(SYN-6a's hash-join ablation is a recorded result, EXPERIMENTS.md),
and there is one executor to choose: every statement runs
batch-at-a-time, each node holding its input in memory
(:mod:`repro.sqlengine.vector`).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class EngineOptions:
    """Cache and executor settings of one database."""

    #: LRU capacity of the statement cache, which keeps each SQL text's
    #: parsed statement and, until the catalog version changes, the
    #: plan of its SELECT (0 = neither is kept)
    statement_cache_size: int = 256
    #: rows per batch in the vectorized executor
    batch_size: int = 1024

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(
                f"batch_size must be positive, got {self.batch_size}"
            )
        if self.statement_cache_size < 0:
            raise ValueError(
                "statement_cache_size must not be negative, "
                f"got {self.statement_cache_size}"
            )
