"""SYN-4 — preprocessing reuse.

Section 3: "the same preprocessing could be in common to the execution
of several data mining queries, thus saving its cost."  The experiment
measures a cold execution (full Q0..Q4 preprocessing) against a warm
one (encoded tables reused; only core + postprocessing run).
"""

import pytest

from repro import MiningSystem

STATEMENT = """
MINE RULE Warm{n} AS
SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
FROM Baskets
GROUP BY tid
EXTRACTING RULES WITH SUPPORT: 0.05, CONFIDENCE: {confidence}
"""


def test_syn4_warm_run_skips_preprocessing(quest_db):
    system = MiningSystem(database=quest_db, reuse_preprocessing=True)
    cold = system.execute(STATEMENT.format(n=1, confidence=0.3))
    warm = system.execute(STATEMENT.format(n=2, confidence=0.5))
    assert not cold.preprocessing_reused
    assert warm.preprocessing_reused
    assert warm.preprocess_stats is None
    # warm preprocessor phase must be much cheaper than cold
    assert warm.timings["preprocessor"] < cold.timings["preprocessor"]
    print(
        f"\nSYN-4 preprocessor phase: cold "
        f"{cold.timings['preprocessor'] * 1000:.1f} ms, warm "
        f"{warm.timings['preprocessor'] * 1000:.1f} ms"
    )


def test_syn4_cold(benchmark, quest_db):
    system = MiningSystem(database=quest_db, reuse_preprocessing=False)
    counter = iter(range(10_000))

    def run():
        return system.execute(
            STATEMENT.format(n=next(counter), confidence=0.3)
        )

    result = benchmark(run)
    assert result.rules


def test_syn4_warm(benchmark, quest_db):
    system = MiningSystem(database=quest_db, reuse_preprocessing=True)
    system.execute(STATEMENT.format(n=0, confidence=0.3))  # prime the cache
    counter = iter(range(1, 10_000))

    def run():
        return system.execute(
            STATEMENT.format(n=next(counter), confidence=0.3)
        )

    result = benchmark(run)
    assert result.preprocessing_reused


def test_syn4_per_query_cost_breakdown(quest_db):
    """Cost of the individual Q queries (printed for EXPERIMENTS.md)."""
    system = MiningSystem(database=quest_db, reuse_preprocessing=False)
    result = system.execute(STATEMENT.format(n=99, confidence=0.3))
    stats = result.preprocess_stats
    query_seconds = {
        span.args["stage"]: span.seconds for span in result.flow.spans()
        if "stage" in span.args
    }
    print("\nSYN-4 per-query preprocessing cost (ms):")
    for label, seconds in query_seconds.items():
        print(f"  {label:<5} {seconds * 1000:8.2f}")
    print(f"  totg={stats.totg}, mingroups={stats.mingroups}")
    assert stats.totg == 400
    # Q4 (the 3-way encode join) dominates Q1 (a distinct count)
    assert query_seconds["Q4"] > 0
