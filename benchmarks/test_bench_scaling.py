"""SYN-8 — scale-up with database size.

The algorithm papers behind the core operator all report the
"execution time vs number of transactions" figure; this experiment
reproduces its shape for the *whole* tightly-coupled pipeline: with a
fixed support fraction, time should grow near-linearly in |D| (the
per-group work is constant; the encode joins and the gid-list
intersections are linear scans at fixed selectivity).

That premise holds only where the output no longer changes with |D|.
Below about a thousand transactions the absolute group threshold of
the fixed fraction still prunes a different rule set at every size
(457 -> 292 -> 202 rules at 100 / 200 / 400), and the statement's
fixed per-statement work outweighs the growing scans, so the sizes
start where the rule count has settled, and the test asserts that it
has.
"""

import math
import time

import pytest

from repro import MiningSystem
from repro.datagen import QuestParameters, load_quest
from repro.sqlengine import Database

SIZES = (1_600, 3_200, 6_400)

STATEMENT = """
MINE RULE Scale AS
SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
FROM Baskets
GROUP BY tid
EXTRACTING RULES WITH SUPPORT: 0.05, CONFIDENCE: 0.4
"""


def quest_system(transactions: int):
    db = Database()
    load_quest(
        db,
        QuestParameters(
            transactions=transactions,
            avg_transaction_size=7,
            avg_pattern_size=3,
            patterns=40,
            items=100,
            seed=5,
        ),
    )
    return MiningSystem(database=db, reuse_preprocessing=False)


def test_syn8_scaleup_shape():
    timings = []
    for size in SIZES:
        system = quest_system(size)
        best = math.inf
        for _ in range(3):  # best of three: one noisy run decides nothing
            started = time.perf_counter()
            result = system.execute(STATEMENT)
            best = min(best, time.perf_counter() - started)
        timings.append((size, best, len(result.rules)))
    print("\nSYN-8 scale-up (|D|, seconds, rules):")
    for size, elapsed, rules in timings:
        print(f"  {size:>5}  {elapsed:7.3f}s  {rules:>5}")
    # the premise: the same output at every size, so the time measures
    # the growing data and not a shrinking rule set
    rules = [rules for _, _, rules in timings]
    assert max(rules) <= 1.1 * min(rules), rules
    # shape: quadrupling the data must cost more than the fixed
    # per-statement work alone (1.2x) and must not explode (30x)
    ratio = timings[-1][1] / max(timings[0][1], 1e-9)
    assert 1.2 < ratio < 30, ratio


@pytest.mark.parametrize("size", SIZES)
def test_syn8_pipeline_at_size(benchmark, size):
    system = quest_system(size)
    result = benchmark.pedantic(
        lambda: system.execute(STATEMENT), rounds=3, iterations=1
    )
    assert result.rules
