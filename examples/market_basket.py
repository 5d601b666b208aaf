"""Market-basket analysis on Quest synthetic data, across the
algorithm pool.

Demonstrates the *algorithm interoperability* goal (Section 3): the
same MINE RULE statement is executed with every algorithm of the pool
(Apriori, Eclat, and ``auto``, which picks one of the two from the
input's shape); the rule sets are identical, only the running time
differs.

Run:  python examples/market_basket.py
"""

import time

from repro import Database, MiningSystem
from repro.algorithms import ALGORITHMS
from repro.datagen import QuestParameters, load_quest

STATEMENT = """
MINE RULE BasketRules AS
SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
FROM Baskets
GROUP BY tid
EXTRACTING RULES WITH SUPPORT: 0.04, CONFIDENCE: 0.5
"""


def main() -> None:
    db = Database()
    params = QuestParameters(
        transactions=600,
        avg_transaction_size=8,
        avg_pattern_size=3,
        patterns=80,
        items=150,
        seed=42,
    )
    load_quest(db, params)
    print(f"Workload: {params.name()} "
          f"({db.execute('SELECT COUNT(*) FROM Baskets').scalar()} tuples)")
    print()

    reference = None
    print(f"{'algorithm':<12} {'rules':>6} {'time':>10}")
    print("-" * 32)
    for name in sorted(ALGORITHMS):
        system = MiningSystem(database=db, algorithm=name,
                              reuse_preprocessing=False)
        started = time.perf_counter()
        result = system.execute(STATEMENT)
        elapsed = time.perf_counter() - started
        rules = result.rule_set()
        if reference is None:
            reference = rules
        agreement = "" if rules == reference else "  (MISMATCH!)"
        print(f"{name:<12} {len(rules):>6} {elapsed:>9.3f}s{agreement}")

    print("\nAll algorithms of the pool return the identical rule set;")
    print("the core operator is decoupled from the algorithm choice.")

    system = MiningSystem(database=db)
    result = system.execute(STATEMENT)
    print("\nTop rules by confidence:")
    top = sorted(result.rules, key=lambda r: (-r.confidence, -r.support))[:10]
    for rule in top:
        print(f"  {rule}")


if __name__ == "__main__":
    main()
