"""PR2 — the vertical bitset mining core.

Two scenarios, asserted (a wrong speedup ratio or a result mismatch
fails, not just slows down) and recorded to ``BENCH_PR2.json``:

a) **Pool algorithms**: the vertical ``eclat`` member (diffsets) vs.
   levelwise Apriori over a Quest basket workload, both on gid bitmaps.
   Identical ``ItemsetCounts``.  (The members' ``"set"`` layout and
   eclat's tidset mode were measured here until PR 22; their last
   numbers are in EXPERIMENTS.md.)
b) **Core input loading**: ``CoreInputLoader.load_general`` reading
   the encoded tables as columns into per-cluster item sets and
   per-group triples — recorded so regressions in the loader show.

``BENCH_PR2.json``'s ``general_core_lattice`` and
``general_core_layout_choice`` entries are the last runs of the general
core's deleted slot-set layout (EXPERIMENTS.md); nothing here rewrites
them.

``BENCH_QUICK=1`` (the CI smoke mode) shrinks every workload and
relaxes the speedup floors to sanity thresholds.
"""

import math
import time

from benchmarks.conftest import BENCH_QUICK, bench_report
from repro import Database
from repro.algorithms.apriori import Apriori
from repro.algorithms.eclat import Eclat
from repro.datagen import (
    QuestParameters,
    generate_quest,
    load_purchase_synthetic,
)
from repro.kernel.core.inputs import CoreInputLoader
from repro.kernel.preprocessor import Preprocessor
from repro.kernel.translator import Translator

REPORT, write_report = bench_report("BENCH_PR2.json")

# a SYN-3-shaped sequential-rule statement: clustered groups, ordered
# cluster pairs, full m x n lattice
STATEMENT = """
MINE RULE SeqRules AS
SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, SUPPORT, CONFIDENCE
FROM Purchase
GROUP BY customer
CLUSTER BY date HAVING BODY.date < HEAD.date
EXTRACTING RULES WITH SUPPORT: 0.08, CONFIDENCE: 0.1
"""

if BENCH_QUICK:
    PURCHASE = dict(customers=60, days=5, transactions_per_customer=4,
                    items_per_transaction=4, catalog_size=30)
    QUEST = QuestParameters(transactions=200, avg_transaction_size=8,
                            items=100, patterns=40, seed=77)
else:
    PURCHASE = dict(customers=200, days=6, transactions_per_customer=6,
                    items_per_transaction=6, catalog_size=30)
    QUEST = QuestParameters(transactions=800, avg_transaction_size=10,
                            items=150, patterns=60, seed=77)
QUEST_SUPPORT = 0.03
#: eclat ties Apriori on this shape (it wins deeper lattices); a member
#: this far behind the levelwise baseline has regressed
ECLAT_FLOOR = 0.5


def _best_of(fn, runs=3):
    best = math.inf
    result = None
    for _ in range(runs):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def build_general_input():
    db = Database()
    load_purchase_synthetic(db, **PURCHASE)
    program = Translator(db).translate(STATEMENT)
    Preprocessor(db).run(program)
    return CoreInputLoader(db, program.core)


class TestPoolEclatVsApriori:
    def test_vertical_vs_levelwise(self, benchmark):
        baskets = generate_quest(QUEST)
        min_count = max(1, math.ceil(QUEST_SUPPORT * len(baskets)))
        miners = {"apriori_bitset": Apriori(), "eclat_diffsets": Eclat()}
        seconds, counts = {}, {}
        for label, miner in miners.items():
            seconds[label], counts[label] = _best_of(
                lambda m=miner: m.mine(baskets, min_count)
            )
        reference = counts["apriori_bitset"]
        assert counts["eclat_diffsets"] == reference

        eclat_speedup = seconds["apriori_bitset"] / seconds["eclat_diffsets"]
        REPORT["pool_eclat"] = {
            "workload": {
                "transactions": QUEST.transactions,
                "avg_transaction_size": QUEST.avg_transaction_size,
                "items": QUEST.items,
                "min_count": min_count,
            },
            "quick": BENCH_QUICK,
            "frequent_itemsets": len(reference),
            "seconds": {k: round(v, 6) for k, v in seconds.items()},
            "eclat_vs_apriori": round(eclat_speedup, 2),
        }
        assert eclat_speedup >= ECLAT_FLOOR, (
            f"eclat at {eclat_speedup:.2f}x of apriori"
        )
        benchmark(lambda: miners["eclat_diffsets"].mine(baskets, min_count))


class TestLoaderRowDecode:
    def test_load_general_decode(self, benchmark):
        loader = build_general_input()
        seconds, data = _best_of(loader.load_general)
        assert data.groups and data.clustered
        REPORT["loader_load_general"] = {
            "workload": dict(PURCHASE),
            "quick": BENCH_QUICK,
            "groups": data.totg,
            "seconds": round(seconds, 6),
        }
        benchmark(loader.load_general)
