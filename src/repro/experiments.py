"""Runnable reproduction suite: regenerate every experiment in one go.

``python -m repro.experiments`` executes the full experiment index of
DESIGN.md (FIG1..FIG4 exactly, SYN-1..SYN-4 at a laptop-friendly
scale) and prints a markdown report of paper-vs-measured, the
machine-generated counterpart of EXPERIMENTS.md.  Each experiment
returns a structured :class:`ExperimentRecord`, so the suite doubles
as an end-to-end acceptance check: a failed assertion in any
experiment means the reproduction regressed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List

from repro.datagen import (
    QuestParameters,
    figure1_rows,
    load_purchase_figure1,
    load_purchase_synthetic,
    load_quest,
)
from repro.decoupled import DecoupledWorkflow
from repro.kernel import Translator, Workspace
from repro.sqlengine import Database
from repro.system import MiningSystem

PAPER_STATEMENT = """
MINE RULE FilteredOrderedSets AS
SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, SUPPORT, CONFIDENCE
WHERE BODY.price >= 100 AND HEAD.price < 100
FROM Purchase
WHERE date BETWEEN DATE '1995-01-01' AND DATE '1995-12-31'
GROUP BY customer
CLUSTER BY date HAVING BODY.date < HEAD.date
EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3
"""

EXPECTED_FIG2B = {
    ("{brown_boots}", "{col_shirts}", 0.5, 1.0),
    ("{jackets}", "{col_shirts}", 0.5, 0.5),
    ("{brown_boots,jackets}", "{col_shirts}", 0.5, 1.0),
}


@dataclass
class ExperimentRecord:
    """Outcome of one reproduced experiment."""

    id: str
    title: str
    status: str  # "exact match" | "reproduced" | "measured"
    details: List[str] = field(default_factory=list)
    seconds: float = 0.0

    def render(self) -> str:
        lines = [f"## {self.id} — {self.title}",
                 f"*status: {self.status}*  ({self.seconds:.2f}s)", ""]
        lines.extend(f"* {detail}" for detail in self.details)
        return "\n".join(lines)


class ExperimentSuite:
    """Runs the experiment index; every method asserts its artifact."""

    def run_all(self) -> List[ExperimentRecord]:
        records = []
        for runner in (
            self.fig1,
            self.fig2,
            self.fig3,
            self.fig4,
            self.syn1,
            self.syn2,
            self.syn3,
            self.syn4,
        ):
            started = time.perf_counter()
            record = runner()
            record.seconds = time.perf_counter() - started
            records.append(record)
        return records

    # -- figures -----------------------------------------------------------

    def fig1(self) -> ExperimentRecord:
        db = Database()
        load_purchase_figure1(db)
        rows = db.query(
            "SELECT tr, customer, item, date, price, qty FROM Purchase"
        )
        assert rows == figure1_rows()
        return ExperimentRecord(
            "FIG1",
            "the Purchase table",
            "exact match",
            [f"all {len(rows)} tuples reproduced verbatim"],
        )

    def fig2(self) -> ExperimentRecord:
        system = MiningSystem()
        load_purchase_figure1(system.db)
        result = system.execute(PAPER_STATEMENT)
        display = set(
            system.db.query(
                "SELECT BODY, HEAD, SUPPORT, CONFIDENCE "
                "FROM FilteredOrderedSets_Display"
            )
        )
        assert display == EXPECTED_FIG2B
        return ExperimentRecord(
            "FIG2",
            "the FilteredOrderedSets output table",
            "exact match",
            [
                "3 rules with the paper's exact support/confidence",
                "confidence({jackets} => {col_shirts}) = 0.5: all body "
                "clusters count for the denominator",
                f"directives: {result.directives}",
            ],
        )

    def fig3(self) -> ExperimentRecord:
        system = MiningSystem()
        load_purchase_figure1(system.db)
        result = system.execute(
            "MINE RULE Flow AS SELECT DISTINCT 1..n item AS BODY, "
            "1..1 item AS HEAD, SUPPORT, CONFIDENCE FROM Purchase "
            "GROUP BY customer "
            "EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.5"
        )
        components = result.flow.components()
        assert components == [
            "translator", "preprocessor", "core", "postprocessor",
        ]
        timing = ", ".join(
            f"{component} {seconds * 1000:.1f}ms"
            for component, seconds in result.timings.items()
        )
        return ExperimentRecord(
            "FIG3",
            "architecture process flow",
            "reproduced",
            [f"component order: {' -> '.join(components)}", timing],
        )

    def fig4(self) -> ExperimentRecord:
        db = Database()
        load_purchase_figure1(db)
        translator = Translator(db)
        cases = {
            "simple": (
                "MINE RULE O AS SELECT DISTINCT 1..n item AS BODY, "
                "1..1 item AS HEAD, SUPPORT, CONFIDENCE FROM Purchase "
                "GROUP BY customer "
                "EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.2",
                {"Q0v", "Q1", "Q2", "Q3", "Q4"},
            ),
            "paper": (
                PAPER_STATEMENT,
                {"Q0", "Q1", "Q2", "Q3", "Q6", "Q7", "Q4", "Q11", "Q8",
                 "Q9", "Q10"},
            ),
        }
        details = []
        for label, (text, expected) in cases.items():
            program = translator.translate(text, Workspace("FX"))
            got = {q.rstrip("ab") for q in program.labels()}
            assert got == expected, (label, got)
            details.append(
                f"{label} statement activates: "
                + ", ".join(sorted(got))
            )
        return ExperimentRecord(
            "FIG4", "preprocessor query gating", "reproduced", details
        )

    # -- synthetic performance ----------------------------------------------

    @staticmethod
    def _quest_db() -> Database:
        db = Database()
        load_quest(
            db,
            QuestParameters(transactions=200, avg_transaction_size=7,
                            patterns=40, items=90, seed=77),
        )
        return db

    def syn1(self) -> ExperimentRecord:
        db = self._quest_db()
        statement = (
            "MINE RULE Tight AS SELECT DISTINCT 1..n item AS BODY, "
            "1..1 item AS HEAD, SUPPORT, CONFIDENCE FROM Baskets "
            "GROUP BY tid EXTRACTING RULES WITH SUPPORT: 0.05, "
            "CONFIDENCE: 0.4"
        )
        started = time.perf_counter()
        tight = MiningSystem(database=db,
                             reuse_preprocessing=False).execute(statement)
        tight_seconds = time.perf_counter() - started
        started = time.perf_counter()
        loose = DecoupledWorkflow(db).run(
            "SELECT tid, item FROM Baskets", "tid", "item", 0.05, 0.4
        )
        loose_seconds = time.perf_counter() - started
        tight_keys = {(r.body, r.head) for r in tight.rules}
        loose_keys = {(r.body, r.head) for r in loose.rules}
        assert tight_keys == loose_keys
        return ExperimentRecord(
            "SYN-1",
            "tight vs decoupled architecture",
            "measured",
            [
                f"identical rule sets ({len(tight_keys)} rules)",
                f"tight {tight_seconds * 1000:.0f}ms (results in DB), "
                f"decoupled {loose_seconds * 1000:.0f}ms (results in a "
                f"flat file)",
            ],
        )

    def syn2(self) -> ExperimentRecord:
        from repro.algorithms import ALGORITHMS, get_algorithm
        from repro.datagen import generate_quest

        baskets = generate_quest(
            QuestParameters(transactions=200, avg_transaction_size=7,
                            patterns=40, items=90, seed=77)
        )
        reference = get_algorithm("apriori").mine(baskets, 10)
        details = []
        for name in sorted(ALGORITHMS):
            if name == "auto":
                continue
            started = time.perf_counter()
            counts = get_algorithm(name).mine(baskets, 10)
            elapsed = time.perf_counter() - started
            assert counts == reference, name
            details.append(f"{name}: {elapsed * 1000:.1f}ms, exact")
        details.insert(0, f"{len(reference)} frequent itemsets agreed by "
                          f"the whole pool")
        return ExperimentRecord(
            "SYN-2", "the algorithm pool", "measured", details
        )

    def syn3(self) -> ExperimentRecord:
        db = Database()
        load_purchase_synthetic(db, customers=40, days=5, seed=13)
        counts = []
        for support in (0.1, 0.2):
            system = MiningSystem(database=db, reuse_preprocessing=False)
            result = system.execute(
                "MINE RULE Seq AS SELECT DISTINCT 1..n item AS BODY, "
                "1..n item AS HEAD, SUPPORT, CONFIDENCE FROM Purchase "
                "GROUP BY customer CLUSTER BY date "
                "HAVING BODY.date < HEAD.date "
                f"EXTRACTING RULES WITH SUPPORT: {support}, "
                "CONFIDENCE: 0.1"
            )
            counts.append((support, len(result.rules)))
        assert counts[0][1] >= counts[1][1]
        return ExperimentRecord(
            "SYN-3",
            "general core: rule lattice",
            "measured",
            [f"rules vs support: {counts} (monotone pruning)"],
        )

    def syn4(self) -> ExperimentRecord:
        db = self._quest_db()
        system = MiningSystem(database=db, reuse_preprocessing=True)
        statement = (
            "MINE RULE W{} AS SELECT DISTINCT 1..n item AS BODY, "
            "1..1 item AS HEAD, SUPPORT, CONFIDENCE FROM Baskets "
            "GROUP BY tid EXTRACTING RULES WITH SUPPORT: 0.05, "
            "CONFIDENCE: 0.4"
        )
        cold = system.execute(statement.format(1))
        warm = system.execute(statement.format(2))
        assert warm.preprocessing_reused
        assert warm.timings["preprocessor"] < cold.timings["preprocessor"]
        return ExperimentRecord(
            "SYN-4",
            "preprocessing reuse",
            "measured",
            [
                f"preprocessor phase: cold "
                f"{cold.timings['preprocessor'] * 1000:.1f}ms -> warm "
                f"{warm.timings['preprocessor'] * 1000:.1f}ms",
            ],
        )


def generate_report() -> str:
    """Run the suite and render the markdown report."""
    suite = ExperimentSuite()
    records = suite.run_all()
    lines = [
        "# Reproduction report (generated by repro.experiments)",
        "",
        f"{len(records)} experiments, "
        f"{sum(r.seconds for r in records):.1f}s total.",
        "",
    ]
    for record in records:
        lines.append(record.render())
        lines.append("")
    return "\n".join(lines)


def main() -> int:  # pragma: no cover - thin wrapper
    print(generate_report())
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
