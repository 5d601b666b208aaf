"""The rendered text of a run, pinned byte for byte.

``result.flow.render()`` and ``render_report`` are read from the run's
record.  For the three Appendix-A golden statements and the Figure 2
clustered statement both texts (minus the durations: the flow's
``-- timings --`` block, the report's ``timings:`` and
``observability:`` blocks) must equal the checked-in files, untraced
and traced alike, and the ``core`` component span must carry the
pinned counters (plus, for the general core, its lattice set sizes).
``pytest --update-golden`` rewrites the files.
"""

from pathlib import Path

import pytest

from repro import Database, MiningSystem
from repro.datagen import load_purchase_figure1
from repro.obs import Tracer
from repro.report import ReportOptions, render_report
from tests.integration.test_golden_outputs import GOLDEN_STATEMENTS

RENDERED_DIR = Path(__file__).parent / "golden" / "rendered"

STATEMENTS = dict(
    GOLDEN_STATEMENTS,
    # Figure 2's grouping and clustering, 1..n on both sides
    clustered=(
        "MINE RULE C AS SELECT DISTINCT 1..n item AS BODY, "
        "1..n item AS HEAD, SUPPORT, CONFIDENCE FROM Purchase "
        "GROUP BY customer CLUSTER BY date "
        "EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.2"
    ),
)

#: the counter attributes of each statement's ``core`` component span
CORE_SPAN_ARGS = {
    "clustered": {
        "variant": "general", "representation": "bitset",
        "popcounts": 37, "intersections": 27, "join_pairs_examined": 43,
        "passes": 13, "candidates": 0, "bitset_density": 0.0,
        "universe_sizes": {"triple": 7, "body_pair": 4},
    },
    "filtered_ordered_sets": {
        "variant": "general", "representation": "bitset",
        "popcounts": 4, "intersections": 1, "join_pairs_examined": 1,
        "passes": 5, "candidates": 0, "bitset_density": 0.0,
        "universe_sizes": {"triple": 1, "body_pair": 4},
    },
    "ordered_sets": {
        "variant": "general", "representation": "bitset",
        "popcounts": 5, "intersections": 0, "join_pairs_examined": 0,
        "passes": 1, "candidates": 0, "bitset_density": 0.0,
        "universe_sizes": {"triple": 0, "body_pair": 4},
    },
    "simple_associations": {
        "variant": "simple", "representation": "bitset",
        "algorithm": "apriori", "popcounts": 17, "intersections": 12,
        "join_pairs_examined": 0, "passes": 4, "candidates": 17,
        "bitset_density": 0.6, "universe_sizes": {"gid": 2},
    },
}


def rendered(name, traced):
    """(flow text, report text, core span args) of one run."""
    database = Database()
    load_purchase_figure1(database)
    system = MiningSystem(
        database=database, tracer=Tracer() if traced else None
    )
    result = system.run(STATEMENTS[name])
    flow = result.flow.render().split("\n-- timings --")[0]
    report = render_report(
        system, result,
        options=ReportOptions(include_timings=False,
                              include_observability=False),
    )
    (core,) = [
        span for span in result.flow.spans()
        if span.name == "core" and span.category == "component"
    ]
    return flow, report, dict(core.args)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(STATEMENTS))
def test_flow_and_report_text_are_pinned(name, traced, update_golden):
    flow, report, _ = rendered(name, traced)
    for kind, text in (("flow", flow), ("report", report)):
        path = RENDERED_DIR / f"{name}.{kind}.txt"
        if update_golden:
            RENDERED_DIR.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
            continue
        assert text == path.read_text(encoding="utf-8"), path.name


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(STATEMENTS))
def test_core_span_counters_are_pinned(name, traced):
    _, _, args = rendered(name, traced)
    lattice = args.pop("lattice_sizes", None)
    assert args == CORE_SPAN_ARGS[name]
    # the general core also records its lattice, one pass per set
    if args["variant"] == "general":
        assert len(lattice) == args["passes"] and lattice[(1, 1)] > 0
    else:
        assert lattice is None


@pytest.fixture
def update_golden(request):
    return request.config.getoption("--update-golden")
