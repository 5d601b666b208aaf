"""``compare A.json B.json [more...]``: the files ``run --out`` wrote,
one set of runs each.  The first ``--base`` files (default 1) are the
base side, the rest the change side.  One row per workload and
end-to-end metric: both medians, each side's quartiles over its sets,
the ratio with its base, and a verdict.

``ok``          the change's median is within the metric's bound
``regressed``   it is worse than the base's by more than the bound
``unresolved``  the run-to-run spread is wider than the bound, so the
                sets cannot tell (unless every run of the change reads
                better than every run of the base)
"""

from __future__ import annotations

import argparse
import json
import statistics
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

from benchmarks.suite.catalog import END_TO_END, EndToEnd
from benchmarks.suite.stats import quartiles, spread


class Row(NamedTuple):
    workload: str
    metric: str
    unit: str
    base: float
    change: float
    base_quartiles: List[float]
    change_quartiles: List[float]
    ratio: float
    spread: float
    bound: float
    verdict: str


def load_set(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["workloads"]


def values_of(sets: Sequence[Dict[str, Any]], workload: str,
              metric: str) -> List[float]:
    values = []
    for one in sets:
        entry = one.get(workload, {}).get("end_to_end", {}).get(metric)
        if entry is not None and entry["value"] is not None:
            values.append(entry["value"])
    return values


def worsening(entry: EndToEnd, base: float, change: float) -> float:
    """By what share of the base median the change is worse (negative:
    better)."""
    if base == 0:
        return 0.0 if change == 0 else float("inf")
    delta = (change - base) / abs(base)
    return delta if entry.better == "lower" else -delta


def run_to_run_spread(base: Sequence[float], change: Sequence[float]) -> float:
    """The wider of the two sides' spreads; with one set a side, the
    spread of the two sets taken together."""
    if len(base) >= 2 and len(change) >= 2:
        return max(spread(base), spread(change))
    return spread(list(base) + list(change))


def judge(entry: EndToEnd, base: Sequence[float],
          change: Sequence[float]) -> Row:
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    worse = worsening(entry, base_median, change_median)
    noise = run_to_run_spread(base, change)
    if entry.bound == 0.0:  # any increase is a regression
        verdict = "regressed" if worse > 0 else "ok"
    elif noise > entry.bound:
        all_better = (
            max(change) < min(base) if entry.better == "lower"
            else min(change) > max(base)
        )
        verdict = "ok" if all_better else "unresolved"
    else:
        verdict = "regressed" if worse > entry.bound else "ok"
    return Row(
        "", entry.name, entry.unit, base_median, change_median,
        quartiles(base), quartiles(change),
        change_median / base_median if base_median else float("nan"),
        noise, entry.bound, verdict,
    )


def compare_sets(base_sets: Sequence[Dict[str, Any]],
                 change_sets: Sequence[Dict[str, Any]]) -> List[Row]:
    rows: List[Row] = []
    workloads = [name for name in base_sets[0] if name in change_sets[0]]
    for workload in workloads:
        for entry in END_TO_END:
            base = values_of(base_sets, workload, entry.name)
            change = values_of(change_sets, workload, entry.name)
            if base and change:
                rows.append(
                    judge(entry, base, change)._replace(workload=workload)
                )
    return rows


def render(rows: Sequence[Row]) -> str:
    def quart(values: List[float]) -> str:
        return f"[{values[0]:.4g} .. {values[2]:.4g}]"

    lines = [
        f"{'workload':<18}{'metric':<19}{'base':>10}{'change':>10} "
        f"{'unit':<7}{'base q1..q3':<22}{'change q1..q3':<22}"
        f"{'ratio (of base)':<24}{'spread':>7}{'bound':>7}  verdict"
    ]
    for row in rows:
        ratio = f"{row.ratio:.3f} of {row.base:.4g} {row.unit}"
        lines.append(
            f"{row.workload:<18}{row.metric:<19}{row.base:>10.4g}"
            f"{row.change:>10.4g} {row.unit:<7}"
            f"{quart(row.base_quartiles):<22}{quart(row.change_quartiles):<22}"
            f"{ratio:<24}{row.spread:>7.3f}{row.bound:>7.2f}  {row.verdict}"
        )
    return "\n".join(lines)


def compare_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.suite compare")
    parser.add_argument("files", nargs="+", metavar="SET.json")
    parser.add_argument("--base", type=int, default=1, metavar="K",
                        help="how many leading files are the base side")
    args = parser.parse_args(argv)
    if not 0 < args.base < len(args.files):
        parser.error("need at least one file on each side")
    sets = [load_set(path) for path in args.files]
    rows = compare_sets(sets[:args.base], sets[args.base:])
    print(render(rows))
    bad = [row for row in rows if row.verdict != "ok"]
    print(f"{len(rows)} rows: {len(rows) - len(bad)} ok, "
          f"{sum(r.verdict == 'regressed' for r in bad)} regressed, "
          f"{sum(r.verdict == 'unresolved' for r in bad)} unresolved")
    return 1 if any(row.verdict == "regressed" for row in bad) else 0
