"""Mining session reports (the "ease of view" goal of Section 3).

The paper's fourth architectural objective: "The user support provides
facilities for viewing rules generated by the analysis process."  The
GUI lives in the AMORE companion paper; this module provides its
text-mode equivalent: a structured report of one MINE RULE execution —
statement, classification, encoded-table statistics, process timings
and the rules themselves (optionally with the extended quality
measures) — renderable to plain text for terminals, logs and the
examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.kernel.context import render_core
from repro.kernel.metrics import RuleMetrics
from repro.obs.slowlog import SlowQueryLog
from repro.system import MiningResult, MiningSystem


@dataclass
class ReportOptions:
    """What to include and how much of it."""

    top: int = 20
    sort_by: str = "support"  # support | confidence | lift
    include_program: bool = False
    include_tables: bool = True
    include_timings: bool = True
    #: append the tracer's consolidated span/counter report when the
    #: system runs with tracing enabled
    include_observability: bool = True


def render_report(
    system: MiningSystem,
    result: MiningResult,
    metrics: Optional[Sequence[RuleMetrics]] = None,
    options: Optional[ReportOptions] = None,
) -> str:
    """Render a full text report for *result*."""
    options = options or ReportOptions()
    lines: List[str] = []
    rule = "=" * 72

    statement = result.statement
    lines.append(rule)
    lines.append(f"MINE RULE report — {statement.output_table}")
    lines.append(rule)
    lines.append(statement.describe())
    lines.append(f"classification: {result.directives}")
    if result.preprocessing_reused:
        lines.append("preprocessing: reused encoded tables (Section 3)")
    lines.append("")

    if options.include_tables and result.preprocess_stats is not None:
        stats = result.preprocess_stats
        lines.append(
            f"groups: {stats.totg} (minimum group count "
            f"{stats.mingroups})"
        )
        populated = {
            name: rows for name, rows in stats.table_rows.items() if rows
        }
        if populated:
            lines.append("encoded tables:")
            for name, rows in sorted(populated.items()):
                lines.append(f"  {name:<28} {rows:>8} rows")
        lines.append("")

    core = [s.args for s in result.flow.spans() if "variant" in s.args]
    if options.include_tables and core:
        lines += render_core(core[-1])[1] + [""]

    if result.resilience.any():
        lines.append(f"resilience: {result.resilience.describe()}")
        lines.append("")

    if options.include_timings and result.timings:
        lines.append("timings:")
        total = sum(result.timings.values())
        for component, seconds in result.timings.items():
            share = 100.0 * seconds / total if total else 0.0
            lines.append(
                f"  {component:<14} {seconds * 1000:8.2f} ms ({share:4.1f}%)"
            )
        lines.append("")

    tracer = system.tracer
    if options.include_observability and tracer.enabled and tracer.spans:
        from repro.obs.report import render_obs_report

        lines.append("observability:")
        lines.extend(
            f"  {line}" for line in render_obs_report(tracer).splitlines()
        )
        lines.append("")

    slowlog = tracer.attached(SlowQueryLog)
    if options.include_observability and slowlog is not None and len(slowlog):
        lines.extend(slowlog.render().splitlines())
        lines.append("")

    lines.append(f"rules: {len(result.rules)}")
    lines.extend(_rule_lines(result, metrics, options))

    if options.include_program:
        lines.append("")
        lines.append("translation program:")
        lines.append(result.program.listing())
    return "\n".join(lines)


def _rule_lines(
    result: MiningResult,
    metrics: Optional[Sequence[RuleMetrics]],
    options: ReportOptions,
) -> List[str]:
    by_key = {}
    if metrics:
        for m in metrics:
            by_key[m.rule.key()] = m

    def sort_key(pair):
        decoded, encoded = pair
        if options.sort_by == "confidence":
            return (-decoded.confidence, -decoded.support)
        if options.sort_by == "lift" and by_key:
            m = by_key.get(encoded.key())
            return (-(m.lift if m else 0.0), -decoded.support)
        return (-decoded.support, -decoded.confidence)

    paired = sorted(
        zip(result.rules, result.encoded_rules), key=sort_key
    )
    lines: List[str] = []
    shown = paired[: options.top]
    for decoded, encoded in shown:
        line = f"  {decoded}"
        m = by_key.get(encoded.key())
        if m is not None:
            conviction = (
                "inf" if m.conviction is None else f"{m.conviction:.2f}"
            )
            line += (
                f"  [lift={m.lift:.2f} leverage={m.leverage:+.3f} "
                f"conviction={conviction}]"
            )
        lines.append(line)
    if len(paired) > len(shown):
        lines.append(f"  ... and {len(paired) - len(shown)} more")
    return lines


def report(
    system: MiningSystem,
    statement_text: str,
    with_metrics: bool = True,
    options: Optional[ReportOptions] = None,
) -> str:
    """Execute *statement_text* and return its report in one call."""
    result = system.execute(statement_text)
    metrics = (
        system.compute_metrics(result, store=False) if with_metrics else None
    )
    return render_report(system, result, metrics, options)
