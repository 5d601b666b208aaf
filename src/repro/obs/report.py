"""Consolidated end-of-run observability report.

Text rendering of everything a :class:`~repro.obs.spans.Tracer`
collected: wall time and CPU by category, peak memory and the slowest
spans.  The MINE RULE report (:mod:`repro.report`) embeds a compact
variant; the CLI ``.trace`` meta command prints this full one.
"""

from __future__ import annotations

from typing import List

from repro.obs.spans import Tracer


def render_obs_report(tracer: Tracer, top: int = 10) -> str:
    if not tracer.enabled:
        return "tracing disabled (run with --trace-out to record spans)"
    lines: List[str] = []
    lines.append(
        f"observability: {len(tracer.spans)} spans, "
        f"{len(tracer.instants)} events"
    )

    by_category = tracer.category_seconds()
    if by_category:
        lines.append("time by category:")
        total = sum(by_category.values())
        for category, seconds in sorted(
            by_category.items(), key=lambda kv: -kv[1]
        ):
            share = 100.0 * seconds / total if total else 0.0
            lines.append(
                f"  {category:<16} {seconds * 1000:9.2f} ms ({share:4.1f}%)"
            )

    by_cpu = tracer.category_cpu_seconds()
    if by_cpu:
        lines.append("cpu by category:")
        for category, seconds in sorted(
            by_cpu.items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"  {category:<16} {seconds * 1000:9.2f} ms")

    peaks = [s for s in tracer.spans if s.peak_bytes]
    if peaks:
        lines.append("peak traced memory (top spans):")
        for span in sorted(peaks, key=lambda s: -s.peak_bytes)[:5]:
            lines.append(
                f"  {span.name:<28} {span.peak_bytes / 1024:9.1f} KiB"
            )

    slowest = tracer.slowest(top)
    if slowest:
        lines.append(f"slowest spans (top {len(slowest)}):")
        for span in slowest:
            lines.append(
                f"  {span.name:<28} {span.seconds * 1000:9.2f} ms"
            )

    return "\n".join(lines)
