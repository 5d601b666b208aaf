"""Sample statistics the suite reports: medians with their sample
count, the highest percentile the sample supports, quartile spreads."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence

#: a percentile is reported only with this many samples beyond it
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0..100) by linear interpolation between
    the two nearest order statistics."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside 0..100")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def supports_percentile(count: int, q: float) -> bool:
    """Whether *count* samples leave at least ten beyond the *q*-th
    percentile, the rule for reporting anything above the median."""
    return count * (100.0 - q) / 100.0 >= MIN_SAMPLES_BEYOND


def summarize(
    values: Sequence[float], tail: Optional[float] = None
) -> Dict[str, Optional[float]]:
    """``{"p50", "n"}`` plus ``"p<tail>"`` — None when the sample is
    too small to support that percentile."""
    summary: Dict[str, Optional[float]] = {
        "p50": statistics.median(values) if values else None,
        "n": len(values),
    }
    if tail is not None:
        key = f"p{tail:g}"
        summary[key] = (
            percentile(values, tail)
            if supports_percentile(len(values), tail)
            else None
        )
    return summary


def quartiles(values: Sequence[float]) -> List[float]:
    """[q1, median, q3] as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (the run-to-run spread the bounds are judged against)."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q1 == q3 else math.inf
    return (q3 - q1) / abs(median)
