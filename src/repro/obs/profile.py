"""Per-span resource attribution: CPU time and peak memory.

CPU attribution uses ``time.process_time()`` — user+system CPU of the
whole process.  Within one thread the delta over a span is the CPU
that span's work consumed plus whatever other threads burned
concurrently; for the pipeline (which serializes runs under the run
lock) that is an honest per-span figure.

Memory attribution uses :mod:`tracemalloc`, strictly opt-in
(``--profile-mem``) because instrumenting every allocation costs real
time.  Per-span peaks are derived without ``tracemalloc.reset_peak``
— resetting the global high-water mark inside a nested span would
corrupt the enclosing span's reading — so a span's ``peak_bytes`` is
the growth of the traced high-water mark over the span, floored at
the net allocation delta.  Coarse (an early global peak can mask a
later smaller one) but nesting-safe and monotonic.
"""

from __future__ import annotations

import time
import tracemalloc
from typing import Optional, Tuple

#: a (current, peak) tracemalloc sample, or None when not tracing
MemorySample = Optional[Tuple[int, int]]


def cpu_seconds() -> float:
    """Process CPU clock (user + system), for span deltas."""
    return time.process_time()


def memory_tracking_active() -> bool:
    return tracemalloc.is_tracing()


def start_memory_tracking() -> None:
    """Idempotently enable tracemalloc (the --profile-mem switch)."""
    if not tracemalloc.is_tracing():
        tracemalloc.start()


def stop_memory_tracking() -> None:
    if tracemalloc.is_tracing():
        tracemalloc.stop()


def memory_sample() -> MemorySample:
    """(current, peak) traced bytes, or None when tracing is off."""
    if not tracemalloc.is_tracing():
        return None
    return tracemalloc.get_traced_memory()


def peak_bytes_since(baseline: MemorySample) -> Optional[int]:
    """Peak traced bytes attributable to the work since *baseline*.

    The high-water growth over the interval when a new global peak
    occurred; otherwise the net allocation delta (floored at zero)."""
    if baseline is None or not tracemalloc.is_tracing():
        return None
    start_current, start_peak = baseline
    end_current, end_peak = tracemalloc.get_traced_memory()
    if end_peak > start_peak:
        return max(0, end_peak - start_current)
    return max(0, end_current - start_current)
