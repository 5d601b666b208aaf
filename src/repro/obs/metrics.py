"""Process-wide metrics registry: counters, gauges, histograms.

Where :class:`~repro.obs.spans.Tracer` records *one run* (spans with a
beginning and an end), this registry aggregates *across runs* — the
serving-mode view of the system.  Three instrument kinds, all with an
optional labels dimension (``sql_query_seconds{stage="Q3"}``):

* :class:`Counter` — monotonic totals (statements executed, cache
  hits, faults injected);
* :class:`Gauge` — last-value observations (encoded table sizes,
  ``:totg``);
* :class:`Histogram` — latency distributions with configurable bucket
  boundaries, rendered in Prometheus exposition format by
  :mod:`repro.obs.promtext`.

The registry is thread-safe (one lock shared by every instrument), so
a monitoring HTTP server can scrape a consistent snapshot while runs
are in flight.  Zero overhead when disabled: :data:`NULL_REGISTRY` is
the shared disabled instance — its instrument factories hand out one
no-op instrument, and every hot-path hook guards on a single
``registry.enabled`` attribute check, mirroring the ``NULL_TRACER``
contract.

The :class:`Tracer` feeds the registry automatically: every span close
observes the ``repro_span_seconds`` histogram, counters and (numeric)
gauges mirror one-to-one under sanitized names.  The specific
well-known series (per-statement SQL latency, per-Q preprocessor
stages, core-operator counters) are instrumented directly at their
sites, so they exist even when span tracing is off.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: default histogram boundaries: 100 microseconds to 10 seconds, the
#: range SQL statements and MINE RULE runs actually occupy
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: byte-scale boundaries (1 KiB .. 1 GiB) for memory histograms
BYTE_BUCKETS: Tuple[float, ...] = (
    1024.0, 16384.0, 65536.0, 262144.0, 1048576.0,
    4194304.0, 16777216.0, 67108864.0, 268435456.0, 1073741824.0,
)

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str) -> str:
    """Coerce an arbitrary dotted counter/gauge name into a legal
    Prometheus metric name (``engine.plan_cache_hits`` ->
    ``engine_plan_cache_hits``)."""
    cleaned = _NAME_RE.sub("_", name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = f"_{cleaned}"
    return cleaned


class Metric:
    """One metric family: a name, a kind, fixed label names and a
    sample per observed label-value combination."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Tuple[str, ...],
        lock: threading.RLock,
    ):
        self.name = name
        self.help = help_text
        self.labelnames = labelnames
        self._lock = lock
        self._samples: "OrderedDict[Tuple[str, ...], Any]" = OrderedDict()

    def _key(self, labels: Dict[str, Any]) -> Tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def samples(self) -> List[Tuple[Tuple[str, ...], Any]]:
        """Snapshot of (label values, sample) pairs."""
        with self._lock:
            return list(self._samples.items())

    def labelsets(self) -> List[Dict[str, str]]:
        with self._lock:
            return [
                dict(zip(self.labelnames, key)) for key in self._samples
            ]


class Counter(Metric):
    """A monotonically increasing total."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        key = self._key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._samples.get(self._key(labels), 0)


class Gauge(Metric):
    """A last-value observation."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._samples[key] = value

    def inc(self, amount: float = 1, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0) + amount

    def value(self, **labels: Any) -> Optional[float]:
        with self._lock:
            return self._samples.get(self._key(labels))


class HistogramState:
    """Mutable per-labelset histogram sample: cumulative-ready bucket
    counts (one per boundary plus the +Inf overflow), sum and count."""

    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int):
        self.counts = [0] * (n_buckets + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float, boundaries: Tuple[float, ...]) -> None:
        slot = len(boundaries)
        for index, bound in enumerate(boundaries):
            if value <= bound:
                slot = index
                break
        self.counts[slot] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> List[int]:
        """Bucket counts as Prometheus wants them: cumulative,
        including the +Inf bucket (== count)."""
        out: List[int] = []
        running = 0
        for count in self.counts:
            running += count
            out.append(running)
        return out


class Histogram(Metric):
    """A distribution over configurable bucket boundaries."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Tuple[str, ...],
        lock: threading.RLock,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help_text, labelnames, lock)
        boundaries = tuple(sorted(float(b) for b in buckets))
        if not boundaries:
            raise ValueError("histogram needs at least one bucket boundary")
        self.buckets = boundaries

    def observe(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            state = self._samples.get(key)
            if state is None:
                state = HistogramState(len(self.buckets))
                self._samples[key] = state
            state.observe(value, self.buckets)

    def state(self, **labels: Any) -> Optional[HistogramState]:
        with self._lock:
            return self._samples.get(self._key(labels))


class _NullInstrument:
    """Shared no-op instrument a disabled registry hands out."""

    __slots__ = ()
    name = ""
    kind = "null"
    labelnames: Tuple[str, ...] = ()
    buckets: Tuple[float, ...] = ()

    def inc(self, amount: float = 1, **labels: Any) -> None:
        pass

    def set(self, value: float, **labels: Any) -> None:
        pass

    def observe(self, value: float, **labels: Any) -> None:
        pass

    def value(self, **labels: Any) -> float:
        return 0

    def state(self, **labels: Any) -> None:
        return None

    def samples(self) -> List[Tuple[Tuple[str, ...], Any]]:
        return []


NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Get-or-create registry of metric families.

    ``counter``/``gauge``/``histogram`` are idempotent: the first call
    for a name creates the family, later calls return the same object
    (and raise :class:`ValueError` if kind or label names disagree —
    two call sites silently feeding differently-shaped series is the
    classic metrics bug).
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.RLock()
        self._metrics: "OrderedDict[str, Metric]" = OrderedDict()

    # -- instrument factories ------------------------------------------

    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._register(Counter, name, help_text, labelnames)

    def gauge(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._register(Gauge, name, help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(
            Histogram, name, help_text, labelnames, buckets=buckets
        )

    def _register(self, cls, name, help_text, labelnames, **kwargs):
        if not self.enabled:
            return NULL_INSTRUMENT
        labelnames = tuple(labelnames)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                if existing.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.labelnames}, not {labelnames}"
                    )
                return existing
            metric = cls(name, help_text, labelnames, self._lock, **kwargs)
            self._metrics[name] = metric
            return metric

    # -- read side -----------------------------------------------------

    def get(self, name: str) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get(name)

    def collect(self) -> List[Metric]:
        """Registered families in registration order (stable scrape
        output)."""
        with self._lock:
            return list(self._metrics.values())

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready dump for ``/stats.json``."""
        out: Dict[str, Any] = {}
        for metric in self.collect():
            samples = []
            for key, sample in metric.samples():
                labels = dict(zip(metric.labelnames, key))
                if isinstance(sample, HistogramState):
                    samples.append(
                        {
                            "labels": labels,
                            "count": sample.count,
                            "sum": sample.sum,
                            "buckets": dict(
                                zip(
                                    [str(b) for b in metric.buckets]
                                    + ["+Inf"],
                                    sample.cumulative(),
                                )
                            ),
                        }
                    )
                else:
                    samples.append({"labels": labels, "value": sample})
            out[metric.name] = {
                "type": metric.kind,
                "help": metric.help,
                "samples": samples,
            }
        return out

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()

    # -- tracer feed ---------------------------------------------------

    def observe_span(self, span: Any) -> None:
        """Span close -> histogram observe (the automatic
        :class:`~repro.obs.spans.Tracer` feed).  Spans carrying
        resource attribution additionally feed the CPU-seconds and
        peak-bytes series."""
        if not self.enabled:
            return
        category = span.category or span.name
        self.histogram(
            "repro_span_seconds",
            "Wall seconds of tracer spans by category",
            ("category",),
        ).observe(span.seconds, category=category)
        cpu = getattr(span, "cpu", None)
        if cpu is not None:
            self.histogram(
                "repro_span_cpu_seconds",
                "Attributed CPU seconds of tracer spans by category",
                ("category",),
            ).observe(cpu, category=category)
        peak = getattr(span, "peak_bytes", None)
        if peak is not None:
            self.histogram(
                "repro_span_peak_bytes",
                "Peak traced bytes of tracer spans by category "
                "(tracemalloc; --profile-mem)",
                ("category",),
                buckets=BYTE_BUCKETS,
            ).observe(peak, category=category)

    def trace_counter(self, name: str, amount: float) -> None:
        """Counter mirror for :meth:`Tracer.bump`."""
        if not self.enabled:
            return
        self.counter(
            f"repro_{sanitize_metric_name(name)}_total",
            f"Mirrored tracer counter {name!r}",
        ).inc(amount)

    def trace_gauge(self, name: str, value: Any) -> None:
        """Gauge mirror for :meth:`Tracer.gauge` (numeric values only —
        the tracer's own dict keeps strings like ``core.variant``)."""
        if not self.enabled:
            return
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return
        self.gauge(
            f"repro_{sanitize_metric_name(name)}",
            f"Mirrored tracer gauge {name!r}",
        ).set(value)


def publish_gauge(tracer: Any, metrics: "MetricsRegistry",
                  name: str, value: Any, **labels: Any) -> None:
    """End-of-run gauge publication that works for any tracer/registry
    combination: an enabled tracer records (and mirrors) it; with the
    tracer off, the registry still gets the numeric value."""
    if tracer is not None and tracer.enabled:
        tracer.gauge(name, value, **labels)
    else:
        metrics.trace_gauge(name, value)


def fallback_counter(metrics: "MetricsRegistry") -> Counter:
    """``repro_fallback_total{site,reason}``: the one family every site
    that can take a slower path than the one planned counts under."""
    return metrics.counter(
        "repro_fallback_total",
        "Executions that took a slower path than the one planned",
        ("site", "reason"),
    )


#: the shared disabled registry — default value of every ``metrics``
#: parameter, so the un-monitored path never allocates
NULL_REGISTRY = MetricsRegistry(enabled=False)

#: the process-wide default registry serving-mode components share
REGISTRY = MetricsRegistry()
