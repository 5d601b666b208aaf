"""Metrics registry: counters, gauges, histograms.

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

The registry is a view of a :class:`~repro.obs.spans.Tracer`
(``Tracer(metrics=registry)`` or ``tracer.attach(registry)``): every
span close observes the ``repro_span_seconds`` histogram, and the
well-known series — SQL statements, whole MINE RULE / REFRESH RULES
runs, per-Q preprocessor stages, postprocessor steps, components,
core-operator counters, encoded-table sizes — are derived from the
names and attributes of the spans (:meth:`MetricsRegistry.observe_span`,
catalogue :data:`SPAN_SERIES`).  Nothing instruments the registry at a
call site except the job service's own series.
"""

from __future__ import annotations

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

#: counter attributes of the ``core`` component span
CORE_COUNTERS = (
    "popcounts", "intersections", "join_pairs_examined", "passes",
    "candidates",
)
_CACHE = "repro_sql_cache_events_total"
#: engine-span attribute -> (the counter it adds to, that counter's labels)
ENGINE_COUNTS: Dict[str, Tuple[str, Dict[str, str]]] = {
    "rows": ("repro_sql_rows_returned_total", {}),
    "rows_scanned": ("repro_sql_rows_scanned_total", {}),
    "statement_hits": (_CACHE, {"cache": "statement", "outcome": "hit"}),
    "statement_misses": (_CACHE, {"cache": "statement", "outcome": "miss"}),
    "plan_hits": (_CACHE, {"cache": "plan", "outcome": "hit"}),
    "plan_misses": (_CACHE, {"cache": "plan", "outcome": "miss"}),
    "plan_invalidations": (
        _CACHE, {"cache": "plan", "outcome": "invalidation"}),
}
#: root-span verb -> (latency histogram, outcome counter)
RUN_SERIES = {
    "run": ("repro_minerule_run_seconds", "repro_minerule_runs_total"),
    "refresh": ("repro_refresh_seconds", "repro_refresh_total"),
}
#: the series derived from closed spans
#: (:meth:`MetricsRegistry.observe_span`): name -> (kind, labels, help)
SPAN_SERIES: Dict[str, Tuple[str, Tuple[str, ...], str]] = {
    "repro_sql_statement_seconds": (
        "histogram", ("kind",),
        "SQL statement execution latency by statement kind"),
    "repro_sql_statements_total": (
        "counter", ("kind",), "SQL statements executed by statement kind"),
    "repro_sql_rows_returned_total": (
        "counter", (), "Rows returned by SQL statements"),
    "repro_sql_rows_scanned_total": (
        "counter", (), "Source rows scanned by SELECT pipelines"),
    "repro_sql_cache_events_total": (
        "counter", ("cache", "outcome"), "Statement-cache events (parses and plans)"),
    "repro_minerule_run_seconds": (
        "histogram", (), "End-to-end MINE RULE run latency"),
    "repro_minerule_runs_total": (
        "counter", ("status",), "MINE RULE runs by outcome"),
    "repro_refresh_seconds": (
        "histogram", (), "End-to-end REFRESH RULES latency"),
    "repro_refresh_total": (
        "counter", ("status", "mode"),
        "REFRESH RULES runs by outcome and mode"),
    "repro_component_seconds": (
        "histogram", ("component",),
        "Wall seconds per pipeline component per run"),
    "repro_preprocess_stage_seconds": (
        "histogram", ("stage",),
        "Wall seconds per preprocessing query (Q0..Q11)"),
    "repro_postprocess_seconds": (
        "histogram", ("step",), "Wall seconds per postprocessor step"),
    "repro_rules_stored_total": (
        "counter", (), "Encoded rules written to the output tables"),
    "repro_preprocess_totg": ("gauge", (), "Total group count (:totg)"),
    "repro_preprocess_mingroups": (
        "gauge", (), "Minimum group-count threshold (:mingroups)"),
    "repro_encoded_table_rows": (
        "gauge", ("table",), "Rows in the encoded tables after preprocessing"),
    "repro_core_runs_total": (
        "counter", ("variant", "representation"),
        "Core-operator runs by variant and representation"),
    "repro_core_universe_slots": (
        "gauge", ("universe",), "Slot-universe size of the last core run"),
    "repro_core_bitset_density": (
        "gauge", (), "Fraction of set bits in the sampled bitmaps (last run)"),
    **{
        f"repro_core_{name}_total": (
            "counter", (), f"Core-operator total of {name!r} across runs")
        for name in CORE_COUNTERS
    },
}


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
        """Span close -> histogram observe (the registry as a
        :class:`~repro.obs.spans.Tracer` view).  Spans carrying
        resource attribution additionally feed the CPU-seconds and
        peak-bytes series, and every span feeds the series derived
        from its name and attributes (:meth:`_observe_derived`)."""
        if not self.enabled:
            return
        self._observe_derived(span)
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

    def _observe_derived(self, span: Any) -> None:
        """Feed :data:`SPAN_SERIES` from one span: a statement's root
        span (``minerule`` category, with its ``status``) whatever its
        outcome, every span only when it closed without an ``error``."""
        args = span.args
        if span.category == "minerule" and "status" in args:
            seconds, total = RUN_SERIES[span.name.rpartition(".")[2]]
            self._series(seconds).observe(span.seconds)
            labels = {"status": args["status"]}
            if "mode" in args:
                labels["mode"] = args["mode"]
            self._series(total).inc(**labels)
        if "error" in args:
            return
        if span.category == "engine":
            kind = args["kind"]
            self._series("repro_sql_statement_seconds").observe(
                span.seconds, kind=kind
            )
            self._series("repro_sql_statements_total").inc(kind=kind)
            for key, (name, labels) in ENGINE_COUNTS.items():
                if args.get(key):
                    self._series(name).inc(args[key], **labels)
        elif span.category == "component":
            self._series("repro_component_seconds").observe(
                span.seconds, component=span.name
            )
        elif span.category == "preprocessor" and "stage" in args:
            self._series("repro_preprocess_stage_seconds").observe(
                span.seconds, stage=args["stage"]
            )
        elif span.category == "postprocessor":
            self._series("repro_postprocess_seconds").observe(
                span.seconds, step=span.name.rpartition(".")[2]
            )
            if "rules" in args:
                self._series("repro_rules_stored_total").inc(args["rules"])
        if "variant" in args:  # the core component span
            for name in CORE_COUNTERS:
                self._series(f"repro_core_{name}_total").inc(args[name])
            slots = self._series("repro_core_universe_slots")
            for universe, size in sorted(args["universe_sizes"].items()):
                slots.set(size, universe=universe)
            density = self._series("repro_core_bitset_density")
            density.set(args["bitset_density"])
            self._series("repro_core_runs_total").inc(
                variant=args["variant"], representation=args["representation"]
            )
        if "totg" in args:  # the run's root span
            self._series("repro_preprocess_totg").set(args["totg"])
            self._series("repro_preprocess_mingroups").set(args["mingroups"])
            rows = self._series("repro_encoded_table_rows")
            for table, count in args["encoded_rows"].items():
                rows.set(count, table=table)

    def _series(self, name: str) -> "Metric":
        metric = self._metrics.get(name)  # registered: skip the checks
        if metric is None:
            kind, labelnames, help_text = SPAN_SERIES[name]
            metric = getattr(self, kind)(name, help_text, labelnames)
        return metric


#: the shared disabled registry — default value of every ``metrics``
#: parameter, so the un-monitored path never allocates
NULL_REGISTRY = MetricsRegistry(enabled=False)
