"""Per-layer metrics of the traced run, computed from the benchmark's
own spans: one value per timed statement, reported as medians."""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Optional

from benchmarks.suite.catalog import Q_LABELS
from benchmarks.suite.spans import Span, children_of, descendants, self_seconds

STATEMENT_SPANS = ("system.run", "system.refresh")

#: metric -> the span it is read from; a metric whose span's boundary
#: did not resolve is null, not zero
METRIC_SPAN = {
    "translator.self_s": "translator.translate",
    "translator.sql_statements": "translator.translate",
    "preprocessor.total_s": "preprocessor.run",
    "preprocessor.self_s": "preprocessor.run",
    **{f"preprocessor.q.{label}_s": "preprocessor.run" for label in Q_LABELS},
    "sqlengine.prepare_self_s": "sqlengine.prepare",
    "sqlengine.execute_self_s": "sqlengine.execute",
    "sqlengine.statements": "sqlengine.execute",
    "sqlengine.insert_row_us": "sqlengine.text",
    "core.load_self_s": "core.load",
    "core.load_groups": "core.load",
    "core.simple_self_s": "core.simple",
    "algorithms.mine_s": "algorithms.mine",
    "algorithms.itemsets": "algorithms.mine",
    "core.general_s": "core.general",
    "postprocessor.store_s": "postprocessor.store",
    "postprocessor.decode_s": "postprocessor.decode",
    "postprocessor.rules_s": "postprocessor.rules",
    "refresh.delta_self_s": "refresh.delta",
    "refresh.recount_s": "refresh.recount",
    "borderline.sql_share": "sqlengine.execute",
}


def statement_layers(
    root: Span, index: Dict[int, List[Span]]
) -> Dict[str, Optional[float]]:
    """The per-layer numbers of one traced statement."""
    total: Dict[str, float] = {}
    own: Dict[str, float] = {}
    count: Dict[str, int] = {}
    attr_sum: Dict[str, float] = {}
    labels = root.attrs.get("labels", {})
    per_label: Dict[str, float] = {}
    for span in descendants(root, index):
        name = span.name
        total[name] = total.get(name, 0.0) + span.seconds
        own[name] = own.get(name, 0.0) + self_seconds(
            span, index.get(id(span), ())
        )
        count[name] = count.get(name, 0) + 1
        for key in ("groups", "itemsets"):
            if key in span.attrs:
                attr_sum[key] = attr_sum.get(key, 0) + span.attrs[key]
        if name == "translator.translate":
            attr_sum["sql_statements"] = span.attrs.get("sql_statements", 0)
        if (
            name in ("sqlengine.prepare", "sqlengine.execute")
            and span.parent is not None
            and span.parent.name == "preprocessor.run"
        ):
            label = labels.get(span.attrs.get("sql"))
            if label is not None:
                per_label[label] = per_label.get(label, 0.0) + span.seconds

    wall = root.seconds
    core_side = (
        own.get("core.load", 0.0)
        + total.get("core.simple", 0.0)
        + total.get("core.general", 0.0)
        + own.get("refresh.delta", 0.0)
        + total.get("refresh.recount", 0.0)
    )
    plans = root.attrs.get("plan_hits", 0) + root.attrs.get("plan_misses", 0)
    layers: Dict[str, Optional[float]] = {
        "translator.self_s": own.get("translator.translate", 0.0),
        "translator.sql_statements": attr_sum.get("sql_statements", 0),
        "preprocessor.total_s": total.get("preprocessor.run", 0.0),
        "preprocessor.self_s": own.get("preprocessor.run", 0.0),
        "preprocessor.encoded_rows": root.attrs.get("encoded_rows", 0),
        # parsing: prepare() calls plus the parse inside execute(text)
        "sqlengine.prepare_self_s": (
            own.get("sqlengine.prepare", 0.0) + own.get("sqlengine.text", 0.0)
        ),
        "sqlengine.execute_self_s": own.get("sqlengine.execute", 0.0),
        "sqlengine.statements": count.get("sqlengine.execute", 0),
        "sqlengine.plan_cache_hit_ratio": (
            root.attrs.get("plan_hits", 0) / plans if plans else None
        ),
        "core.load_self_s": own.get("core.load", 0.0),
        "core.load_groups": attr_sum.get("groups", 0),
        "core.simple_self_s": own.get("core.simple", 0.0),
        "algorithms.mine_s": total.get("algorithms.mine", 0.0),
        "algorithms.itemsets": attr_sum.get("itemsets", 0),
        "core.general_s": total.get("core.general", 0.0),
        "core.rules": root.attrs.get("rules", 0),
        "postprocessor.store_s": total.get("postprocessor.store", 0.0),
        "postprocessor.decode_s": total.get("postprocessor.decode", 0.0),
        "postprocessor.rules_s": total.get("postprocessor.rules", 0.0),
        "refresh.delta_self_s": own.get("refresh.delta", 0.0),
        "refresh.recount_s": total.get("refresh.recount", 0.0),
        "refresh.delta_rows": root.attrs.get("delta_rows", 0),
        "refresh.recounted_itemsets": root.attrs.get("recounted_itemsets", 0),
        "system.self_s": self_seconds(root, index.get(id(root), ())),
        "system.cpu_s": root.attrs.get("cpu"),
        "borderline.sql_share": (
            own.get("sqlengine.execute", 0.0) / wall if wall else None
        ),
        "borderline.core_share": core_side / wall if wall else None,
    }
    for label in Q_LABELS:
        layers[f"preprocessor.q.{label}_s"] = per_label.get(label, 0.0)
    return layers


def _median(values: Iterable[Optional[float]]) -> Optional[float]:
    present = [value for value in values if value is not None]
    return statistics.median(present) if present else None


class LayerAccumulator:
    """Takes the spans of one traced stretch at a time, keeps only the
    numbers, and reports medians over every traced statement plus the
    ratios that only exist over a set of statements."""

    def __init__(self) -> None:
        self._statements: List[Dict[str, Optional[float]]] = []
        self._reused: List[bool] = []
        self._incremental: List[bool] = []
        self._insert_seconds: List[float] = []

    def add(self, spans: List[Span]) -> None:
        index = children_of(spans)
        for span in spans:
            if span.parent is not None or span.end is None:
                continue
            if span.name in STATEMENT_SPANS and "rules" in span.attrs:
                self._statements.append(statement_layers(span, index))
                if span.name == "system.run":
                    self._reused.append(bool(span.attrs.get("reused")))
                else:
                    self._incremental.append(
                        span.attrs.get("mode") == "incremental"
                    )
            elif (span.name == "sqlengine.text"
                  and span.attrs.get("kind") == "InsertValues"):
                # a single-row INSERT outside any mining statement
                self._insert_seconds.append(span.seconds)

    def metrics(
        self, missing_spans: Iterable[str] = ()
    ) -> Dict[str, Optional[float]]:
        if not self._statements:
            return {}
        metrics: Dict[str, Optional[float]] = {
            name: _median(layers[name] for layers in self._statements)
            for name in self._statements[0]
        }
        metrics["preprocessor.reused_ratio"] = (
            sum(self._reused) / len(self._reused) if self._reused else None
        )
        metrics["refresh.incremental_ratio"] = (
            sum(self._incremental) / len(self._incremental)
            if self._incremental else None
        )
        metrics["sqlengine.insert_row_us"] = (
            statistics.median(self._insert_seconds) * 1e6
            if self._insert_seconds else None
        )
        missing = set(missing_spans)
        for name, span_name in METRIC_SPAN.items():
            if span_name in missing:
                metrics[name] = None
        return metrics
