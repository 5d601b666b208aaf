"""Workload generators.

* :mod:`repro.datagen.retail` — the paper's Purchase table (Figure 1,
  exact) and a scalable synthetic version of the same store scenario;
* :mod:`repro.datagen.quest` — IBM Quest-style synthetic basket data
  (the T·I·D workloads the association-rule papers evaluate on,
  Apriori's among them);
* :mod:`repro.datagen.clickstream` — a web-session scenario exercising
  general rules (clusters over request time, mining conditions over
  page attributes).
"""

from repro.datagen.clickstream import load_clickstream
from repro.datagen.quest import (
    QuestParameters,
    generate_quest,
    load_quest,
)
from repro.datagen.telecom import (
    iter_burst_appends,
    load_telecom,
)
from repro.datagen.retail import (
    PURCHASE_COLUMNS,
    figure1_rows,
    iter_drift_appends,
    load_purchase_figure1,
    load_purchase_synthetic,
)

__all__ = [
    "PURCHASE_COLUMNS",
    "QuestParameters",
    "figure1_rows",
    "generate_quest",
    "iter_burst_appends",
    "iter_drift_appends",
    "load_clickstream",
    "load_purchase_figure1",
    "load_purchase_synthetic",
    "load_quest",
    "load_telecom",
]
