import json
from pathlib import Path

import pytest

from benchmarks.suite import workloads
from benchmarks.suite.catalog import (
    DRIVER_END_TO_END,
    END_TO_END_BY_NAME,
    PER_LAYER,
    RUN_SECONDS,
    WORKLOAD_NAMES,
)

BENCHMARK_JSON = Path(__file__).resolve().parents[3] / "BENCHMARK.json"


@pytest.fixture(scope="module")
def benchmark_json():
    if not BENCHMARK_JSON.exists():
        pytest.skip("no BENCHMARK.json beside this checkout")
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


def test_benchmark_json_repeats_the_catalog(benchmark_json):
    assert benchmark_json["paths"] == ["benchmarks/suite"]
    assert benchmark_json["run_seconds"] == RUN_SECONDS
    assert [(w["name"], w["why"]) for w in benchmark_json["workloads"]] == \
        [(name, workloads.WHY[name]) for name in WORKLOAD_NAMES]
    end_to_end = benchmark_json["end_to_end"]
    assert [m["name"] for m in end_to_end] == DRIVER_END_TO_END
    for entry in end_to_end:
        ours = END_TO_END_BY_NAME[entry["name"]]
        assert (entry["unit"], entry["better"], entry["bound"]) == \
            (ours.unit, ours.better, ours.bound)
    assert [(m["name"], m["unit"], m["better"])
            for m in benchmark_json["per_layer"]] == [tuple(m) for m in PER_LAYER]


def test_metric_names_are_unique_and_every_workload_says_why():
    names = DRIVER_END_TO_END + [m.name for m in PER_LAYER]
    assert len(names) == len(set(names))
    assert set(workloads.WHY) == set(WORKLOAD_NAMES)
