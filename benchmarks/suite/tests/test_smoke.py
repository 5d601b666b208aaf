"""``--quick`` smoke of all five workloads: tiny sizes, every output
check on, each workload in its own subprocess as in a real run."""

import json
import time

from benchmarks.suite import cli
from benchmarks.suite.catalog import RUN_SECONDS, WORKLOAD_NAMES


def test_quick_run_of_all_five_workloads(tmp_path, capsys):
    out = tmp_path / "quick.json"
    started = time.perf_counter()
    code = cli.main(["run", "--quick", "--out", str(out)])
    elapsed = time.perf_counter() - started
    printed = capsys.readouterr().out
    assert code == 0, printed
    assert elapsed < 30, f"quick smoke took {elapsed:.1f} s"
    results = json.loads(out.read_text())["workloads"]
    assert list(results) == WORKLOAD_NAMES
    for name, record in results.items():
        assert record["failed"] == 0 and record["attempted"] > 0, name
        # seed 19 is the pinned seed: input and rule digests were checked
        assert record["pins"]["input"]["rows"] > 0
        for metric in ("setup_s", "stmt_s_p50", "peak_rss_mb"):
            assert record["end_to_end"][metric]["value"] > 0, (name, metric)
        assert f"== {name} " in printed
    assert results["refresh_append"]["end_to_end"][
        "append_rows_per_s"]["value"] > 0
    assert results["service_mixed"]["end_to_end"]["query_s_p50"]["value"] > 0
    assert results["retail_cold"]["end_to_end"]["query_s_p50"]["value"] is None


def test_quick_traced_run_resolves_every_boundary():
    record = cli.run_one("refresh_append", cli.DEFAULT_SEED, RUN_SECONDS,
                         traced=True, quick=True, extra=["--strict"])
    assert record["failed"] == 0
    assert record["missing_boundaries"] == []
    layers = record["per_layer"]
    assert layers["refresh.incremental_ratio"] == 1.0
    assert layers["sqlengine.insert_row_us"] > 0
    assert 0 < layers["borderline.sql_share"] < 1
