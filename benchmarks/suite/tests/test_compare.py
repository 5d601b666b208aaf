import pytest

from benchmarks.suite.catalog import END_TO_END_BY_NAME
from benchmarks.suite.compare import compare_sets, judge


def one_set(**metrics):
    return {"w": {"end_to_end": {
        name: {"value": value, "unit": "s", "n": None}
        for name, value in metrics.items()
    }}}


STMT = END_TO_END_BY_NAME["stmt_s_p50"]          # lower is better
APPEND = END_TO_END_BY_NAME["append_rows_per_s"]  # higher is better
FAILED = END_TO_END_BY_NAME["failed_frac"]        # any increase


def steady(median):
    return [median, median * 1.01, median * 0.99, median]


def test_steady_sides_within_the_bound_are_ok():
    slower = 1.0 + STMT.bound - 0.02
    row = judge(STMT, steady(1.0), steady(slower))
    assert row.verdict == "ok"
    assert row.ratio == pytest.approx(slower)


def test_steady_sides_beyond_the_bound_are_regressed():
    assert judge(STMT, steady(1.0),
                 steady(1.0 + STMT.bound + 0.02)).verdict == "regressed"
    # direction: a higher-is-better metric regresses by falling
    fell = 7000 * (1.0 - APPEND.bound - 0.02)
    assert judge(APPEND, steady(7000), steady(fell)).verdict == "regressed"
    assert judge(APPEND, steady(7000), steady(8000)).verdict == "ok"


def test_spread_wider_than_the_bound_is_unresolved_unless_all_runs_win():
    noisy_base = [1.0, 1.6, 0.6, 1.1]
    assert judge(STMT, noisy_base, [1.0, 1.5, 0.7, 1.1]).verdict == "unresolved"
    assert judge(STMT, noisy_base, [0.3, 0.4, 0.2, 0.5]).verdict == "ok"


def test_any_increase_of_failures_is_a_regression():
    assert judge(FAILED, [0.0], [0.0]).verdict == "ok"
    assert judge(FAILED, [0.0], [0.01]).verdict == "regressed"


def test_rows_skip_metrics_a_workload_does_not_produce():
    base = [one_set(stmt_s_p50=1.0, setup_s=2.0, query_s_p50=None)]
    change = [one_set(stmt_s_p50=1.02, setup_s=2.1, query_s_p50=None)]
    rows = compare_sets(base, change)
    assert [(r.workload, r.metric) for r in rows] == [
        ("w", "setup_s"), ("w", "stmt_s_p50"),
    ]
    assert all(r.verdict == "ok" for r in rows)
