import math

import pytest

from benchmarks.suite.stats import (
    percentile,
    quartiles,
    spread,
    summarize,
    supports_percentile,
)


def test_percentile_interpolates_between_order_statistics():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5
    assert percentile(values, 25) == 1.75
    assert percentile([7.0], 90) == 7.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_a_percentile_needs_ten_samples_beyond_it():
    assert not supports_percentile(30, 90)   # 3 beyond
    assert not supports_percentile(99, 90)   # 9.9 beyond
    assert supports_percentile(100, 90)
    assert supports_percentile(200, 90)
    assert not supports_percentile(200, 99)  # 2 beyond


def test_summarize_reports_sample_count_and_withholds_thin_tails():
    small = summarize([float(i) for i in range(30)], tail=90)
    assert small == {"p50": 14.5, "n": 30, "p90": None}
    large = summarize([float(i) for i in range(200)], tail=90)
    assert large["n"] == 200
    assert large["p90"] == pytest.approx(179.1)
    assert summarize([]) == {"p50": None, "n": 0}


def test_spread_is_interquartile_distance_over_median():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9]
    q1, median, q3 = quartiles(values)
    assert spread(values) == pytest.approx((q3 - q1) / median)
    assert spread([5.0]) == 0.0
    assert spread([0.0, 0.0]) == 0.0
    assert math.isinf(spread([-1.0, 0.0, 1.0]))
