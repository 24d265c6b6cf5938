"""The percentile rule of the benchmark's timing reports."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from stats import percentile, tail_percentile, timing_summary  # noqa: E402


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_timing_summary_reports_count_and_refuses_thin_tails():
    values = [float(i) for i in range(100)]
    summary = timing_summary(values)
    assert summary["n"] == 100
    assert summary["tail_pct"] == 90.0
    assert summary["p50"] == pytest.approx(49.5)
    assert summary["p90"] == pytest.approx(89.1)
    # ten samples lie above p90, none of them at or below it
    assert sum(v > summary["p90"] for v in values) == 10
    with pytest.raises(ValueError, match="only 99 samples"):
        timing_summary(values[:99])


def test_percentile_interpolates_and_keeps_equal_counts_exact():
    assert percentile([5.0, 1.0, 3.0], 50) == 3.0
    assert percentile([1.0, 2.0], 50) == 1.5
    assert percentile([7, 7], 50) == 7
    assert isinstance(percentile([7, 7], 50), int)
    with pytest.raises(ValueError):
        percentile([], 50)
