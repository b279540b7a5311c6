"""Percentiles, medians, spreads and failure accounting."""

import statistics

import numpy as np
import pytest

from perfbench.stats import (
    Tally,
    median,
    percentile,
    quartile_spread,
    summarize,
    tail_quantile,
)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 101, 1000])
@pytest.mark.parametrize("q", [0, 25, 50, 90, 99, 100])
def test_percentile_matches_numpy_linear(n, q):
    values = list(np.random.default_rng(n).exponential(size=n))
    assert percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)
    with pytest.raises(ValueError):
        median([])


def test_median_even_and_odd_counts():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5


@pytest.mark.parametrize("n, expected", [
    (5, None),      # not even p90 has ten samples beyond it
    (99, None),
    (100, 90.0),    # 100 * 0.10 = 10 samples beyond p90
    (999, 90.0),
    (1000, 99.0),   # 1000 * 0.01 = 10 beyond p99
    (10000, 99.9),
])
def test_tail_quantile_needs_ten_samples_beyond(n, expected):
    assert tail_quantile(n) == expected


def test_summarize_reports_count_and_supported_tail():
    small = summarize([1.0, 2.0, 3.0])
    assert (small.count, small.p50, small.tail_q, small.tail) == (
        3, 2.0, None, None)
    assert "n=3" in small.describe("ms") and "p9" not in small.describe("ms")
    values = [float(i) for i in range(1, 1001)]
    big = summarize(values)
    assert big.count == 1000 and big.tail_q == 99.0
    assert big.tail == pytest.approx(np.percentile(values, 99))
    assert "p99=" in big.describe("ms")


def test_quartile_spread_uses_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))
    assert quartile_spread([5.0, 5.0, 5.0]) == 0.0
    with pytest.raises(ValueError):
        quartile_spread([1.0])


def test_tally_counts_failures_against_attempts():
    t = Tally()
    assert t.failed_ratio == 0.0 and not t.correct  # nothing attempted
    t.record(True, "request")
    t.record(False, "request", "503")
    t.check("digest", "abc", "abc")
    t.check("digest", "abc", "abd")
    assert (t.attempted, t.failed) == (4, 2)
    assert t.failed_ratio == 0.5
    assert not t.correct
    assert t.reasons[0] == "request: 503"
    assert "expected 'abd'" in t.reasons[1]


def test_tally_caps_kept_reasons():
    t = Tally()
    for _ in range(Tally.MAX_REASONS + 5):
        t.record(False, "job", "boom")
    assert t.failed == Tally.MAX_REASONS + 5
    assert len(t.reasons) == Tally.MAX_REASONS


def test_all_good_tally_is_correct():
    t = Tally()
    t.record(True, "solve")
    assert t.correct and t.failed_ratio == 0.0
