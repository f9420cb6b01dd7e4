import statistics

import pytest

from perfbench.stats import (median, percentile, quartiles, rel_spread,
                             rel_worsening)


def test_percentile_interpolates_between_closest_ranks():
    samples = [4.0, 1.0, 3.0, 2.0]
    assert percentile(samples, 0) == 1.0
    assert percentile(samples, 100) == 4.0
    assert percentile(samples, 50) == 2.5
    assert percentile(samples, 25) == pytest.approx(1.75)
    assert percentile([7.0], 99) == 7.0


def test_percentile_accepts_generators_and_rejects_nonsense():
    assert median(x * x for x in range(5)) == 4
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_median_matches_statistics():
    for samples in ([5, 1, 9], [5, 1, 9, 2], [2.5]):
        assert median(samples) == statistics.median(samples)


def test_quartiles_and_spread_are_the_drivers():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q2, q3)
    assert rel_spread(values) == pytest.approx((q3 - q1) / q2)


def test_rel_worsening_follows_the_metrics_direction():
    assert rel_worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert rel_worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert rel_worsening(100.0, 90.0, "higher") == pytest.approx(0.10)
    with pytest.raises(ValueError):
        rel_worsening(1.0, 2.0, "sideways")
