import pytest

from perfbench import stats


@pytest.mark.parametrize(
    "n, expected",
    [
        (1000, 100.0 * 989 / 999),
        (200, 100.0 * 189 / 199),
        (11, 0.0),  # the minimum still has 10 samples beyond it
        (10, 50.0),  # nothing qualifies: falls back to the median
    ],
)
def test_tail_percentile_rule(n, expected):
    assert stats.tail_percentile(n) == pytest.approx(expected)


@pytest.mark.parametrize("n", [11, 57, 500, 3001])
def test_tail_leaves_exactly_ten_samples_beyond(n):
    values = [float(v) for v in range(n)]
    p, value, beyond = stats.tail(values)
    assert beyond == 10
    assert value == n - 11
    assert p == pytest.approx(100.0 * value / (n - 1))  # the sample's own linear-interpolation percentile


def test_tail_falls_back_to_the_median_of_small_samples():
    assert stats.tail([4.0, 1.0, 3.0, 2.0]) == (50.0, 2.5, 2)


def test_relative_spread_uses_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, med, q3 = stats.quartiles(values)
    assert stats.relative_spread(values) == pytest.approx((q3 - q1) / med)
