"""Summary statistics shared by the benchmark runner and the steadiness command."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def tail_percentile(n: int) -> float:
    """Highest percentile of n samples with at least MIN_BEYOND samples beyond it.

    Under linear interpolation (NumPy's default) that is the sample with
    MIN_BEYOND larger ones, at percentile 100 (n - MIN_BEYOND - 1) / (n - 1).
    No percentile qualifies when n <= MIN_BEYOND; the median is reported then,
    with the sample count.
    """
    if n <= MIN_BEYOND:
        return 50.0
    return 100.0 * (n - MIN_BEYOND - 1) / (n - 1)


def tail(values: Sequence[float]) -> tuple[float, float, int]:
    """(percentile, value at it, samples beyond it) under the tail rule."""
    n = len(values)
    p = tail_percentile(n)
    # the sample itself, rather than an interpolation that rounding could move
    value = sorted(values)[n - MIN_BEYOND - 1] if n > MIN_BEYOND else statistics.median(values)
    beyond = sum(1 for v in values if v > value)
    return p, value, beyond


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf
