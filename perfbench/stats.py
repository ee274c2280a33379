"""Statistics helpers of the benchmark: median, quartiles, and a tail
percentile that is reported only when the sample supports it."""

import math
import statistics

# A percentile is reported only when at least this many samples lie
# beyond it; below that, the tail is one or two unlucky samples.
MIN_BEYOND = 10


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """First quartile, median and third quartile, as
    `statistics.quantiles(values, n=4)` computes them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def percentile(values, q):
    """Nearest-rank percentile `q` (0 < q < 1) of `values`, or `None`
    when fewer than `MIN_BEYOND` samples lie beyond it."""
    if not 0 < q < 1:
        raise ValueError("percentile level must lie strictly between 0 and 1")
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))  # 1-based nearest rank
    if n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]
