"""Small statistics shared by the benchmark driver and its workers."""
from __future__ import annotations

import statistics

MIN_BEYOND = 10


def tail(samples) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.

    That is the eleventh-largest sample, at rank n - 10 of n.  With fewer
    than 21 samples it would not lie above the median, so the maximum is
    returned instead, labelled "max".
    """
    s = sorted(samples)
    n = len(s)
    if n == 0:
        raise ValueError("no samples")
    if n <= 2 * MIN_BEYOND:
        return s[-1], "max"
    return s[n - MIN_BEYOND - 1], f"p{100.0 * (n - MIN_BEYOND) / n:.4g}"


def median(values) -> float:
    return float(statistics.median(values))

