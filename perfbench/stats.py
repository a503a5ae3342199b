"""Order statistics shared by the benchmark, the report and the compare tool."""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, highest first. The ladder stops at p95: on a
# shared two-core host, p99 of 1600 epochs tracked brief host slowdowns,
# and its spread over ten seeds reached 0.43 of its median.
TAIL_LADDER = (95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def tail(samples) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it. Below twenty samples no ladder percentile has that
    many, and the tail is the maximum, reported as percentile 100."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_LADDER:
        # Nearest rank: the smallest sample with pct% of them at or below it.
        rank = max(1, math.ceil(pct * n / 100.0 - 1e-9))
        if n - rank >= TAIL_MIN_BEYOND:
            return pct, float(ordered[rank - 1])
    return 100.0, float(ordered[-1])
