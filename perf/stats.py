"""Order statistics used by the benchmark and by compare.py."""

from __future__ import annotations

import math
import statistics


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of ``values``.

    The smallest sample with at least ``q`` percent of the samples at or
    below it, so the result is always one of the measured values.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    rank = math.ceil(q / 100 * len(ordered))
    return ordered[max(rank, 1) - 1]


def median(values) -> float:
    return statistics.median(values)


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the
    median (``statistics.quantiles(values, n=4)``, exclusive method)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def geomean(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("geometric mean of an empty sample")
    return math.exp(sum(math.log(v) for v in values) / len(values))
