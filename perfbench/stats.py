"""Order statistics the benchmark reports.

Kept free of any ``repro`` import so the harness tests run without the
library on the path.
"""

from __future__ import annotations

import math
import statistics

#: percentiles considered for a tail figure, lowest first
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: samples that must lie beyond a percentile before it is reported
MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def _rank(pct: float, count: int) -> int:
    # the epsilon keeps 99.9% of 10000 at rank 9990, not 9991
    return max(1, math.ceil(pct * count / 100.0 - 1e-9))


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return float(ordered[_rank(pct, len(ordered)) - 1])


def tail(values, min_beyond: int = MIN_BEYOND):
    """The highest ladder percentile with ``min_beyond`` samples beyond it.

    Returns ``(pct, value)``, or ``None`` when even the median has fewer
    than ``min_beyond`` samples above it (fewer than ``2 * min_beyond``
    samples in all).  "Beyond" counts the samples ranked after the
    percentile's nearest-rank position.
    """
    count = len(values)
    best = None
    for pct in TAIL_LADDER:
        if count - _rank(pct, count) >= min_beyond:
            best = (pct, percentile(values, pct))
    return best

