"""Order statistics for the benchmark's reports.

Percentiles use the nearest-rank rule: the p-th percentile of n sorted
samples is the sample at rank ceil(p * n / 100), so every reported value
is one that was actually measured.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

# percentiles the tail rule may report, lowest first
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(n=4)`` gives
    them; a single sample is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def rank(p: float, n: int) -> int:
    """1-based nearest rank of the p-th percentile among n samples."""
    if n < 1:
        raise ValueError("no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must lie in (0, 100], got {p}")
    return max(1, math.ceil(p * n / 100))


def percentile(values: Sequence[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[rank(p, len(ordered)) - 1]


def tail_percentile(values: Sequence[float]) -> Optional[tuple[float, float]]:
    """(p, value) for the highest ladder percentile that leaves at least
    TAIL_MIN_BEYOND samples above its rank; None when even the median
    leaves fewer."""
    n = len(values)
    best = None
    for p in TAIL_LADDER:
        if n and n - rank(p, n) >= TAIL_MIN_BEYOND:
            best = p
    if best is None:
        return None
    return best, percentile(values, best)
