"""Summary statistics shared by the runner and the compare tool."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

#: A percentile is only reported when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-th percentile, or ``None`` when it is not supported.

    The percentile is the smallest sample with at least ``q`` percent of the
    samples at or below it.  It is reported only when at least
    :data:`MIN_BEYOND` samples rank above it; otherwise the tail is too thin
    to say anything and the caller must fall back to a lower percentile.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"q must lie in (0, 100), got {q!r}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def median_quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(median, first quartile, third quartile)`` as ``statistics.quantiles``
    gives them; a single value is its own quartiles."""
    values = list(values)
    if not values:
        raise ValueError("no values to summarise")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    median, q1, q3 = median_quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf
