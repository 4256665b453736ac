"""Order statistics for the benchmark's latency samples."""

from __future__ import annotations

import math
from typing import Sequence

# A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile, 0 <= q <= 100, interpolating between closest ranks."""
    if not values:
        raise ValueError("need at least one sample")
    if not 0 <= q <= 100:
        raise ValueError("q must lie in [0, 100]")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def min_samples(q: int) -> int:
    """Fewest samples that leave MIN_TAIL of them beyond the integer q-th percentile."""
    if not 0 <= q < 100:
        raise ValueError("q must be an integer in [0, 100)")
    return math.ceil(MIN_TAIL * 100 / (100 - q))

