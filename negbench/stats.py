"""Order statistics used by the benchmark: nearest-rank percentiles and the
tail rule (the highest percentile with at least ten samples beyond it)."""

from __future__ import annotations

import math
from typing import Sequence, Tuple

TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    return n - max(1, math.ceil(p / 100 * n))


def tail(values: Sequence[float]) -> Tuple[str, float]:
    """(label, value) of the highest percentile in TAIL_PERCENTILES that
    leaves at least MIN_BEYOND samples above it.  With too few samples for
    any of them the maximum is reported, labelled "max"."""
    for p in TAIL_PERCENTILES:
        if samples_beyond(len(values), p) >= MIN_BEYOND:
            return f"p{p:g}", percentile(values, p)
    return "max", max(values)

