"""Order statistics shared by the generator and the daemon."""

from __future__ import annotations

import math

#: percentiles a tail figure may be reported at.  A rung needs
#: 10 / (1 - q) samples.  A p90 rung would sit on just 10 samples at the
#: open-loop fleet workloads' 96; they report p75, 24 samples beyond it.
LADDER = (50.0, 75.0, 95.0, 99.0, 99.9, 99.99)
#: samples a tail percentile must leave beyond it
BEYOND = 10


def _rank(q: float, n: int) -> int:
    """Nearest rank of percentile ``q`` among ``n`` samples (1-based)."""
    return max(1, math.ceil(q / 100.0 * n - 1e-9))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (0.0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[_rank(q, len(ordered)) - 1])


def p50(values) -> float:
    return percentile(values, 50.0)


def mean(values) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def tail_pct(n: int) -> float:
    """The highest ladder percentile leaving at least ``BEYOND`` of n samples
    beyond it; 100 (the maximum) when even the median leaves fewer."""
    best = 100.0
    for q in LADDER:
        if n - _rank(q, n) >= BEYOND:
            best = q
    return best


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the tail figure for ``values``."""
    q = tail_pct(len(values))
    return percentile(values, q), q
