"""Summary statistics of the benchmark's timings."""

from __future__ import annotations

import statistics


def cycle_median(unit_s, cycle: int) -> float:
    """Median wall time per unit.  Units at different positions of a cycle
    do different work (another scenario or target), so the median is taken
    per position and averaged over the cycle."""
    return statistics.mean(statistics.median(unit_s[i::cycle])
                           for i in range(cycle))


def traced_unit(k: int, cycle: int) -> bool:
    """Whether unit k of a traced run is traced.  Units alternate, and each
    position of the cycle swaps between traced and untraced from one cycle to
    the next, so that over two cycles both halves do the same work."""
    return (k // cycle + k % cycle) % 2 == 1


def tail_percentile(values, q: int = 90, beyond: int = 10) -> float | None:
    """The q-th percentile of values, or None when fewer than `beyond`
    samples would lie above it (n * (100 - q) / 100 < beyond)."""
    n = len(values)
    if n * (100 - q) < beyond * 100:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")
