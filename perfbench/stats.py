"""Summary statistics shared by the benchmark and its self-test."""

from __future__ import annotations

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def tail(samples) -> tuple[float, float, int]:
    """Highest percentile with at least ``TAIL_BEYOND`` samples above it.

    Nearest rank: the sample of rank ``n - TAIL_BEYOND`` (1-based, ascending)
    has exactly ``TAIL_BEYOND`` samples ranked above it, and is the
    ``100 (n - TAIL_BEYOND) / n``-th percentile.  Returns
    ``(value, percentile, samples beyond)``.  With ``n <= TAIL_BEYOND`` no
    percentile qualifies; the maximum is returned as the 100th percentile
    with zero samples beyond, and callers report that count.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    rank = n - TAIL_BEYOND
    return xs[rank - 1], 100.0 * rank / n, TAIL_BEYOND
