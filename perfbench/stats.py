"""Order statistics the benchmark reports: medians, percentiles, spreads."""

from __future__ import annotations

import statistics


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    closest ranks; raises ``ValueError`` on an empty sample."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(samples) -> float:
    return percentile(samples, 50.0)


def quartiles(samples) -> tuple[float, float, float]:
    """``(q1, median, q3)`` exactly as the driver computes them
    (``statistics.quantiles(values, n=4)``)."""
    q1, q2, q3 = statistics.quantiles(list(samples), n=4)
    return q1, q2, q3


def rel_spread(samples) -> float:
    """Interquartile range as a share of the median: the steadiness
    figure each end-to-end metric must keep under its bound."""
    q1, q2, q3 = quartiles(samples)
    return (q3 - q1) / abs(q2)


def rel_worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first`` as a share of
    ``first`` (negative when it is better), for a metric whose good
    direction is ``better`` (``"lower"`` or ``"higher"``)."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    change = (second - first) / abs(first)
    return change if better == "lower" else -change
