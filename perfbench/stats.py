"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import math

# percentiles a timing report may name, lowest first
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10


def samples_beyond(n, pct):
    """Samples of ``n`` that lie above the ``pct`` percentile."""
    return math.floor(n * (100.0 - pct) / 100.0 + 1e-9)


def tail_percentile(n):
    """The highest of PERCENTILES with at least MIN_BEYOND samples beyond it.

    None when even the median has fewer than MIN_BEYOND samples above it.
    """
    allowed = [p for p in PERCENTILES if samples_beyond(n, p) >= MIN_BEYOND]
    return allowed[-1] if allowed else None


def percentile(values, pct):
    """Linear interpolation between closest ranks (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if ordered[hi] == ordered[lo]:
        return ordered[lo]  # keeps exact counts exact
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50.0)


def timing_summary(values, wanted=(50.0, 90.0)):
    """Percentiles of a timing sample, refusing any the sample cannot support.

    Returns {"n": count, "tail_pct": highest supported percentile, "p50": ...,
    "p90": ...}.  Raises ValueError when a wanted percentile has fewer than
    MIN_BEYOND samples beyond it.
    """
    n = len(values)
    tail = tail_percentile(n)
    for pct in wanted:
        if tail is None or pct > tail:
            raise ValueError(
                f"p{pct:g} needs {MIN_BEYOND} samples beyond it; only {n} samples"
            )
    out = {"n": n, "tail_pct": tail}
    for pct in wanted:
        out[f"p{pct:g}"] = percentile(values, pct)
    return out
