"""The benchmark's own arithmetic: percentiles, spreads, time to accuracy and normalised time."""

from __future__ import annotations

import math
import statistics

from reference import REF_NOMINAL_S

# a percentile is reported only when at least this many samples lie beyond it
TAIL_SAMPLES = 10
# relative standard error that mc_s_at_1pct scales every estimator to
TARGET_REL_SE = 0.01


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def tail_percentile(n: int) -> float | None:
    """p99 or p90, whichever is highest with at least TAIL_SAMPLES of n samples beyond it."""
    for p in (99.0, 90.0):
        if n * (100.0 - p) / 100.0 >= TAIL_SAMPLES:
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (the smallest value with at least p% of samples at or below it)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    return float(xs[rank - 1])


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median with statistics.quantiles(values, n=4)."""
    q1, q2, q3 = statistics.quantiles(list(values), n=4)
    return (q3 - q1) / q2


def seconds_at_target(op_seconds: float, rel_se: float | None) -> float:
    """Seconds an op would need for TARGET_REL_SE at 1/sqrt(n) scaling.

    rel_se is std_error / |mean| of a Monte Carlo op.  A deterministic op
    (rel_se None) already meets the target and counts its own time.
    """
    if rel_se is None:
        return op_seconds
    return op_seconds * (rel_se / TARGET_REL_SE) ** 2


def normalised(seconds: float, ref_before: float, ref_after: float) -> float:
    """seconds at the host speed at which the reference kernel takes REF_NOMINAL_S.

    ref_before and ref_after are the kernel's times just before and just
    after the timed work; their mean stands for the host speed during it.
    """
    return seconds * REF_NOMINAL_S / (0.5 * (ref_before + ref_after))
