"""Binomial confidence intervals for the ensemble frequencies.  The
estimator-panel diagnostics are in ``estimators``."""
from __future__ import annotations

import math

__all__ = ["wilson_interval"]


def wilson_interval(successes: int, trials: int, z: float = 1.96):
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (0 <= successes <= trials):
        raise ValueError("successes out of range")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials
                                   + z * z / (4 * trials * trials))
    # the exact endpoints at 0 and N successes are 0 and 1; computed, they
    # can round to just inside and exclude the observed frequency
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi
