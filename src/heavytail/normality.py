"""Anderson-Darling test of composite normality.

Statistic with estimated mean and variance, small-sample adjusted by the
factor ``1 + 0.75/N + 2.25/N^2``; p-values use the piecewise exponential
approximation of D'Agostino & Stephens (the same one R's ``nortest``
package uses).  Heavier tails push the statistic up monotonically.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .distributions import sp
from .exceptions import DataError

__all__ = ["NormalityResult", "anderson_darling"]


class NormalityResult(NamedTuple):
    statistic: float
    p_value: float


def _p_value(a2: float) -> float:
    if a2 < 0.2:
        return 1.0 - np.exp(-13.436 + 101.14 * a2 - 223.73 * a2 * a2)
    if a2 < 0.34:
        return 1.0 - np.exp(-8.318 + 42.796 * a2 - 59.938 * a2 * a2)
    if a2 < 0.6:
        return float(np.exp(0.9177 - 4.279 * a2 - 1.38 * a2 * a2))
    if a2 <= 13.0:
        return float(np.exp(1.2937 - 5.709 * a2 + 0.0186 * a2 * a2))
    return 0.0  # beyond the approximation's range; p < 5e-31


def anderson_darling(series) -> NormalityResult:
    """Test a series for normality with unknown mean and variance.

    Returns the small-sample-adjusted statistic and its approximate
    p-value.  Requires at least 8 observations and a nonzero, finite
    sample variance.
    """
    x = np.asarray(series, dtype=float).ravel()
    if x.size < 8:
        raise DataError(f"normality test needs at least 8 values, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise DataError("normality test requires finite data")
    with np.errstate(over="ignore", invalid="ignore"):
        sd = x.std(ddof=1)
    if sd == 0.0:
        raise DataError("normality test undefined for constant data")
    if not np.isfinite(sd):
        raise DataError(f"normality test needs a finite sample scale, got sd = {sd}")

    n = x.size
    w = np.sort((x - x.mean()) / sd)
    # Clamp cdf values away from {0, 1}: extreme outliers would otherwise
    # produce log(0) and an infinite statistic.
    z = np.clip(sp.ndtr(w), 1e-300, 1.0 - 1e-16)
    i = np.arange(1, n + 1)
    s = np.sum((2.0 * i - 1.0) * (np.log(z) + np.log1p(-z[::-1]))) / n
    a2 = -n - s
    a2_adjusted = a2 * (1.0 + 0.75 / n + 2.25 / n**2)
    p = min(max(_p_value(float(a2_adjusted)), 0.0), 1.0)
    return NormalityResult(float(a2_adjusted), float(p))
