"""Sample skewness, the yardstick the tests hold the power transform to."""

import math

import numpy as np

from fsdc.errors import DataError, SpecError


def sample_skewness(values) -> float:
    """Adjusted Fisher-Pearson skewness G1 of a 1-D sample.

    G1 = g1 * sqrt(n(n-1)) / (n-2) with g1 = m3 / m2^1.5, where m2 and m3 are
    the biased central moments.  Needs at least three values and nonzero
    variance.
    """
    x = np.asarray(values, dtype=np.float64).reshape(-1)
    n = x.size
    if n < 3:
        raise SpecError("skewness needs at least 3 values")
    if not np.isfinite(x).all():
        raise DataError("skewness input must be finite")
    centered = x - x.mean()
    m2 = np.mean(centered ** 2)
    if m2 == 0:
        raise DataError("skewness is undefined for a zero-variance sample")
    g1 = np.mean(centered ** 3) / m2 ** 1.5
    return float(g1 * math.sqrt(n * (n - 1)) / (n - 2))
