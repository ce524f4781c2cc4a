"""Power-family transform for skewed features, plus sample skewness.

The transform is Tukey's ladder of powers: raise each component to a fixed
exponent, with the natural log standing in at exponent zero.  Features fed to
it must be non-negative; zeros are shifted by a tiny epsilon before the log so
the zero-exponent rung stays finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, SpecError, UndefinedStatisticError


@dataclass(frozen=True)
class TukeyParams:
    """Exponent of the power ladder and the zero shift used at ``lam == 0``."""

    lam: float = 0.5
    log_epsilon: float = 1e-6

    def __post_init__(self) -> None:
        if not math.isfinite(self.lam):
            raise SpecError("transform exponent must be finite")
        if not 0 < self.log_epsilon < math.inf:
            raise SpecError("log_epsilon must be finite and positive")


def tukey_transform(features, params: TukeyParams = TukeyParams()) -> np.ndarray:
    """Apply the ladder-of-powers transform elementwise.

    Accepts any array shape and returns float64.  ``lam == 1`` reproduces the
    input exactly (in float64), so "transform off" and "exponent one" are the
    same thing.
    """
    x = np.asarray(features, dtype=np.float64)
    if not np.isfinite(x).all():
        raise DataError("features must be finite before the power transform")
    if (x < 0).any():
        raise DataError("features must be non-negative for the power transform")
    with np.errstate(divide="ignore"):
        if params.lam == 0:
            out = np.log(np.where(x == 0, params.log_epsilon, x))
        else:
            out = x ** params.lam
    if not np.isfinite(out).all():
        raise DataError(
            f"power transform with exponent {params.lam} produced non-finite values"
        )
    return out


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
        raise UndefinedStatisticError("skewness is undefined for a zero-variance sample")
    g1 = np.mean(centered ** 3) / m2 ** 1.5
    return float(g1 * math.sqrt(n * (n - 1)) / (n - 2))
