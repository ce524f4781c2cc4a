"""Power-family transform for skewed features.

The transform is Tukey's ladder of powers: raise each component to a fixed
exponent, with the natural log standing in at exponent zero.  Exponent one is
the identity and switches the transform off.  Features fed to any other rung
must be non-negative; zeros are shifted by a tiny epsilon before the log so
the zero-exponent rung stays finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Final

import numpy as np

from .errors import DataError, SpecError

#: What zeros are shifted to before the log rung at ``lam == 0``.
_LOG_EPSILON: Final = 1e-6


@dataclass(frozen=True)
class TukeyParams:
    """Exponent of the power ladder."""

    lam: float = 0.5

    def __post_init__(self) -> None:
        if not math.isfinite(self.lam):
            raise SpecError("transform exponent must be finite")


def tukey_transform(features, params: TukeyParams = TukeyParams()) -> np.ndarray:
    """Apply the ladder-of-powers transform elementwise.

    Accepts any array shape and returns float64.  ``lam == 1`` is "transform
    off": the float64 input comes back unchanged and unchecked, so negative
    features pass through.
    """
    x = np.asarray(features, dtype=np.float64)
    if params.lam == 1:
        return x
    if not np.isfinite(x).all():
        raise DataError("features must be finite before the power transform")
    if (x < 0).any():
        raise DataError("features must be non-negative for the power transform")
    with np.errstate(divide="ignore"):
        if params.lam == 0:
            out = np.log(np.where(x == 0, _LOG_EPSILON, x))
        else:
            out = x ** params.lam
    if not np.isfinite(out).all():
        raise DataError(
            f"power transform with exponent {params.lam} produced non-finite values"
        )
    return out
