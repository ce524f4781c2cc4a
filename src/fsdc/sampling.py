"""Drawing synthetic features from calibrated Gaussians.

Sampling uses the Cholesky factor of each covariance: x = mean + L z with
standard normal z.  Factorization tolerates slightly indefinite matrices by
adding jitter to the diagonal in escalating powers of ten; the shift actually
used is reported back so callers can notice badly conditioned covariances.

Each call draws from one distribution and the stream it is given; which
stream, how many rows and where they go are decided by the caller (the
harness keys a stream per class and support row).  The rows are drawn a
block at a time, straight into the output; the stream is position-based, so
the rows equal one draw of the whole count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Final

import numpy as np

from .errors import DataError, SpecError
from .rng import PortableRng

#: First diagonal shift tried when a covariance does not factorize.
_JITTER: Final = 1e-6
#: Escalation ladder: no shift first, then _JITTER * 10^t for t = 0..6.
_JITTER_STEPS: Final = 8
#: Values drawn per step, whatever the dimension: 102 rows at d=640, and a
#: whole class of 750 at d=16, where a step's fixed cost would dominate.  A
#: one-row product goes through gemv, which rounds differently from gemm,
#: so no step is left with a single row.
_BLOCK_VALUES: Final = 1 << 16


@dataclass(frozen=True)
class SamplerConfig:
    """How many features to draw per class and from which stream."""

    total_per_class: int = 750
    seed: int = 0

    def __post_init__(self) -> None:
        if self.total_per_class < 0:
            raise SpecError("total_per_class must be non-negative")


def cholesky_psd(cov):
    """Cholesky factor of a symmetric matrix that may be barely indefinite.

    Tries the matrix as-is, then with c = 1e-6 * 10^t added to the diagonal
    for t = 0..6.  Returns ``(L, c)`` where c is the shift that succeeded
    (0.0 when none was needed).  Raises DataError for a matrix that is not
    square, or when even the largest shift fails.

    This is the value check for calibrated covariances, which are built
    unchecked: it also raises DataError for a matrix that is not finite or
    not symmetric to within rounding.  ``np.linalg.cholesky`` would not; it
    reads only the lower triangle and returns a NaN or inf factor for such
    input.
    """
    s = np.asarray(cov, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DataError("covariance must be square")
    if not np.isfinite(s).all():
        raise DataError("covariance must be finite")
    # the exact comparison settles the usual, exactly symmetric case at a
    # fraction of the cost of allclose
    if not (np.array_equal(s, s.T)
            or np.allclose(s, s.T, rtol=1e-10, atol=1e-12)):
        raise DataError("covariance must be symmetric")
    shift = 0.0
    for attempt in range(_JITTER_STEPS):
        try:
            # the first attempt factors s itself; only a retry copies it
            shifted = s + shift * np.eye(s.shape[0]) if shift else s
            return np.linalg.cholesky(shifted), shift
        except np.linalg.LinAlgError:
            shift = _JITTER * 10.0 ** attempt
    raise DataError(
        f"covariance not factorizable even with diagonal shift {_JITTER * 10.0 ** (_JITTER_STEPS - 2):g}")


def sample_features(dist, count: int, rng: PortableRng, out=None):
    """Draw ``count`` features from one calibrated distribution.

    Returns ``(features, shift)``: float64 (count, dim) rows drawn from
    ``rng``, and the diagonal shift :func:`cholesky_psd` needed to factor
    the covariance.  The rows are drawn into ``out`` when it is given, a
    C-contiguous float64 (count, dim) array that is returned as
    ``features``, else into a new array; a wrong ``out`` is refused before
    the covariance is factored, as is a ``count`` below 1.  After an error
    the contents of ``out`` are unspecified.
    """
    if count < 1:
        raise SpecError("count must be at least 1")
    if out is None:
        out = np.empty((count, dist.dim))
    elif (out.shape != (count, dist.dim) or out.dtype != np.float64
          or not out.flags.c_contiguous):
        raise DataError(
            f"out must be a C-contiguous float64 array of shape "
            f"({count}, {dist.dim})")
    factor, shift = cholesky_psd(dist.covariance)
    step = max(2, _BLOCK_VALUES // dist.dim)
    start = 0
    while start < count:
        end = start + step
        if end >= count - 1:   # the last row joins this step
            end = count
        rows = out[start:end]
        z = rng.normal(rows.size).reshape(rows.shape)
        np.matmul(z, factor.T, out=rows)
        rows += dist.mean
        start = end
    return out, shift
