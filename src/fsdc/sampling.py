"""Drawing synthetic features from calibrated Gaussians.

Sampling uses the Cholesky factor of each covariance: x = mean + L z with
standard normal z.  Factorization tolerates slightly indefinite matrices by
adding jitter to the diagonal in escalating powers of ten; the shift actually
used is reported back so callers can notice badly conditioned covariances.

Each (class, distribution) pair samples from its own derived random stream,
so the draw for one class never depends on how many other classes there are
or in which order they are processed.  A distribution's rows are drawn a
block at a time, straight into the output; the stream is position-based, so
the rows equal one draw of the whole count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Final

import numpy as np

from .errors import DataError, DimensionError, FactorizationError, SpecError
from .rng import PortableRng, derive_key

_DOM_SAMPLE: Final = 0x5A

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
    (0.0 when none was needed).  Raises FactorizationError when even the
    largest shift fails.

    This is the value check for calibrated covariances, which are built
    unchecked: it raises DataError for a matrix that is not finite or not
    symmetric to within rounding.  ``np.linalg.cholesky`` would not; it reads
    only the lower triangle and returns a NaN or inf factor for such input.
    """
    s = np.asarray(cov, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionError("covariance must be square")
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
    raise FactorizationError(
        f"covariance not factorizable even with diagonal shift {_JITTER * 10.0 ** (_JITTER_STEPS - 2):g}")


def sample_features(distributions, config: SamplerConfig, out=None):
    """Draw ``config.total_per_class`` features for every class.

    ``distributions`` maps label -> a list, or any sized iterable, of
    calibrated distributions, all of one dimension.  Each is read once, in
    order, and factored and drawn from before the next one is read, so an
    iterable that makes its distributions as they are read holds one at a
    time.  The per-class budget is split evenly across that class's
    distributions, with the first ``total mod count`` distributions
    receiving one extra draw.  Returns ``(features, labels)``: float64
    (n, dim) and int64 (n,), ordered by ascending label, then by
    distribution index.  The features are drawn into ``out`` when it is
    given, a C-contiguous float64 (n, dim) array that is returned as
    ``features``, else into a new array.  After an error the contents of
    ``out`` are unspecified.
    """
    if config.total_per_class < 1:
        raise SpecError("sampling needs total_per_class >= 1")
    if not distributions:
        raise SpecError("no distributions to sample from")
    labels = sorted(distributions)
    for label in labels:
        if not len(distributions[label]):
            raise SpecError(f"class {label} has no calibrated distributions")
    total = config.total_per_class
    n = total * len(labels)
    if out is not None and (out.ndim != 2 or out.shape[0] != n
                            or out.dtype != np.float64
                            or not out.flags.c_contiguous):
        raise DimensionError(
            f"out must be a C-contiguous float64 array of shape ({n}, dim)")
    out_labels = np.repeat(np.asarray(labels, dtype=np.int64), total)
    start = 0
    for label in labels:
        dists = distributions[label]
        share, extra = divmod(total, len(dists))
        reader = iter(dists)
        for j in range(len(dists)):
            count = share + (1 if j < extra else 0)
            # the distribution is passed straight through, so it and its
            # factor are freed before the next one is read
            out = _draw(next(reader), label, j, count, config.seed, out, n,
                        start)
            start += count
    return out, out_labels


def _draw(dist, label, j, count: int, seed: int, out, n: int, start: int):
    """Draw ``count`` rows of distribution ``j`` of class ``label`` into
    ``out[start:start + count]``; return ``out``, allocated as (n, dim) when
    it is None."""
    if out is None:
        out = np.empty((n, dist.dim))
    elif dist.dim != out.shape[1]:
        raise DimensionError(
            f"class {label}, distribution {j} has dim {dist.dim}, "
            f"expected {out.shape[1]}")
    if count == 0:
        return out
    try:
        factor, _ = cholesky_psd(dist.covariance)
    except FactorizationError as exc:
        raise FactorizationError(
            f"class {label}, distribution {j}: {exc}") from exc
    rng = PortableRng(derive_key(seed, _DOM_SAMPLE, int(label), j))
    step = max(2, _BLOCK_VALUES // dist.dim)
    stop = start + count
    while start < stop:
        end = start + step
        if end >= stop - 1:   # the last row joins this step
            end = stop
        rows = out[start:end]
        z = rng.normal(rows.size).reshape(rows.shape)
        np.matmul(z, factor.T, out=rows)
        rows += dist.mean
        start = end
    return out
