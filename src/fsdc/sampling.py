"""Drawing synthetic features from calibrated Gaussians.

Sampling uses the Cholesky factor of each covariance: x = mean + L z with
standard normal z.  Factorization tolerates slightly indefinite matrices by
adding jitter to the diagonal in escalating powers of ten; the shift actually
used is reported back so callers can notice badly conditioned covariances.

Each (class, distribution) pair samples from its own derived random stream,
so the draw for one class never depends on how many other classes there are
or in which order they are processed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Final

import numpy as np

from .errors import DataError, DimensionError, FactorizationError, SpecError
from .rng import PortableRng, derive_key

_DOM_SAMPLE: Final = 0x5A

#: Escalation ladder: no shift first, then jitter * 10^t for t = 0..6.
_JITTER_STEPS: Final = 8


@dataclass(frozen=True)
class SamplerConfig:
    """How many features to draw per class and from which stream."""

    total_per_class: int = 750
    seed: int = 0
    jitter: float = 1e-6

    def __post_init__(self) -> None:
        if self.total_per_class < 0:
            raise SpecError("total_per_class must be non-negative")
        if not 0 < self.jitter < math.inf:
            raise SpecError("jitter must be finite and positive")


def cholesky_psd(cov, jitter: float = 1e-6):
    """Cholesky factor of a symmetric matrix that may be barely indefinite.

    Tries the matrix as-is, then with c = jitter * 10^t added to the diagonal
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
    if not 0 < jitter < math.inf:
        raise SpecError("jitter must be finite and positive")
    shift = 0.0
    for attempt in range(_JITTER_STEPS):
        try:
            # the first attempt factors s itself; only a retry copies it
            shifted = s + shift * np.eye(s.shape[0]) if shift else s
            return np.linalg.cholesky(shifted), shift
        except np.linalg.LinAlgError:
            shift = jitter * 10.0 ** attempt
    raise FactorizationError(
        f"covariance not factorizable even with diagonal shift {jitter * 10.0 ** (_JITTER_STEPS - 2):g}")


def sample_features(distributions, config: SamplerConfig):
    """Draw ``config.total_per_class`` features for every class.

    ``distributions`` maps label -> list of calibrated distributions.  The
    per-class budget is split evenly across that class's distributions, with
    the first ``total mod count`` distributions receiving one extra draw.
    Returns ``(features, labels)``: float64 (n, dim) and int64 (n,), ordered
    by ascending label, then by distribution index.
    """
    if config.total_per_class < 1:
        raise SpecError("sampling needs total_per_class >= 1")
    if not distributions:
        raise SpecError("no distributions to sample from")
    feature_blocks = []
    label_blocks = []
    for label in sorted(distributions):
        dists = distributions[label]
        if not dists:
            raise SpecError(f"class {label} has no calibrated distributions")
        share, extra = divmod(config.total_per_class, len(dists))
        for j, dist in enumerate(dists):
            count = share + (1 if j < extra else 0)
            if count == 0:
                continue
            try:
                factor, _ = cholesky_psd(dist.covariance, config.jitter)
            except FactorizationError as exc:
                raise FactorizationError(
                    f"class {label}, distribution {j}: {exc}") from exc
            rng = PortableRng(derive_key(config.seed, _DOM_SAMPLE, int(label), j))
            z = rng.normal(count * dist.dim).reshape(count, dist.dim)
            feature_blocks.append(dist.mean + z @ factor.T)
            label_blocks.append(np.full(count, int(label), dtype=np.int64))
    return np.concatenate(feature_blocks), np.concatenate(label_blocks)
