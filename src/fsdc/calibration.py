"""Transfer of base-class statistics to few-shot novel classes.

Each support feature x picks its k nearest base classes by squared euclidean
distance between x and the stored class means.  The calibrated distribution
then has

    mean       = (sum of neighbor means + x) / (k + 1)
    covariance = (sum of neighbor covariances) / k, plus a spread constant

The spread constant alpha is added to every element of the covariance.
One calibrated distribution is produced per support feature, so a class with
K shots contributes K distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InsufficientSamplesError, SpecError
from .features_io import Dataset
from .rng import PortableRng
from .stats import BaseStatsTable


@dataclass(frozen=True)
class CalibrationParams:
    """Knobs of the statistics transfer."""

    k: int = 2
    alpha: float = 0.21
    use_novel_feature: bool = True

    def __post_init__(self) -> None:
        if self.k < 1:
            raise SpecError("k must be at least 1")
        if not 0 <= self.alpha < math.inf:
            raise SpecError("alpha must be finite and non-negative")


@dataclass
class CalibratedDistribution:
    """A Gaussian transferred to one support feature.

    Construction checks shapes only.  The covariance's values (finite,
    symmetric) are checked by :func:`fsdc.sampling.cholesky_psd` when it is
    factored, which every reader of it does.
    """

    mean: np.ndarray
    covariance: np.ndarray
    source_support_index: int
    neighbor_class_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.covariance = np.asarray(self.covariance, dtype=np.float64)
        d = self.mean.shape[0]
        if self.covariance.shape != (d, d):
            raise DimensionError("covariance must be square and match the mean")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def nearest_base_classes(x, table: BaseStatsTable, k: int) -> list[int]:
    """The k base classes whose means are closest to ``x``.

    Distance is squared euclidean; exact ties break toward the smaller class
    id, so the result never depends on table iteration order.
    """
    xv = np.asarray(x, dtype=np.float64)
    if xv.shape != (table.dim,):
        raise DimensionError(f"feature has shape {xv.shape}, table dim is {table.dim}")
    if k < 1:
        raise SpecError("k must be at least 1")
    if k > len(table):
        raise SpecError(f"k={k} exceeds the {len(table)} classes in the table")
    diffs = table.mean_matrix - xv
    dists = np.einsum("ij,ij->i", diffs, diffs)
    order = np.lexsort((table.id_array, dists))
    return [int(table.id_array[i]) for i in order[:k]]


def calibrate(x, table: BaseStatsTable, params: CalibrationParams,
              source_index: int = -1) -> CalibratedDistribution:
    """Calibrate a single support feature against the base statistics."""
    neighbors = nearest_base_classes(x, table, params.k)
    xv = np.asarray(x, dtype=np.float64)
    mean_sum = np.zeros(table.dim)
    cov_sum = np.zeros((table.dim, table.dim))
    for cid in neighbors:
        entry = table.entry(cid)
        mean_sum += entry.mean
        cov_sum += entry.covariance
    if params.use_novel_feature:
        mean = (mean_sum + xv) / (params.k + 1)
    else:
        mean = mean_sum / params.k
    cov = cov_sum / params.k + params.alpha
    return CalibratedDistribution(mean=mean, covariance=cov,
                                 source_support_index=source_index,
                                 neighbor_class_ids=tuple(neighbors))


def calibrate_support_set(support_x, support_y, table: BaseStatsTable,
                          params: CalibrationParams):
    """Calibrate every support feature; group the results by label.

    ``support_x`` is (n, dim), ``support_y`` the matching labels.  Returns a
    dict mapping each label to the list of distributions calibrated from its
    support features, in support order.  ``source_support_index`` records the
    row each distribution came from.
    """
    xs = np.asarray(support_x, dtype=np.float64)
    ys = np.asarray(support_y)
    if xs.ndim != 2:
        raise DimensionError("support features must be 2-D")
    if ys.shape != (xs.shape[0],):
        raise DimensionError("support labels must match support features")
    out: dict[int, list[CalibratedDistribution]] = {}
    for i in range(xs.shape[0]):
        dist = calibrate(xs[i], table, params, source_index=i)
        out.setdefault(int(ys[i]), []).append(dist)
    return out


def retrieve_nearest_class_features(x, ds: Dataset, table: BaseStatsTable,
                                    m: int, rng: PortableRng) -> np.ndarray:
    """Draw ``m`` raw features from the base class nearest to ``x``.

    The class is chosen by the same nearest-mean rule as calibration; the
    rows are sampled without replacement using ``rng``.  Returns (m, dim)
    float64.
    """
    if m < 1:
        raise SpecError("m must be at least 1")
    nearest = nearest_base_classes(x, table, 1)[0]
    rows = ds.rows_for(nearest)
    if rows.size < m:
        raise InsufficientSamplesError(
            f"class {nearest} has {rows.size} records, cannot retrieve {m}")
    picked = rng.permutation_prefix(rows.size, m)
    return ds.values[rows[np.asarray(picked)]].astype(np.float64)
