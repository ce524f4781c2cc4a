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

from .errors import DataError, SpecError
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

    Construction checks shapes only.  The covariance's one reader,
    :func:`fsdc.sampling.sample_features`, factors it with
    :func:`fsdc.sampling.cholesky_psd`, which checks its values (finite,
    symmetric).
    """

    mean: np.ndarray
    covariance: np.ndarray
    neighbor_class_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.covariance = np.asarray(self.covariance, dtype=np.float64)
        d = self.mean.shape[0]
        if self.covariance.shape != (d, d):
            raise DataError("covariance must be square and match the mean")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def _nearest_rows(x, table: BaseStatsTable, k: int) -> np.ndarray:
    """Table rows of the k base classes whose means are closest to ``x``,
    nearest first.

    Distance is squared euclidean; exact ties break toward the smaller class
    id, so the result never depends on table order.
    """
    xv = np.asarray(x, dtype=np.float64)
    if xv.shape != (table.dim,):
        raise DataError(f"feature has shape {xv.shape}, table dim is {table.dim}")
    if k > len(table):
        raise SpecError(f"k={k} exceeds the {len(table)} classes in the table")
    diffs = table.mean_matrix - xv
    dists = np.einsum("ij,ij->i", diffs, diffs)
    return np.lexsort((table.id_array, dists))[:k]


def calibrate(x, table: BaseStatsTable,
              params: CalibrationParams) -> CalibratedDistribution:
    """Calibrate a single support feature against the base statistics.

    The neighbors' covariances are summed as packed lower triangles, element
    by element in neighbor order, and the result is expanded once into the
    full matrix.  Every base covariance is exactly symmetric, so this equals
    summing the full matrices bit for bit.
    """
    rows = _nearest_rows(x, table, params.k)
    xv = np.asarray(x, dtype=np.float64)
    mean_sum = np.zeros(table.dim)
    cov_sum = np.zeros(table.packed_covariances.shape[1])
    for row in rows:
        mean_sum += table.mean_matrix[row]
        cov_sum += table.packed_covariances[row]
    if params.use_novel_feature:
        mean = (mean_sum + xv) / (params.k + 1)
    else:
        mean = mean_sum / params.k
    # in place: the same rounding as cov_sum / k + alpha, without two more
    # temporaries
    cov_sum /= params.k
    cov_sum += params.alpha
    return CalibratedDistribution(mean=mean,
                                  covariance=np.take(cov_sum, table.gather_map),
                                  neighbor_class_ids=tuple(
                                      int(table.id_array[row]) for row in rows))


def calibrate_support_set(support_x, support_y, table: BaseStatsTable,
                          params: CalibrationParams):
    """Calibrate every support feature; group the results by label.

    ``support_x`` is (n, dim), ``support_y`` the matching labels.  Returns a
    dict mapping each label to the list of distributions calibrated from its
    support features, in support order.
    """
    xs = np.asarray(support_x, dtype=np.float64)
    ys = np.asarray(support_y)
    if xs.ndim != 2:
        raise DataError("support features must be 2-D")
    if ys.shape != (xs.shape[0],):
        raise DataError("support labels must match support features")
    out: dict[int, list[CalibratedDistribution]] = {}
    for i in range(xs.shape[0]):
        out.setdefault(int(ys[i]), []).append(calibrate(xs[i], table, params))
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
    nearest = int(table.id_array[_nearest_rows(x, table, 1)[0]])
    rows = ds.rows_for(nearest)
    if rows.size < m:
        raise DataError(
            f"class {nearest} has {rows.size} records, cannot retrieve {m}")
    picked = rng.permutation_prefix(rows.size, m)
    return ds.values[rows[np.asarray(picked)]].astype(np.float64)
