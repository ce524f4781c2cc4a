"""Per-class feature statistics: means, unbiased covariances, and the table
of base-class statistics that calibration borrows from.

The covariance is the standard unbiased estimator

    cov = (1 / (n - 1)) * sum_j (x_j - mean) (x_j - mean)^T

computed in float64 and symmetrized exactly (averaged with its transpose), so
``cov == cov.T`` holds bitwise.  The base table is built from the untransformed
base features of the dataset being evaluated, every time it is needed; it is
never stored, so it cannot come from another dataset or feature space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DataError, DimensionError, EmptyClassError,
                     InsufficientSamplesError, MissingClassError,
                     UndefinedStatisticError)
from .features_io import Dataset, SplitManifest


def class_mean(features) -> np.ndarray:
    """Mean feature vector of one class, float64."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError("features must be a 2-D array (samples x dim)")
    if x.shape[0] == 0:
        raise EmptyClassError("cannot take the mean of zero samples")
    return x.mean(axis=0)


def class_covariance(features, mean=None) -> np.ndarray:
    """Unbiased sample covariance of one class, float64, exactly symmetric."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError("features must be a 2-D array (samples x dim)")
    n = x.shape[0]
    if n < 2:
        raise InsufficientSamplesError(
            f"covariance needs at least 2 samples, got {n}")
    mu = class_mean(x) if mean is None else np.asarray(mean, dtype=np.float64)
    if mu.shape != (x.shape[1],):
        raise DimensionError("mean has the wrong dimensionality")
    centered = x - mu
    cov = centered.T @ centered / (n - 1)
    return (cov + cov.T) / 2.0


@dataclass
class ClassStatistics:
    """Mean, covariance, and sample count of a single class."""

    class_id: int
    mean: np.ndarray
    covariance: np.ndarray
    count: int

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.covariance = np.asarray(self.covariance, dtype=np.float64)
        d = self.mean.shape[0]
        if self.mean.ndim != 1:
            raise DimensionError("mean must be a vector")
        if self.covariance.shape != (d, d):
            raise DimensionError("covariance must be square and match the mean")
        if not np.array_equal(self.covariance, self.covariance.T):
            raise DataError("covariance must be exactly symmetric")
        if self.count < 2:
            raise InsufficientSamplesError("class statistics need count >= 2")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


class BaseStatsTable:
    """Statistics for a set of classes, addressable by class id.

    Lookup order is always ascending class id; ``mean_matrix`` stacks the
    means in that order for vectorized distance computations.
    """

    def __init__(self, dim: int, entries) -> None:
        self.dim = int(dim)
        table: dict[int, ClassStatistics] = {}
        for entry in entries:
            if entry.dim != self.dim:
                raise DimensionError(
                    f"class {entry.class_id} has dim {entry.dim}, table has {self.dim}")
            if entry.class_id in table:
                raise DataError(f"duplicate class id {entry.class_id}")
            table[entry.class_id] = entry
        self._entries = dict(sorted(table.items()))
        self._ids = np.array(list(self._entries), dtype=np.int64)
        if self._ids.size:
            self._means = np.stack([e.mean for e in self._entries.values()])
        else:
            self._means = np.empty((0, self.dim))

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, class_id: int) -> bool:
        return int(class_id) in self._entries

    def class_ids(self) -> list[int]:
        return [int(c) for c in self._ids]

    def entry(self, class_id: int) -> ClassStatistics:
        try:
            return self._entries[int(class_id)]
        except KeyError:
            raise MissingClassError(f"no statistics for class {class_id}") from None

    @property
    def id_array(self) -> np.ndarray:
        return self._ids

    @property
    def mean_matrix(self) -> np.ndarray:
        return self._means


def build_base_stats(ds: Dataset, split: SplitManifest) -> BaseStatsTable:
    """Compute mean, covariance and record count for every base class in
    ``split``, from its untransformed features in ``ds``."""
    entries = []
    for cid in sorted(split.base_classes):
        feats = ds.features_for(cid)
        if feats.shape[0] == 0:
            raise MissingClassError(f"base class {cid} has no records in the dataset")
        if feats.shape[0] < 2:
            raise InsufficientSamplesError(
                f"base class {cid} has {feats.shape[0]} record; need at least 2")
        mu = class_mean(feats)
        cov = class_covariance(feats, mu)
        entries.append(ClassStatistics(class_id=cid, mean=mu, covariance=cov,
                                       count=feats.shape[0]))
    return BaseStatsTable(ds.dim, entries)


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0 or nv == 0:
        raise UndefinedStatisticError("cosine similarity of a zero vector")
    return float(np.dot(u, v) / (nu * nv))


def class_similarity(a: ClassStatistics, b: ClassStatistics) -> tuple[float, float]:
    """Cosine similarity of two classes' means and of their variance profiles.

    Returns ``(mean_cosine, variance_cosine)`` where the variance profile is
    the diagonal of the covariance.
    """
    if a.dim != b.dim:
        raise DimensionError("classes have different dimensionalities")
    mean_cos = _cosine(a.mean, b.mean)
    var_cos = _cosine(np.diag(a.covariance), np.diag(b.covariance))
    return mean_cos, var_cos

