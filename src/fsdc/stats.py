"""Per-class feature statistics: means, unbiased covariances, and the table
of base-class statistics that calibration borrows from.

The covariance is the standard unbiased estimator

    cov = (1 / (n - 1)) * sum_j (x_j - mean) (x_j - mean)^T

computed in float64 and symmetrized exactly (averaged with its transpose), so
``cov == cov.T`` holds bitwise.  The base table is built from the untransformed
base features of the dataset being evaluated, every time it is needed; it is
never stored, so it cannot come from another dataset or feature space.

Because every covariance is exactly symmetric, the table keeps only its lower
triangle, packed row by row: ``d(d+1)/2`` float64 values per class instead of
``d*d``, 1.6 MB instead of 3.3 MB at d=640.  A shared ``(d, d)`` gather map
expands a packed row, or a sum of packed rows, back into the full matrix.
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
    n, d = x.shape
    if n < 2:
        raise InsufficientSamplesError(
            f"covariance needs at least 2 samples, got {n}")
    mu = class_mean(x) if mean is None else np.asarray(mean, dtype=np.float64)
    if mu.shape != (d,):
        raise DimensionError("mean has the wrong dimensionality")
    packed = _pack_covariance(x - mu, np.empty(d * (d + 1) // 2),
                              np.empty((d, d)), np.empty(d * (d + 1) // 2),
                              _triangle(d))
    return np.take(packed, _gather_map(d))


def _triangle(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into a (d, d) matrix of each lower-triangle element, in
    row-major order (the packed layout), and of its mirror above the
    diagonal."""
    i, j = np.tril_indices(d)
    lower = i * d
    lower += j
    upper = j   # in place: the build holds these while packing
    upper *= d
    upper += i
    return lower, upper


def _gather_map(d: int) -> np.ndarray:
    """(d, d) intp: the packed index of every element of a (d, d) matrix."""
    # packed index of (i, j) for j <= i is i(i+1)/2 + j; above the diagonal
    # that expression is smaller than the mirrored one, so the elementwise
    # maximum with the transpose picks the lower element
    steps = np.arange(d)
    gather = steps.cumsum()[:, None] + steps
    return np.maximum(gather, gather.T, out=gather)


def _pack_covariance(centered, out, cov, mirror, triangle):
    """Pack the unbiased covariance of the rows of ``centered`` into ``out``.

    With c = centered^T centered / (n - 1), ``out`` gets (c + c^T) / 2 on the
    lower triangle, row-major, which makes the expanded matrix exactly
    symmetric.  ``cov`` ((d, d)) and ``mirror`` (like ``out``) are scratch, so
    a caller packing many classes allocates nothing per class.
    """
    np.matmul(centered.T, centered, out=cov)
    cov /= centered.shape[0] - 1
    flat = cov.reshape(-1)
    lower, upper = triangle
    # mode="clip" writes straight into out ("raise" would buffer it); the
    # indices are in range
    np.take(flat, lower, out=out, mode="clip")
    np.take(flat, upper, out=mirror, mode="clip")
    out += mirror
    out /= 2.0
    return out


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

    Covariances are stored packed: row ``r`` of ``packed_covariances`` holds
    the lower triangle of the covariance of the class in row ``r``, row-major
    (``(0,0), (1,0), (1,1), (2,0), ...``), and ``np.take(packed, gather_map)``
    expands a packed row into the full symmetric matrix.  :meth:`entry`
    rebuilds a :class:`ClassStatistics` on each call, which expands and
    re-checks one full ``(d, d)`` covariance; calibration reads the packed
    rows directly and never calls it.
    """

    def __init__(self, dim: int, entries) -> None:
        table: dict[int, ClassStatistics] = {}
        for entry in entries:
            if entry.dim != int(dim):
                raise DimensionError(
                    f"class {entry.class_id} has dim {entry.dim}, table has {dim}")
            if entry.class_id in table:
                raise DataError(f"duplicate class id {entry.class_id}")
            table[entry.class_id] = entry
        ids = sorted(table)

        def fill(means, counts, packed) -> None:
            lower = _triangle(self.dim)[0]
            for row, cid in enumerate(ids):
                entry = table[cid]
                means[row] = entry.mean
                counts[row] = entry.count
                np.take(entry.covariance, lower, out=packed[row], mode="clip")

        self._store(dim, ids, fill)

    @classmethod
    def _filled(cls, dim: int, class_ids, fill) -> BaseStatsTable:
        """A table of the ascending, distinct ``class_ids`` whose rows
        ``fill(means, counts, packed)`` writes into the table's arrays."""
        table = cls.__new__(cls)
        table._store(dim, class_ids, fill)
        return table

    def _store(self, dim: int, class_ids, fill) -> None:
        self.dim = d = int(dim)
        self._ids = np.array(class_ids, dtype=np.int64)
        self._rows = {cid: row for row, cid in enumerate(class_ids)}
        self._means = np.empty((self._ids.size, d))
        self._counts = np.empty(self._ids.size, dtype=np.int64)
        self._packed = np.empty((self._ids.size, d * (d + 1) // 2))
        fill(self._means, self._counts, self._packed)
        # built once fill's scratch is freed: building it briefly takes two
        # (d, d) arrays
        self._gather = _gather_map(d)

    def __len__(self) -> int:
        return self._ids.size

    def __contains__(self, class_id: int) -> bool:
        return int(class_id) in self._rows

    def class_ids(self) -> list[int]:
        return [int(c) for c in self._ids]

    def entry(self, class_id: int) -> ClassStatistics:
        try:
            row = self._rows[int(class_id)]
        except KeyError:
            raise MissingClassError(f"no statistics for class {class_id}") from None
        return ClassStatistics(class_id=int(class_id),
                               mean=self._means[row].copy(),
                               covariance=np.take(self._packed[row], self._gather),
                               count=int(self._counts[row]))

    @property
    def id_array(self) -> np.ndarray:
        return self._ids

    @property
    def mean_matrix(self) -> np.ndarray:
        return self._means

    @property
    def packed_covariances(self) -> np.ndarray:
        """``(classes, d(d+1)/2)`` float64: each class's packed covariance."""
        return self._packed

    @property
    def gather_map(self) -> np.ndarray:
        """``(d, d)`` intp: the packed index of every element of a covariance."""
        return self._gather


def build_base_stats(ds: Dataset, split: SplitManifest) -> BaseStatsTable:
    """Compute mean, covariance and record count for every base class in
    ``split``, from its untransformed features in ``ds``.

    Every class goes through one set of buffers sized for the largest class,
    and its covariance is packed straight into its table row, so the build
    allocates nothing per class.
    """
    ids = sorted(split.base_classes)
    # one stable sort groups every class's rows, each in file order, where
    # a scan of the class ids per class would cost classes x records
    order = np.argsort(ds.class_ids, kind="stable")
    keys = ds.class_ids[order]
    starts = np.searchsorted(keys, ids, side="left").tolist()
    stops = np.searchsorted(keys, ids, side="right").tolist()
    rows = [order[a:b] for a, b in zip(starts, stops)]
    for cid, r in zip(ids, rows):
        if r.size == 0:
            raise MissingClassError(f"base class {cid} has no records in the dataset")
        if r.size < 2:
            raise InsufficientSamplesError(
                f"base class {cid} has {r.size} record; need at least 2")
    return BaseStatsTable._filled(
        ds.dim, ids, lambda *table: _fill_class_rows(ds, rows, *table))


def _fill_class_rows(ds: Dataset, rows, means, counts, packed) -> None:
    """Write the statistics of the records ``rows[i]`` of ``ds`` into row i
    of ``means``, ``counts`` and ``packed``."""
    d = ds.dim
    triangle = _triangle(d)
    most = max((r.size for r in rows), default=0)
    gathered = np.empty((most, d), dtype=ds.values.dtype)
    features = np.empty((most, d))
    cov = np.empty((d, d))
    mirror = np.empty(d * (d + 1) // 2)
    for row, r in enumerate(rows):
        n = r.size
        np.take(ds.values, r, axis=0, out=gathered[:n], mode="clip")
        x = features[:n]
        x[...] = gathered[:n]
        np.mean(x, axis=0, out=means[row])
        x -= means[row]
        _pack_covariance(x, packed[row], cov, mirror, triangle)
        counts[row] = n


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
    return _profile_cosines(_profile(a), _profile(b))


def _profile(stats: ClassStatistics) -> tuple[np.ndarray, np.ndarray]:
    """A class's mean and variance profile, which are all that
    :func:`class_similarity` reads; a caller comparing many classes keeps
    these instead of the full covariances."""
    # the diagonal is copied to contiguous memory because a dot product of
    # strided vectors can round differently, and a kept profile must give the
    # cosines class_similarity gives
    return stats.mean, stats.covariance.diagonal().copy()


def _profile_cosines(a, b) -> tuple[float, float]:
    return _cosine(a[0], b[0]), _cosine(a[1], b[1])

