"""The table of base-class statistics that calibration borrows from: each
class's mean, record count and unbiased covariance.

The covariance is the standard unbiased estimator

    cov = (1 / (n - 1)) * sum_j (x_j - mean) (x_j - mean)^T

computed in float64 and symmetrized exactly (averaged with its transpose), so
``cov == cov.T`` holds bitwise.  The base table is built from the untransformed
base features of the dataset being evaluated, every time it is needed; it is
never stored, so it cannot come from another dataset or feature space.

:class:`BaseStatsTable` is the one form in which class statistics are kept:
a row per class of mean, record count and covariance.  Because every
covariance is exactly symmetric, it keeps only the lower triangle, packed
row by row: ``d(d+1)/2`` float64 values per class instead of ``d*d``, 1.6 MB
instead of 3.3 MB at d=640.  A shared ``(d, d)`` gather map expands a packed
row, or a sum of packed rows, back into the full matrix, and the variances
are read off the packed rows once, for :func:`class_similarity`.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, DimensionError
from .features_io import Dataset, SplitManifest


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


class BaseStatsTable:
    """Mean, record count and packed covariance of a set of classes, one row
    per class in ascending class id.

    Row ``r`` of ``packed_covariances`` holds the lower triangle of the
    covariance of the class in row ``r``, row-major (``(0,0), (1,0), (1,1),
    (2,0), ...``), and ``np.take(packed, gather_map)`` expands a packed row
    into the full symmetric matrix.  ``mean_matrix`` stacks the means in
    the same order for vectorized distance computations.

    The arrays are kept as given, without a copy: ``class_ids`` (n,) strictly
    ascending, ``means`` (n, d), ``counts`` (n,) of at least 2 each, and
    ``packed_covariances`` (n, d(d+1)/2).
    """

    def __init__(self, class_ids, means, counts, packed_covariances) -> None:
        ids = np.asarray(class_ids, dtype=np.int64)
        means = np.asarray(means, dtype=np.float64)
        counts = np.asarray(counts, dtype=np.int64)
        packed = np.asarray(packed_covariances, dtype=np.float64)
        if means.ndim != 2:
            raise DimensionError("means must be a 2-D array (classes x dim)")
        n, d = means.shape
        if (ids.shape != (n,) or counts.shape != (n,)
                or packed.shape != (n, d * (d + 1) // 2)):
            raise DimensionError(
                f"{n} means of dim {d} need {n} class ids, {n} counts and "
                f"{n} packed covariances of {d * (d + 1) // 2} values")
        if np.any(ids[1:] <= ids[:-1]):
            raise DataError("class ids must be strictly ascending")
        if np.any(counts < 2):
            raise DataError("class statistics need count >= 2")
        self.dim = d
        self._ids = ids
        self._rows = {cid: row for row, cid in enumerate(ids.tolist())}
        self._means = means
        self._counts = counts
        self._packed = packed
        self._gather = _gather_map(d)
        # the packed index of diagonal element i is i(i+1)/2 + i
        steps = np.arange(d)
        self._variances = np.take(packed, steps * (steps + 3) // 2, axis=1)
        self._variances.flags.writeable = False

    def __len__(self) -> int:
        return self._ids.size

    def __contains__(self, class_id: int) -> bool:
        return int(class_id) in self._rows

    @property
    def id_array(self) -> np.ndarray:
        return self._ids

    @property
    def mean_matrix(self) -> np.ndarray:
        return self._means

    @property
    def counts(self) -> np.ndarray:
        """``(classes,)`` int64: each class's record count."""
        return self._counts

    @property
    def packed_covariances(self) -> np.ndarray:
        """``(classes, d(d+1)/2)`` float64: each class's packed covariance."""
        return self._packed

    @property
    def variance_matrix(self) -> np.ndarray:
        """``(classes, d)`` float64, read-only: each class's variances, the
        diagonal of its covariance."""
        return self._variances

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
        if r.size < 2:
            raise DataError(f"base class {cid} has {r.size} records in the "
                            f"dataset; need at least 2")
    d = ds.dim
    means = np.empty((len(ids), d))
    counts = np.empty(len(ids), dtype=np.int64)
    packed = np.empty((len(ids), d * (d + 1) // 2))
    _fill_class_rows(ds, rows, means, counts, packed)
    # the table builds its gather map, briefly two (d, d) arrays, once the
    # fill's scratch is freed
    return BaseStatsTable(ids, means, counts, packed)


def _fill_class_rows(ds: Dataset, rows, means, counts, packed) -> None:
    """Write the statistics of the records ``rows[i]`` of ``ds`` into row i
    of ``means``, ``counts`` and ``packed``.

    With c = x^T x / (n - 1) for the class's centered rows x, the packed row
    gets (c + c^T) / 2 on the lower triangle, row-major, which makes the
    expanded matrix exactly symmetric.
    """
    d = ds.dim
    lower, upper = _triangle(d)
    most = max((r.size for r in rows), default=0)
    gathered = np.empty((most, d), dtype=ds.values.dtype)
    features = np.empty((most, d))
    cov = np.empty((d, d))
    flat = cov.reshape(-1)
    mirror = np.empty(d * (d + 1) // 2)
    for row, r in enumerate(rows):
        n = r.size
        np.take(ds.values, r, axis=0, out=gathered[:n], mode="clip")
        x = features[:n]
        x[...] = gathered[:n]
        np.mean(x, axis=0, out=means[row])
        x -= means[row]
        np.matmul(x.T, x, out=cov)
        cov /= n - 1
        # mode="clip" writes straight into the table row ("raise" would
        # buffer it); the indices are in range
        out = packed[row]
        np.take(flat, lower, out=out, mode="clip")
        np.take(flat, upper, out=mirror, mode="clip")
        out += mirror
        out /= 2.0
        counts[row] = n


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0 or nv == 0:
        raise DataError("cosine similarity of a zero vector")
    return float(np.dot(u, v) / (nu * nv))


def class_similarity(table: BaseStatsTable, a: int,
                     b: int) -> tuple[float, float]:
    """Cosine similarity of the means and of the variance profiles (the
    covariance diagonals) of classes ``a`` and ``b`` of ``table``.

    Returns ``(mean_cosine, variance_cosine)``.  Raises DataError for a
    class id the table lacks, or when either vector is zero.
    """
    try:
        ra, rb = table._rows[int(a)], table._rows[int(b)]
    except KeyError as exc:
        raise DataError(f"no statistics for class {exc.args[0]}") from None
    return (_cosine(table.mean_matrix[ra], table.mean_matrix[rb]),
            _cosine(table.variance_matrix[ra], table.variance_matrix[rb]))
