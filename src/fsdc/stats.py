"""The table of base-class statistics that calibration borrows from: each
class's mean, record count and unbiased covariance.

The covariance is the standard unbiased estimator

    cov = (1 / (n - 1)) * sum_j (x_j - mean) (x_j - mean)^T

computed in float64 and rounded once to float32, the precision of the
features it is estimated from: its sampling error from a few hundred rows
(about 1/sqrt(n)) is far above float32's rounding.  The base table is built
from the untransformed base features of the dataset being evaluated, every
time it is needed; it is never stored, so it cannot come from another
dataset or feature space.

:class:`BaseStatsTable` is the one form in which class statistics are kept:
a row per class of mean, record count and covariance.  It keeps only each
covariance's lower triangle, packed row by row: ``d(d+1)/2`` float32 values
per class instead of ``d*d`` float64 ones, 0.8 MB instead of 3.3 MB at
d=640.  A shared ``(d, d)`` gather map expands a packed row, or a sum of
packed rows, back into the full matrix, which is therefore exactly
symmetric, and :func:`class_similarity` reads the variances straight off
the packed rows.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .features_io import Dataset, SplitManifest


def _lower_triangle(d: int) -> np.ndarray:
    """Flat indices into a (d, d) matrix of its lower-triangle elements, in
    row-major order: the packed layout."""
    i, j = np.tril_indices(d)
    i *= d   # in place: the build holds this while packing
    i += j
    return i


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
    ``packed_covariances`` (n, d(d+1)/2), float32 or float64; covariances
    of any other dtype are converted to float64.
    """

    def __init__(self, class_ids, means, counts, packed_covariances) -> None:
        ids = np.asarray(class_ids, dtype=np.int64)
        means = np.asarray(means, dtype=np.float64)
        counts = np.asarray(counts, dtype=np.int64)
        packed = np.asarray(packed_covariances)
        if packed.dtype not in (np.float32, np.float64):
            packed = packed.astype(np.float64)
        if means.ndim != 2:
            raise DataError("means must be a 2-D array (classes x dim)")
        n, d = means.shape
        if (ids.shape != (n,) or counts.shape != (n,)
                or packed.shape != (n, d * (d + 1) // 2)):
            raise DataError(
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

    def __len__(self) -> int:
        return self._ids.size

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
        """``(classes, d(d+1)/2)`` float32 (float64 if built from float64
        values): each class's packed covariance."""
        return self._packed

    @property
    def gather_map(self) -> np.ndarray:
        """``(d, d)`` intp: the packed index of every element of a covariance."""
        return self._gather


def build_base_stats(ds: Dataset, split: SplitManifest) -> BaseStatsTable:
    """Compute mean, covariance and record count for every base class in
    ``split``, from its untransformed features in ``ds``.

    Each class takes one pass through one set of buffers sized for the
    largest class: its rows are gathered, centered and multiplied once, and
    the product's lower triangle is packed, divided by n - 1 and rounded
    once into its float32 table row, so the build allocates nothing per
    class.
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
    packed = np.empty((len(ids), d * (d + 1) // 2), dtype=np.float32)
    _fill_class_rows(ds, rows, means, counts, packed)
    # the table builds its gather map, briefly two (d, d) arrays, once the
    # fill's scratch is freed
    return BaseStatsTable(ids, means, counts, packed)


def _fill_class_rows(ds: Dataset, rows, means, counts, packed) -> None:
    """Write the statistics of the records ``rows[i]`` of ``ds`` into row i
    of ``means``, ``counts`` and ``packed``.

    The mean is taken from the stored float32 rows in float64; the packed
    row gets the lower triangle of x^T x for the class's centered rows x,
    row-major, divided by n - 1 in float64 and then rounded once to the
    row's dtype.
    """
    d = ds.dim
    lower = _lower_triangle(d)
    most = max((r.size for r in rows), default=0)
    gathered = np.empty((most, d), dtype=ds.values.dtype)
    centered = np.empty((most, d))
    product = np.empty((d, d))
    # the float64 triangle, rounded once into the row; np.take with a
    # float32 ``out`` would read the row's old contents into a buffer of
    # its own on every call
    triangle = np.empty(lower.size)
    for row, r in enumerate(rows):
        n = r.size
        rows32 = gathered[:n]
        np.take(ds.values, r, axis=0, out=rows32, mode="clip")
        np.mean(rows32, axis=0, dtype=np.float64, out=means[row])
        x = centered[:n]
        np.subtract(rows32, means[row], out=x)
        np.matmul(x.T, x, out=product)
        # mode="clip" writes straight into ``triangle`` ("raise" would
        # buffer it); the indices are in range
        np.take(product.reshape(-1), lower, out=triangle, mode="clip")
        triangle /= n - 1
        packed[row] = triangle
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
    # the packed index of diagonal element i is i(i+1)/2 + i
    steps = np.arange(table.dim)
    diagonal = steps * (steps + 3) // 2
    packed = table.packed_covariances
    # the cosine of the stored variances is taken in float64
    return (_cosine(table.mean_matrix[ra], table.mean_matrix[rb]),
            _cosine(packed[ra, diagonal].astype(np.float64),
                    packed[rb, diagonal].astype(np.float64)))
