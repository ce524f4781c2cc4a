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

:func:`build_base_stats` reads large classes on two threads when OpenBLAS
has two or more, and holds every loaded OpenBLAS at one thread while they
run: each class's product is then computed on one core, with the same
bits as at any thread count.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np

from .errors import DataError
from .features_io import Dataset, SplitManifest

# a read of a mapped file releases its pages, and the release and the page
# faults that follow cost about as much for a few rows as for many, so
# consecutive classes are read together while their float64 copy stays
# within this many bytes
_READ_BYTES = 1 << 18


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

    The attributes are the arrays as given, without a copy: ``id_array``
    (n,) int64, strictly ascending; ``mean_matrix`` (n, d) float64, stacked
    for vectorized distances; ``counts`` (n,) int64, at least 2 each; and
    ``packed_covariances`` (n, d(d+1)/2), float32 from
    :func:`build_base_stats` (a table built by hand keeps float32 or float64
    and converts any other dtype to float64).  Row ``r`` holds the lower
    triangle of class ``r``'s covariance, row-major (``(0,0), (1,0), (1,1),
    (2,0), ...``), and ``np.take(packed, gather_map)`` expands it into the
    full symmetric matrix; ``gather_map`` is (d, d) intp.
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
        self.id_array = ids
        self._rows = {cid: row for row, cid in enumerate(ids.tolist())}
        self.mean_matrix = means
        self.counts = counts
        self.packed_covariances = packed
        self.gather_map = _gather_map(d)

    def __len__(self) -> int:
        return self.id_array.size


def build_base_stats(ds: Dataset, split: SplitManifest) -> BaseStatsTable:
    """Compute mean, covariance and record count for every base class in
    ``split``, from its untransformed features in ``ds``.

    Each class takes one pass: its rows are read as a float64 copy, which
    is centered in place and multiplied once into a (d, d) product, and
    the product's lower triangle is packed, divided by n - 1 and rounded
    once into its float32 table row.  A read covers one class, or
    consecutive small classes together.  For a dataset mapped from a file,
    each read then releases the file's pages from the process.

    When there are two reads or more, each one class whose float64 rows
    exceed 256 KiB, and OpenBLAS had two threads or more before the build,
    the reads are split between two threads, the calling one and one
    helper, and every loaded OpenBLAS is held at one thread until the
    helper is joined.  On a 2-vCPU VM one product of 600 x 640 rows took
    3.4 ms at two BLAS threads and 4.7 ms at one, and the paper world's
    set-up (load and build, 64 such classes) fell from 0.338 to 0.252 s
    (perfbench medians of 10 pairs).  Two threads is the one count that
    was measured, so the build starts no more on a larger machine.  The
    helper holds its own product, triangle and read, 8.0 MB for 600 rows
    at d=640, while the build runs, and OpenBLAS keeps the buffer it gave
    the helper resident for the rest of the process (about 2.3 MB).  A
    product's bits do not depend on the BLAS thread count, so the table is
    the same either way; a Cholesky factor's do, so the helper is joined
    and the count given back before this returns, also when a read raises.
    Meanwhile BLAS calls from any other thread of the process run at one
    thread too.  Otherwise the reads run one after another on the calling
    thread, one read's copy alive at a time: for small classes, where a
    helper cost more than it saved, and where no OpenBLAS setter is found
    (another BLAS, or a platform without ``/proc/self/maps``) or OpenBLAS
    has one thread.
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
    of ``means``, ``counts`` and ``packed``, on the calling thread and,
    where :func:`_two_threads` allows, one helper.

    Each class's rows are read as a float64 copy x, exact from the stored
    float32, whose mean is taken and then subtracted in place; the packed
    row gets the lower triangle of x^T x, row-major, divided by n - 1 in
    float64 and then rounded once to the row's dtype.
    """
    d = ds.dim
    # flat indices of a (d, d) matrix's lower triangle, row-major: the
    # packed layout
    lower = np.flatnonzero(np.tri(d, dtype=bool))
    most = max(1, _READ_BYTES // (8 * d))
    # each read with the table row of its first class
    reads, row = [], 0
    for run in _runs(rows, most):
        reads.append((row, run))
        row += len(run)

    def fill(taken) -> None:
        """Fill the classes' rows of each read of ``taken``, with scratch
        of its own."""
        product = np.empty((d, d))
        # the float64 triangle, rounded once into the row; np.take with a
        # float32 ``out`` would read the row's old contents into a buffer
        # of its own on every call
        triangle = np.empty(lower.size)
        for row, run in taken:
            block = ds._rows(np.concatenate(run))
            for x in np.split(block, np.cumsum([r.size for r in run[:-1]])):
                n = x.shape[0]
                np.mean(x, axis=0, out=means[row])
                x -= means[row]
                np.matmul(x.T, x, out=product)
                # mode="clip" writes straight into ``triangle`` ("raise"
                # would buffer it); the indices are in range
                np.take(product.reshape(-1), lower, out=triangle, mode="clip")
                triangle /= n - 1
                packed[row] = triangle
                counts[row] = n
                row += 1
            # drop this read's copy before the next is made
            del block, x

    if not _two_threads(rows, most, len(reads)):
        fill(reads)
        return
    from concurrent.futures import ThreadPoolExecutor
    # this thread takes the even reads and one helper the odd ones; the
    # helper is joined before BLAS gets its threads back
    with (_one_blas_thread(_openblas()),
          ThreadPoolExecutor(1) as pool):
        helper = pool.submit(fill, reads[1::2])
        fill(reads[0::2])
        helper.result()


def _two_threads(rows, most: int, reads: int) -> bool:
    """Whether the build's ``reads`` reads run on two threads: when every
    class of ``rows`` is read alone (more than ``most`` rows), there are
    two reads or more and some loaded OpenBLAS has two threads or more.

    Small classes stay on the calling thread: a helper thread made the
    acceptance world's build slower (0.91 -> 1.22 ms, in-process
    medians), the pool's start costing more than the reads it shared.
    More than two threads were never measured, and each costs a read and
    scratch of its own and a resident OpenBLAS buffer."""
    if reads < 2 or any(r.size <= most for r in rows):
        return False
    return max((get() for get, _ in _openblas()), default=1) >= 2


@functools.cache
def _openblas() -> tuple:
    """The ``(get, set)`` thread-count functions of every OpenBLAS loaded
    in this process, found once per process through ctypes: numpy's wheels
    export ``scipy_openblas_set_num_threads64_``, other builds
    ``openblas_set_num_threads``.  Empty where none is found: a process
    without ``/proc/self/maps`` (outside Linux), or another BLAS."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh
                     if "openblas" in line}
    except OSError:
        return ()
    found = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_",
                     "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            put = getattr(lib, name.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                found.append((get, put))
                break
    return tuple(found)


@contextlib.contextmanager
def _one_blas_thread(libs):
    """Run the body with each OpenBLAS of ``libs``, as :func:`_openblas`
    gives them, at one thread, and give each its own count back after."""
    before = [get() for get, _ in libs]
    for _, put in libs:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(libs, before):
            put(count)


def _runs(rows, most: int):
    """Split the list of index arrays ``rows`` into runs of consecutive
    arrays of at most ``most`` indices in all; a longer array is a run of
    its own."""
    run, size = [], 0
    for r in rows:
        if run and size + r.size > most:
            yield run
            run, size = [], 0
        run.append(r)
        size += r.size
    if run:
        yield run


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
    diagonal = np.diagonal(table.gather_map)
    packed = table.packed_covariances
    # the cosine of the stored variances is taken in float64
    return (_cosine(table.mean_matrix[ra], table.mean_matrix[rb]),
            _cosine(packed[ra, diagonal].astype(np.float64),
                    packed[rb, diagonal].astype(np.float64)))
