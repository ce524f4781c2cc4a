"""The table of base-class statistics that calibration borrows from: each
class's mean, record count and unbiased covariance.

The covariance is the standard unbiased estimator

    cov = (1 / (n - 1)) * sum_j (x_j - mean) (x_j - mean)^T

stored in float16.  The rows are centered about their float64 mean and
multiplied in float32; the product is divided by n - 1 in float64 and
rounded once to float16.  The float32 sums' rounding error, about
sqrt(n) * 2**-24 relative (1.5e-6 at n=600), is far below float16's
relative rounding of 4.9e-4: an entry lands at most one float16 step from
where a float64 product puts it.  Both are far below the sampling error
from a few hundred rows (about 1/sqrt(n), 4% at 600), and calibration adds
its spread constant alpha (0.21 by default) to every element on top.
float16's largest value is 65504, so a base class whose largest variance
exceeds it is refused; no covariance entry exceeds the largest variance.
The base table is built from the untransformed base features of the
dataset being evaluated, every time it is needed; it is never stored, so
it cannot come from another dataset or feature space.

:class:`BaseStatsTable` is the one form in which class statistics are kept:
a row per class of mean, record count and covariance.  It keeps only each
covariance's lower triangle, packed row by row: ``d(d+1)/2`` float16 values
per class instead of ``d*d`` float64 ones, 0.4 MB instead of 3.3 MB at
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
import mmap

import numpy as np

from .errors import DataError
from .features_io import Dataset, SplitManifest

# a read of a mapped file releases its pages, and the release and the page
# faults that follow cost about as much for a few rows as for many, so
# consecutive classes are read together while their float32 copy stays
# within this many bytes
_READ_BYTES = 1 << 17

# the largest finite float16; a larger variance would round to inf
_FLOAT16_MAX = float(np.finfo(np.float16).max)

# glibc's default mmap threshold: a smaller table comes from the heap, and
# freeing it does not move the threshold
_MAP_BYTES = 1 << 17


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
    ``packed_covariances`` (n, d(d+1)/2), float16 from
    :func:`build_base_stats` (a table built by hand keeps float16, float32
    or float64 and converts any other dtype to float64).  Row ``r`` holds
    the lower triangle of class ``r``'s covariance, row-major (``(0,0),
    (1,0), (1,1), (2,0), ...``), and ``np.take(packed, gather_map)``
    expands it into the full symmetric matrix; ``gather_map`` is (d, d)
    intp.
    """

    def __init__(self, class_ids, means, counts, packed_covariances) -> None:
        ids = np.asarray(class_ids, dtype=np.int64)
        means = np.asarray(means, dtype=np.float64)
        counts = np.asarray(counts, dtype=np.int64)
        packed = np.asarray(packed_covariances)
        if packed.dtype not in (np.float16, np.float32, np.float64):
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

    Each class takes one pass: its rows are read as a float32 copy, which
    is centered in place about its float64 mean and multiplied once into
    a float32 (d, d) product, and the product's lower triangle is packed,
    divided by n - 1 in float64 and rounded once into its float16 table
    row.  float32 is enough: its sums' error, about sqrt(n) * 2**-24
    relative (1.5e-6 at n=600), is far below float16's step of 4.9e-4
    relative and the sampling error of 4% at 600 rows, and the product
    takes about half the time and memory of a float64 one.  A class whose
    largest variance exceeds 65504, float16's largest value, raises
    DataError naming it.  A read covers one class, or consecutive small
    classes together.  For a dataset mapped from a file, each read then
    releases the file's pages from the process.

    The table (26.3 MB for 64 classes at d=640) lives in an anonymous
    private mapping of its own, not on the heap.  glibc serves an
    allocation above its mmap threshold with a mapping of its own, and
    freeing such a block raises the threshold to its size, up to 32 MiB.
    A table allocated that way, once freed (a process that builds tables
    repeatedly frees each one), would raise the threshold above an
    episode's 19 MB training matrix, which would then come from the heap
    and stay resident.

    When there are two reads or more, each one class whose float32 rows
    exceed 128 KiB, and OpenBLAS had two threads or more before the build,
    the reads are split between two threads, the calling one and one
    helper, and every loaded OpenBLAS is held at one thread until the
    helper is joined.  On a 2-vCPU VM one float32 product of 600 x 640
    rows took 2.5 ms at two BLAS threads and 3.3 ms at one (a float64 one
    3.3 and 6.0 ms), and the paper world's set-up (load and build, 64 such
    classes) took 0.273 s (perfbench median of 10 runs; 0.349 s with
    float64 products).  Two threads is the one count that was measured,
    so the build starts no more on a larger machine.  The helper's
    product, triangles and read, 5.7 MB for 600 rows at d=640
    (tracemalloc), live while the build runs, and OpenBLAS keeps the
    buffer it gave the helper resident for the rest of the process (about
    2.3 MB).  A product's bits do not depend on the BLAS thread count, so
    the table is the same either way; a Cholesky factor's do, so the
    helper is joined and the count given back before this returns, also
    when a read raises.  Meanwhile BLAS calls from any other thread of the
    process run at one thread too.  Otherwise the reads run one after
    another on the calling thread, one read's copy alive at a time: for
    small classes, where a helper cost more than it saved, and where no
    OpenBLAS setter is found (another BLAS, or a platform without
    ``/proc/self/maps``) or OpenBLAS has one thread.
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
    packed = _private_float16((len(ids), d * (d + 1) // 2))
    _fill_class_rows(ds, rows, means, counts, packed)
    # the table builds its gather map, briefly two (d, d) arrays, once the
    # fill's scratch is freed
    return BaseStatsTable(ids, means, counts, packed)


def _private_float16(shape) -> np.ndarray:
    """An array of float16 zeros of ``shape`` (two dimensions) in an
    anonymous private mapping of exactly its size; on the heap when it is
    smaller than ``_MAP_BYTES`` (the acceptance world's 5 kB table, where
    the mapping made its load and build about 5% slower) or the platform
    has no anonymous mappings.  Python's default for an anonymous mapping
    is a shared one, which Linux backs with shmem, so the flags are
    given."""
    nbytes = shape[0] * shape[1] * 2
    anonymous = getattr(mmap, "MAP_ANONYMOUS", None)
    if nbytes < _MAP_BYTES or anonymous is None:
        return np.zeros(shape, dtype=np.float16)
    buf = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | anonymous)
    return np.frombuffer(buf, dtype=np.float16).reshape(shape)


def _fill_class_rows(ds: Dataset, rows, means, counts, packed) -> None:
    """Write the statistics of the records ``rows[i]`` of ``ds`` into row i
    of ``means``, ``counts`` and ``packed``, on the calling thread and,
    where :func:`_two_threads` allows, one helper.

    Each class's rows are read as a float32 copy x, the stored values
    bit for bit.  Their mean is taken in float64, as of float64 rows, and
    subtracted in place, each difference rounded to float32; the packed
    row gets the lower triangle of the float32 x^T x, row-major, widened
    exactly to float64, divided by n - 1 and then rounded once to float16.
    Between the two, a class is refused if a diagonal entry, a variance,
    exceeds 65504: by Cauchy-Schwarz no other entry exceeds the largest
    variance, so the cast cannot overflow.  Checking the d variances costs
    1.3 us a class at d=16 and about 2 us at d=640.

    The cast from float64 to float16 is scalar and holds the GIL: dividing
    a row at d=640 and storing it takes about 0.7 ms into float16, against
    0.25 ms into float32; numpy's cast from float32 is no faster (0.63
    against 0.52 ms a row), so the triangle is divided in float64 and cast
    from there.  On two threads it overlaps only with the other thread's
    product.  One ``np.divide`` with the float16 row as ``out``
    gives the same bits at the same speed at d=640, but costs 1.9 us a
    row at d=16 against 1.2 us.
    """
    d = ds.dim
    # flat indices of a (d, d) matrix's lower triangle, row-major: the
    # packed layout
    lower = np.flatnonzero(np.tri(d, dtype=bool))
    # packed index of each diagonal entry (i, i): i(i+1)/2 + i
    steps = np.arange(d)
    diagonal = steps * (steps + 3) // 2
    most = max(1, _READ_BYTES // (4 * d))
    # each read with the table row of its first class
    reads, row = [], 0
    for run in _runs(rows, most):
        reads.append((row, run))
        row += len(run)

    def scratch() -> tuple:
        """A thread's product, the product's lower triangle and that
        divided in float64, rounded once into the row.  np.take with a
        float16 ``out`` would read the row's old contents into a buffer of
        its own on every call.  The calling thread allocates the helper's
        too: glibc serves each thread from an arena of its own, and the
        helper's kept what it freed resident for the rest of the process
        (5.5 MB on the paper world), where the calling thread's heap
        serves the episodes that follow."""
        return (np.empty((d, d), dtype=np.float32),
                np.empty(lower.size, dtype=np.float32),
                np.empty(lower.size))

    def fill(taken, product, entries, triangle) -> None:
        """Fill the classes' rows of each read of ``taken``, with the
        scratch of one thread."""
        for row, run in taken:
            block = ds._rows(np.concatenate(run))
            splits = np.cumsum([r.size for r in run[:-1]])
            for r, x in zip(run, np.split(block, splits)):
                n = x.shape[0]
                np.mean(x, axis=0, dtype=np.float64, out=means[row])
                np.subtract(x, means[row], out=x, casting="same_kind")
                np.matmul(x.T, x, out=product)
                # mode="clip" writes straight into ``entries`` ("raise"
                # would buffer it); the indices are in range
                np.take(product.reshape(-1), lower, out=entries, mode="clip")
                # the float32 entries widen exactly, and divide in float64
                np.divide(entries, n - 1, out=triangle, dtype=np.float64)
                if triangle[diagonal].max() > _FLOAT16_MAX:
                    raise DataError(
                        f"base class {ds.class_ids[r[0]]} has a variance "
                        f"above {_FLOAT16_MAX:g}, the largest float16 value")
                packed[row] = triangle
                counts[row] = n
                row += 1
            # drop this read's copy before the next is made
            del block, x

    if not _two_threads(rows, most, len(reads)):
        fill(reads, *scratch())
        return
    from concurrent.futures import ThreadPoolExecutor
    # this thread takes the even reads and one helper the odd ones; the
    # helper is joined before BLAS gets its threads back
    with (_one_blas_thread(_openblas()),
          ThreadPoolExecutor(1) as pool):
        helper = pool.submit(fill, reads[1::2], *scratch())
        fill(reads[0::2], *scratch())
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


def _openblas_libraries() -> list:
    """Every OpenBLAS loaded in this process, opened through ctypes from
    the paths ``/proc/self/maps`` names.  Empty where none is found: a
    process without ``/proc/self/maps`` (outside Linux), or another BLAS."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh
                     if "openblas" in line}
    except OSError:
        return []
    libs = []
    for path in sorted(paths):
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:
            continue
    return libs


@functools.cache
def _openblas() -> tuple:
    """The ``(get, set)`` thread-count functions of every OpenBLAS loaded
    in this process (:func:`_openblas_libraries`), found once per process:
    numpy's wheels export ``scipy_openblas_set_num_threads64_``, other
    builds ``openblas_set_num_threads``."""
    import ctypes
    found = []
    for lib in _openblas_libraries():
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
