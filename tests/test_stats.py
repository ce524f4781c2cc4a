import concurrent.futures
import itertools
import mmap
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from fsdc import stats
from fsdc.errors import DataError
from fsdc.features_io import (Dataset, SplitManifest, SyntheticSpec,
                              generate_synthetic, load_dataset, save_dataset)
from fsdc.harness import EpisodeSpec, PipelineConfig, evaluate
from fsdc.stats import BaseStatsTable, build_base_stats, class_similarity
from synthetic_moments import feature_moments


def packed(cov):
    """The row-major lower triangle of ``cov``: the table's packed layout."""
    cov = np.asarray(cov, dtype=np.float64)
    return cov[np.tril_indices(cov.shape[0])]


def table_of(*classes):
    """``build_base_stats`` over a dataset whose class i holds the rows of
    ``classes[i]``, stored (as every dataset is) in float32."""
    ids = np.concatenate([np.full(len(rows), i) for i, rows in enumerate(classes)])
    ds = Dataset(ids, np.concatenate(classes))
    return build_base_stats(ds, SplitManifest(base=range(len(classes))))


def through_file(ds, tmp_path):
    """``ds`` saved and loaded again: its values a view of the file."""
    path = tmp_path / "through.fsdc"
    save_dataset(ds, path)
    return load_dataset(path)


def covariance(table, row=0):
    """The full covariance of row ``row`` of ``table``."""
    return np.take(table.packed_covariances[row], table.gather_map)


def test_class_mean_basic():
    table = table_of(np.array([[0.0, 2.0], [2.0, 4.0]]))
    assert np.array_equal(table.mean_matrix[0], [1.0, 3.0])
    assert table.counts[0] == 2


def test_covariance_hand_example():
    table = table_of(np.array([[0.0, 0.0], [2.0, 2.0]]))
    assert np.array_equal(table.mean_matrix[0], [1.0, 1.0])
    assert np.array_equal(covariance(table), [[2.0, 2.0], [2.0, 2.0]])


def test_covariance_identical_samples_is_zero():
    v = np.array([0.25, -1.5, 4.0])
    table = table_of(np.tile(v, (2, 1)), np.tile(v, (6, 1)))
    for row in range(2):
        assert np.array_equal(table.mean_matrix[row], v)
        assert np.array_equal(covariance(table, row), np.zeros((3, 3)))


def test_covariance_is_exactly_symmetric():
    rng = np.random.default_rng(0)
    cov = covariance(table_of(rng.normal(size=(50, 7))))
    assert np.array_equal(cov, cov.T)


def test_covariance_permutation_invariant():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(30, 4))
    table = table_of(x, x[rng.permutation(30)])
    assert np.allclose(covariance(table, 0), covariance(table, 1),
                       rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n, d, interleaved", [
    *(pytest.param(n, d, False, id=f"{n}-{d}")
      for n in (5, 6) for d in (3, 16, 640)),
    # the class's rows alternate with the other class's in the file, so
    # the build gathers rows that are not contiguous
    pytest.param(6, 16, True, id="6-16-interleaved"),
    # the paper world's class size: the float32 rows are cast to float64
    # for the mean in several buffered chunks
    pytest.param(600, 640, False, id="600-640"),
])
def test_covariance_rounds_as_the_out_of_place_expression(n, d, interleaved,
                                                         tmp_path):
    # the build divides as it rounds; every element must round as
    # (c / (n - 1) + (c / (n - 1)).T) / 2 does in float64, rounded once to
    # float16.  A larger class goes first, so its rows are left in the
    # scratch the build reuses.  A loaded dataset's rows are gathered from
    # the file's records and must round the same.
    rng = np.random.default_rng(d + n)
    x = rng.normal(size=(n, d)).astype(np.float32)
    values = np.concatenate([rng.normal(size=(n + 3, d)), x])
    ids = np.repeat([0, 1], [n + 3, n])
    if interleaved:
        order = np.argsort(np.r_[np.arange(n + 3), np.arange(n) + 0.5],
                           kind="stable")
        values, ids = values[order], ids[order]
    x = x.astype(np.float64)
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (n - 1)
    ds = Dataset(ids, values)
    for source in (ds, through_file(ds, tmp_path)):
        table = build_base_stats(source, SplitManifest(base=[0, 1]))
        assert np.array_equal(table.mean_matrix[1], mean)
        assert np.array_equal(covariance(table, 1),
                              ((cov + cov.T) / 2.0).astype(np.float16))


def test_covariance_monte_carlo():
    # draws from a known 3-d Gaussian; the estimate should approach the truth
    rng = np.random.default_rng(7)
    target = np.array([[2.0, 0.5, 0.0],
                       [0.5, 1.0, 0.3],
                       [0.0, 0.3, 0.7]])
    chol = np.linalg.cholesky(target)
    x = rng.normal(size=(200_000, 3)) @ chol.T
    cov = covariance(table_of(x))
    err = np.linalg.norm(cov - target) / np.linalg.norm(target)
    assert err < 0.02


def test_covariance_unbiased_scaling():
    # n=2 identical offsets: cov = d d^T / 1, which doubles the naive /n value
    assert covariance(table_of(np.array([[0.0], [2.0]])))[0, 0] == 2.0


def test_class_statistics_validation():
    ids, means, counts = [0, 1], np.zeros((2, 2)), [5, 5]
    covs = np.stack([packed(np.eye(2))] * 2)
    BaseStatsTable(ids, means, counts, covs)
    for bad_ids in ([1, 0], [0, 0]):
        with pytest.raises(DataError, match="strictly ascending"):
            BaseStatsTable(bad_ids, means, counts, covs)
    with pytest.raises(DataError, match="count >= 2"):
        BaseStatsTable(ids, means, [5, 1], covs)
    with pytest.raises(DataError, match="2 means of dim 3 need 2 class ids"):
        BaseStatsTable(ids, np.zeros((2, 3)), counts, covs)
    with pytest.raises(DataError, match="means must be a 2-D array"):
        BaseStatsTable(ids, np.zeros(2), counts, covs)
    with pytest.raises(DataError, match="need 2 class ids"):
        BaseStatsTable([0, 1, 2], means, counts, covs)
    with pytest.raises(DataError, match="need 2 class ids"):
        BaseStatsTable(ids, means, [5], covs)
    with pytest.raises(DataError, match="need 2 class ids"):
        BaseStatsTable(ids, means, counts, covs[:1])


def test_table_keeps_its_arrays_without_a_copy():
    ds, split, _ = generate_synthetic(SyntheticSpec(
        num_classes=6, dim=5, samples_per_class=30, group_size=3, seed=2))
    built = build_base_stats(ds, split)
    for covs in (built.packed_covariances,
                 built.packed_covariances.astype(np.float64)):
        table = BaseStatsTable(built.id_array, built.mean_matrix,
                               built.counts, covs)
        assert table.id_array is built.id_array
        assert table.mean_matrix is built.mean_matrix
        assert table.counts is built.counts
        assert table.packed_covariances is covs


def test_built_table_is_float16_and_a_hand_built_one_keeps_its_bits():
    ds, split, _ = generate_synthetic(SyntheticSpec(
        num_classes=6, dim=5, samples_per_class=30, group_size=3, seed=2))
    assert build_base_stats(ds, split).packed_covariances.dtype == np.float16
    # 1/3 and 0.1 have no float32 or float16 form: a table rounded to a
    # narrower dtype would change them
    covs = np.array([packed([[1 / 3, 0.1], [0.1, 2 / 3]])])
    for dtype in (np.float64, np.float32, np.float16):
        given = covs.astype(dtype)
        table = BaseStatsTable([0], [[0.0, 0.0]], [5], given)
        assert table.packed_covariances.dtype == dtype
        assert table.packed_covariances is given
    # other dtypes, such as integers, become float64
    ints = BaseStatsTable([0], [[0.0, 0.0]], [5], [[2, 1, 3]])
    assert ints.packed_covariances.dtype == np.float64


def test_build_base_stats_matches_per_class_calls():
    ds, split, _ = generate_synthetic(SyntheticSpec(
        num_classes=6, dim=5, samples_per_class=30, group_size=3, seed=2))
    table = build_base_stats(ds, split)
    assert set(table.id_array.tolist()) == split.base_classes
    for row, cid in enumerate(table.id_array.tolist()):
        # the class's rows alone, in float64, out of place
        feats = ds.values[ds.rows_for(cid)].astype(np.float64)
        mean = feats.mean(axis=0)
        centered = feats - mean
        cov = centered.T @ centered / (len(feats) - 1)
        assert np.array_equal(table.mean_matrix[row], mean)
        assert np.array_equal(covariance(table, row),
                              ((cov + cov.T) / 2.0).astype(np.float16))
        assert table.counts[row] == 30


def test_table_entries_equal_their_inputs_in_id_order():
    rng = np.random.default_rng(3)
    ids = [2, 5, 7, 11]
    means = rng.normal(size=(4, 4))
    counts = rng.integers(2, 50, size=4)
    covs = []
    for _ in ids:
        a = rng.normal(size=(9, 4))
        covs.append(a.T @ a / 8)
    table = BaseStatsTable(ids, means, counts,
                           np.stack([packed(c) for c in covs]))
    assert table.id_array.tolist() == ids
    assert len(table) == 4
    assert np.array_equal(table.mean_matrix, means)
    assert np.array_equal(table.counts, counts)
    for row in range(4):
        # stored as the row-major lower triangle
        assert np.array_equal(table.packed_covariances[row],
                              covs[row][np.tril_indices(4)])
        lower = np.tril(covs[row])
        assert np.array_equal(
            np.take(table.packed_covariances[row], table.gather_map),
            lower + np.tril(lower, -1).T)


def test_variance_cosine_is_that_of_the_covariance_diagonals():
    ds, split, _ = generate_synthetic(SyntheticSpec(
        num_classes=20, dim=33, samples_per_class=40, group_size=5, seed=6))
    table = build_base_stats(ds, split)
    # contiguous float64 copies of the stored float16 variances: BLAS may
    # round a dot product over strided elements differently
    diagonals = [covariance(table, row).diagonal().astype(np.float64)
                 for row in range(len(table))]
    ids = table.id_array.tolist()
    for ra, a in enumerate(ids):
        for rb, b in enumerate(ids):
            u, v = diagonals[ra], diagonals[rb]
            expected = float(np.dot(u, v)
                             / (np.linalg.norm(u) * np.linalg.norm(v)))
            assert class_similarity(table, a, b)[1] == expected


def private_mapping_of_its_own(array) -> bool:
    """Whether ``array`` fills an anonymous private mapping of exactly its
    size from the mapping's start."""
    buf = array.base
    while isinstance(buf, np.ndarray):
        buf = buf.base
    # np.frombuffer keeps a memoryview of the buffer it was given
    if isinstance(buf, memoryview):
        buf = buf.obj
    start = array.__array_interface__["data"][0]
    if not (isinstance(buf, mmap.mmap) and len(buf) == array.nbytes
            and start % mmap.PAGESIZE == 0):
        return False
    # the kernel may merge the mapping's entry with a neighbouring one's,
    # so only the entry holding it is checked: private ("p"), of no file
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            span, perms, _, _, inode = line.split()[:5]
            low, high = (int(v, 16) for v in span.split("-"))
            if low <= start < high:
                return perms == "rw-p" and inode == "0"
    return False


def test_build_base_stats_holds_one_full_covariance_at_a_time(tmp_path):
    # 12 base classes at d=256: all 12 full float64 covariances take 6.29
    # MB.  The packed float16 table (0.79 MB) is a mapping of its own,
    # which tracemalloc does not see, so the bound is the scratch alone:
    # three full float64 matrices (the product of the class being computed
    # is one; the gather map, briefly two while the table builds it, comes
    # after the fill).  The build peaked at 1.43 MB against 1.57, reading
    # two classes at a time.  From a loaded dataset too, whose rows are
    # read out of the strided records into the same float64 copy.
    ds, split, _ = generate_synthetic(SyntheticSpec(
        num_classes=15, dim=256, samples_per_class=64, group_size=5, seed=4))
    d = ds.dim
    bound = 3 * d * d * 8
    for source in (ds, through_file(ds, tmp_path)):
        tracemalloc.start()
        try:
            table = build_base_stats(source, split)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table) == 12
        assert peak < bound, (f"peak {peak / 1e6:.2f} MB, "
                              f"bound {bound / 1e6:.2f} MB")
        assert private_mapping_of_its_own(table.packed_covariances)


TABLE_ARRAYS = ("id_array", "mean_matrix", "counts", "packed_covariances")


def shuffled_world():
    """Nine base classes of 50 rows at d=32 whose records are shuffled, so
    each class's rows are spread over the whole file."""
    ds, split, _ = generate_synthetic(SyntheticSpec(
        num_classes=12, dim=32, samples_per_class=50, group_size=4, seed=6))
    order = np.random.default_rng(6).permutation(ds.count)
    return Dataset(ds.class_ids[order], ds.values[order]), split


def force_threads(monkeypatch):
    """Split the build's reads between two threads, whatever the classes'
    sizes and the BLAS."""
    monkeypatch.setattr(stats, "_two_threads", lambda rows, most, reads: True)


def read_threads(monkeypatch):
    """The ids of the threads that read rows of a dataset, one per read."""
    seen = []
    read = Dataset._rows
    monkeypatch.setattr(Dataset, "_rows", lambda self, idx: (
        seen.append(threading.get_ident()), read(self, idx))[1])
    return seen


def fake_openblas(count):
    """A stand-in for one loaded OpenBLAS at ``count`` threads, and the list
    of every count set on it."""
    counts = [count]
    return ((lambda: counts[-1], counts.append),), counts


@pytest.mark.parametrize("dontneed", [True, False],
                         ids=["release", "no-madvise"])
def test_loaded_dataset_builds_the_same_table(tmp_path, monkeypatch,
                                              dontneed):
    # the records are shuffled, so each class's rows are spread over the
    # file, and a release after each read drops pages that classes still
    # to come read again; reads of two classes each release five times for
    # the nine base classes.  A platform without MADV_DONTNEED maps the
    # file and releases nothing.
    ds, split = shuffled_world()
    expected = build_base_stats(ds, split)
    monkeypatch.setattr(stats, "_READ_BYTES", 2 * 50 * 8 * 32)
    if not dontneed:
        monkeypatch.delattr(mmap, "MADV_DONTNEED")
    released = []
    release = Dataset._release
    monkeypatch.setattr(Dataset, "_release", lambda self: (
        released.append(self), release(self)))
    loaded = through_file(ds, tmp_path)
    assert isinstance(loaded._mapping, mmap.mmap)
    table = build_base_stats(loaded, split)
    for name in TABLE_ARRAYS:
        assert np.array_equal(getattr(table, name), getattr(expected, name))
    assert loaded.values.tobytes() == ds.values.tobytes()
    assert len(split.base_classes) == 9
    assert released == [loaded] * 5


def test_threaded_build_gives_the_serial_table(tmp_path, monkeypatch):
    # each class's 50 rows exceed a read's bytes, so each is read alone,
    # and each thread's release of the mapping drops pages the other is
    # reading; the two threads, switching often, interleave
    ds, split = shuffled_world()
    expected = build_base_stats(ds, split)
    loaded = through_file(ds, tmp_path)
    monkeypatch.setattr(stats, "_READ_BYTES", 49 * 8 * 32)
    force_threads(monkeypatch)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for source in (ds, loaded):
            table = build_base_stats(source, split)
            for name in TABLE_ARRAYS:
                assert np.array_equal(getattr(table, name),
                                      getattr(expected, name)), name
    finally:
        sys.setswitchinterval(switch)
    assert loaded.values.tobytes() == ds.values.tobytes()


def test_threads_only_for_two_or_more_reads_of_one_large_class_each(
        monkeypatch):
    large = [np.arange(11)] * 4
    libs, _ = fake_openblas(2)
    monkeypatch.setattr(stats, "_openblas", lambda: libs)
    assert stats._two_threads(large, 10, 4)
    # a class small enough to share a read, or a single read
    assert not stats._two_threads(large + [np.arange(10)], 10, 5)
    assert not stats._two_threads(large[:1], 10, 1)
    # two threads also beside more BLAS threads, none beside a single one
    libs, _ = fake_openblas(8)
    monkeypatch.setattr(stats, "_openblas", lambda: libs)
    assert stats._two_threads(large, 10, 4)
    for count in (1, 0):
        libs, _ = fake_openblas(count)
        monkeypatch.setattr(stats, "_openblas", lambda: libs)
        assert not stats._two_threads(large, 10, 4)
    # no OpenBLAS setter found
    monkeypatch.setattr(stats, "_openblas", lambda: ())
    assert not stats._two_threads(large, 10, 4)


def test_build_pins_blas_to_one_thread_while_its_threads_run(monkeypatch):
    # the real condition, with every class read alone: the count is set to
    # 1 for the build and given back after it, also when a read raises
    ds, split = shuffled_world()
    monkeypatch.setattr(stats, "_READ_BYTES", 49 * 8 * 32)
    libs, counts = fake_openblas(2)
    monkeypatch.setattr(stats, "_openblas", lambda: libs)
    seen = read_threads(monkeypatch)
    table = build_base_stats(ds, split)
    assert counts == [2, 1, 2]
    assert len(seen) == 9 and len(set(seen)) == 2 and len(table) == 9
    calls = itertools.count()
    read = Dataset._rows

    def failing(self, idx):
        if next(calls) == 4:
            raise DataError("unreadable rows")
        return read(self, idx)

    monkeypatch.setattr(Dataset, "_rows", failing)
    with pytest.raises(DataError, match="unreadable rows"):
        build_base_stats(ds, split)
    assert counts == [2, 1, 2, 1, 2]


def test_build_gives_back_the_openblas_thread_count(monkeypatch):
    libs = stats._openblas()
    if not libs:
        pytest.skip("no OpenBLAS thread setter found in this process")
    before = [get() for get, _ in libs]
    ds, split = shuffled_world()
    force_threads(monkeypatch)
    during = []
    read = Dataset._rows
    monkeypatch.setattr(Dataset, "_rows", lambda self, idx: (
        during.append([get() for get, _ in libs]), read(self, idx))[1])
    build_base_stats(ds, split)
    assert during and all(c == [1] * len(libs) for c in during)
    assert [get() for get, _ in libs] == before

    def failing(self, idx):
        raise DataError("unreadable rows")

    monkeypatch.setattr(Dataset, "_rows", failing)
    with pytest.raises(DataError, match="unreadable rows"):
        build_base_stats(ds, split)
    assert [get() for get, _ in libs] == before


def test_build_without_an_openblas_setter_runs_serially(monkeypatch):
    ds, split = shuffled_world()
    expected = build_base_stats(ds, split)
    monkeypatch.setattr(stats, "_READ_BYTES", 49 * 8 * 32)
    monkeypatch.setattr(stats, "_openblas", lambda: ())
    # no pool can start: every read runs on the calling thread
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", None)
    seen = read_threads(monkeypatch)
    table = build_base_stats(ds, split)
    assert seen == [threading.get_ident()] * 9
    for name in TABLE_ARRAYS:
        assert np.array_equal(getattr(table, name), getattr(expected, name))


def test_threaded_build_holds_one_read_and_scratch_per_thread(tmp_path,
                                                              monkeypatch):
    # 12 base classes of 160 rows at d=256, each read alone (328 kB): the
    # packed layout's indices, shared, take 0.26 MB; each thread holds its
    # product (0.52 MB), its float64 triangle (0.26 MB) and its read, with
    # one 64 KiB block of float32 rows while the read is gathered.  256 KiB
    # more, less than a read, covers the means, the sort order and the
    # pool.  The packed table is a mapping of its own, which tracemalloc
    # does not see.  The build peaked at 2.70 MB against a 2.89 MB bound.
    ds, split, _ = generate_synthetic(SyntheticSpec(
        num_classes=15, dim=256, samples_per_class=160, group_size=5,
        seed=4))
    n, d, threads = len(split.base_classes), ds.dim, 2
    force_threads(monkeypatch)
    triangle = d * (d + 1) // 2
    scratch = (d * d + triangle + 160 * d) * 8 + (1 << 16)
    bound = triangle * 8 + threads * scratch + (1 << 18)
    for source in (ds, through_file(ds, tmp_path)):
        tracemalloc.start()
        try:
            table = build_base_stats(source, split)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table) == 12
        assert peak < bound, (f"peak {peak / 1e6:.2f} MB, "
                              f"bound {bound / 1e6:.2f} MB")


def test_threaded_build_then_parallel_evaluate_gives_the_serial_report(
        monkeypatch):
    # the build's threads are joined before it returns, so the workers
    # evaluate forks copy no live helper thread
    ds, split, _ = generate_synthetic(SyntheticSpec(
        num_classes=10, dim=8, samples_per_class=40, group_size=5, seed=17))
    spec = EpisodeSpec(n_way=2, k_shot=1, q_queries=5, num_episodes=6, seed=5)
    cfg = PipelineConfig()
    serial = evaluate(ds, split, build_base_stats(ds, split), spec, cfg)
    force_threads(monkeypatch)
    alive = threading.active_count()
    table = build_base_stats(ds, split)
    assert threading.active_count() == alive
    parallel = evaluate(ds, split, table, spec, cfg, workers=2)
    assert parallel.to_json() == serial.to_json()


def test_build_base_stats_missing_class():
    ds = Dataset([0, 0], [[1.0], [2.0]])
    with pytest.raises(DataError, match="class 5 has 0 records"):
        build_base_stats(ds, SplitManifest(base=[0, 5]))


def test_build_base_stats_single_record_class():
    ds = Dataset([0, 0, 1], [[1.0], [2.0], [3.0]])
    with pytest.raises(DataError, match="class 1"):
        build_base_stats(ds, SplitManifest(base=[0, 1]))


def test_variance_at_float16_max_is_kept_and_one_above_it_refused():
    # four rows whose first feature deviates from its mean of 0 by 4, 136,
    # 220 and -360: their squares sum to 3 x 65504, so the variance is
    # float16's largest value exactly, and is kept
    edge = np.array([[4.0, 1.0], [136.0, -1.0], [220.0, 1.0], [-360.0, -1.0]])
    table = table_of(edge)
    assert covariance(table)[0, 0] == 65504.0
    assert np.isfinite(covariance(table)).all()
    # a second feature of variance 362^2 / 2 = 65522, which float16 would
    # round to inf (pytest makes the cast's overflow warning an error)
    wide = np.array([[0.0, 0.0], [0.0, 362.0]])
    with pytest.raises(DataError, match="base class 1 has a variance above "
                                        "65504, the largest float16 value"):
        table_of(edge, wide)


def test_stats_accuracy_on_synthetic_truth():
    spec = SyntheticSpec(num_classes=2, dim=4, samples_per_class=50_000,
                         group_size=2, seed=13)
    ds, _, latent_means = generate_synthetic(spec)
    split = SplitManifest(base=[0, 1])
    table = build_base_stats(ds, split)
    for cid in (0, 1):
        mean, var = feature_moments(latent_means[cid], spec.skew_power)
        se = np.sqrt(var / 50_000)
        assert np.all(np.abs(table.mean_matrix[cid] - mean) < 5 * se)
        assert np.allclose(covariance(table, cid).diagonal(), var, rtol=0.05)


def test_similarity_self_and_orthogonal():
    table = BaseStatsTable([0, 1], [[1.0, 0.0], [0.0, 1.0]], [5, 5],
                           np.stack([packed(np.eye(2))] * 2))
    mean_cos, var_cos = class_similarity(table, 0, 0)
    assert mean_cos == pytest.approx(1.0)
    assert var_cos == pytest.approx(1.0)
    mean_cos, var_cos = class_similarity(table, 0, 1)
    assert mean_cos == pytest.approx(0.0, abs=1e-12)
    assert var_cos == pytest.approx(1.0)


def test_similarity_same_group_beats_cross_group():
    ds, split, _ = generate_synthetic(SyntheticSpec(
        num_classes=6, dim=16, samples_per_class=200, group_size=3, seed=21))
    table = build_base_stats(ds, SplitManifest(base=list(range(6))))
    same, _ = class_similarity(table, 0, 1)
    cross, _ = class_similarity(table, 0, 3)
    assert same > cross


def test_similarity_errors():
    table = BaseStatsTable([0, 2, 3], [[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]],
                           [5, 5, 5], [packed(np.eye(2)), packed(np.eye(2)),
                                       packed(np.zeros((2, 2)))])
    with pytest.raises(DataError, match="zero vector"):
        class_similarity(table, 0, 2)
    with pytest.raises(DataError, match="zero vector"):
        class_similarity(table, 0, 3)
    for a, b in ((0, 1), (1, 0), (4, 4)):
        with pytest.raises(DataError, match="no statistics for class"):
            class_similarity(table, a, b)


def test_table_lookup_errors():
    table = BaseStatsTable([3], [np.zeros(2)], [5], [packed(np.eye(2))])
    assert table.dim == 2
    with pytest.raises(DataError, match="class 4"):
        class_similarity(table, 3, 4)
