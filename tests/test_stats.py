import mmap
import tracemalloc

import numpy as np
import pytest

from fsdc import features_io
from fsdc.errors import DataError
from fsdc.features_io import (Dataset, SplitManifest, SyntheticSpec,
                              generate_synthetic, load_dataset, save_dataset)
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
    # the build divides in place; every element must round as
    # (c / (n - 1) + (c / (n - 1)).T) / 2 does in float64, rounded once to
    # float32.  A larger class goes first, so its rows are left in the
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
                              ((cov + cov.T) / 2.0).astype(np.float32))


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


def test_built_table_is_float32_and_a_float64_one_keeps_its_bits():
    ds, split, _ = generate_synthetic(SyntheticSpec(
        num_classes=6, dim=5, samples_per_class=30, group_size=3, seed=2))
    assert build_base_stats(ds, split).packed_covariances.dtype == np.float32
    # 1/3 and 0.1 have no float32 form: a rounded table would change them
    covs = np.array([packed([[1 / 3, 0.1], [0.1, 2 / 3]])])
    table = BaseStatsTable([0], [[0.0, 0.0]], [5], covs)
    assert table.packed_covariances.dtype == np.float64
    assert np.array_equal(table.packed_covariances, covs)
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
                              ((cov + cov.T) / 2.0).astype(np.float32))
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
    # contiguous float64 copies of the stored float32 variances: BLAS may
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


def test_build_base_stats_holds_one_full_covariance_at_a_time(tmp_path):
    # 12 base classes at d=256: the packed float32 table takes 1.58 MB, all
    # 12 full float64 covariances 6.29 MB; the bound allows the table plus
    # three full float64 matrices (the product of the class being computed
    # is one; the gather map, briefly two while the table builds it, comes
    # after the fill).  The build peaked at 3.00 MB: the table plus 2.71.
    # From a loaded dataset too, whose strided values np.take would first
    # copy whole (0.98 MB more).
    ds, split, _ = generate_synthetic(SyntheticSpec(
        num_classes=15, dim=256, samples_per_class=64, group_size=5, seed=4))
    n, d = len(split.base_classes), ds.dim
    bound = n * d * (d + 1) // 2 * 4 + 3 * d * d * 8
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


@pytest.mark.parametrize("dontneed", [True, False],
                         ids=["release", "no-madvise"])
def test_loaded_dataset_builds_the_same_table(tmp_path, monkeypatch,
                                              dontneed):
    # the records are shuffled, so each class's rows are spread over the
    # file and a released span holds rows of classes still to come; with
    # spans of at least 4 KB the build releases many times.  A platform
    # without MADV_DONTNEED maps the file and releases nothing.
    ds, split, _ = generate_synthetic(SyntheticSpec(
        num_classes=12, dim=32, samples_per_class=50, group_size=4, seed=6))
    order = np.random.default_rng(6).permutation(ds.count)
    ds = Dataset(ds.class_ids[order], ds.values[order])
    expected = build_base_stats(ds, split)
    monkeypatch.setattr(features_io, "_CHUNK_BYTES", 4096)
    if not dontneed:
        monkeypatch.delattr(mmap, "MADV_DONTNEED")
    spans = []
    release = Dataset._release
    monkeypatch.setattr(Dataset, "_release", lambda self, start, stop: (
        spans.append((start, stop)), release(self, start, stop)))
    loaded = through_file(ds, tmp_path)
    assert isinstance(loaded._mapping, mmap.mmap)
    table = build_base_stats(loaded, split)
    for name in ("id_array", "mean_matrix", "counts", "packed_covariances"):
        assert np.array_equal(getattr(table, name), getattr(expected, name))
    assert loaded.values.tobytes() == ds.values.tobytes()
    # every gathered record lies in a released span, and every span but
    # the last is at least 4 KB of records
    released = np.zeros(ds.count, dtype=bool)
    for start, stop in spans:
        released[start:stop] = True
    base = np.isin(ds.class_ids, sorted(split.base_classes))
    assert released[base].all()
    assert all((stop - start) * (4 + 4 * 32) >= 4096
               for start, stop in spans[:-1])


def test_build_base_stats_missing_class():
    ds = Dataset([0, 0], [[1.0], [2.0]])
    with pytest.raises(DataError, match="class 5 has 0 records"):
        build_base_stats(ds, SplitManifest(base=[0, 5]))


def test_build_base_stats_single_record_class():
    ds = Dataset([0, 0, 1], [[1.0], [2.0], [3.0]])
    with pytest.raises(DataError, match="class 1"):
        build_base_stats(ds, SplitManifest(base=[0, 1]))


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
