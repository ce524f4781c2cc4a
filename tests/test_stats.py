import tracemalloc

import numpy as np
import pytest

from fsdc.errors import (DataError, DimensionError, EmptyClassError,
                         InsufficientSamplesError, MissingClassError,
                         UndefinedStatisticError)
from fsdc.features_io import Dataset, SplitManifest, SyntheticSpec, generate_synthetic
from fsdc.stats import (BaseStatsTable, ClassStatistics, build_base_stats,
                        class_covariance, class_mean, class_similarity)


def test_class_mean_basic():
    assert np.array_equal(class_mean([[0.0, 2.0], [2.0, 4.0]]), [1.0, 3.0])


def test_class_mean_empty_rejected():
    with pytest.raises(EmptyClassError):
        class_mean(np.empty((0, 3)))


def test_covariance_hand_example():
    cov = class_covariance([[0.0, 0.0], [2.0, 2.0]])
    assert np.array_equal(cov, [[2.0, 2.0], [2.0, 2.0]])


def test_covariance_identical_samples_is_zero():
    cov = class_covariance([[1.0, 5.0]] * 4)
    assert np.array_equal(cov, np.zeros((2, 2)))


def test_covariance_needs_two_samples():
    with pytest.raises(InsufficientSamplesError):
        class_covariance([[1.0, 2.0]])


def test_covariance_is_exactly_symmetric():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(50, 7))
    cov = class_covariance(x)
    assert np.array_equal(cov, cov.T)


def test_covariance_permutation_invariant():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(30, 4))
    cov_a = class_covariance(x)
    cov_b = class_covariance(x[rng.permutation(30)])
    assert np.allclose(cov_a, cov_b, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("d", [3, 16, 640])
@pytest.mark.parametrize("n", [5, 6])
def test_covariance_rounds_as_the_out_of_place_expression(d, n):
    # class_covariance divides and symmetrizes in place; every element must
    # round as (c / (n - 1) + (c / (n - 1)).T) / 2 does
    x = np.random.default_rng(d + n).normal(size=(n, d))
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    assert np.array_equal(class_covariance(x), (cov + cov.T) / 2.0)


def test_covariance_monte_carlo():
    # draws from a known 3-d Gaussian; the estimate should approach the truth
    rng = np.random.default_rng(7)
    target = np.array([[2.0, 0.5, 0.0],
                       [0.5, 1.0, 0.3],
                       [0.0, 0.3, 0.7]])
    chol = np.linalg.cholesky(target)
    x = rng.normal(size=(200_000, 3)) @ chol.T
    cov = class_covariance(x)
    err = np.linalg.norm(cov - target) / np.linalg.norm(target)
    assert err < 0.02


def test_covariance_unbiased_scaling():
    # n=2 identical offsets: cov = d d^T / 1, which doubles the naive /n value
    cov = class_covariance([[0.0], [2.0]])
    assert cov[0, 0] == 2.0


def test_class_statistics_validation():
    with pytest.raises(DataError):
        ClassStatistics(0, np.zeros(2), np.array([[1.0, 0.1], [0.2, 1.0]]), 5)
    with pytest.raises(InsufficientSamplesError):
        ClassStatistics(0, np.zeros(2), np.eye(2), 1)
    with pytest.raises(DimensionError):
        ClassStatistics(0, np.zeros(3), np.eye(2), 5)


def test_build_base_stats_matches_per_class_calls():
    ds, split, _ = generate_synthetic(SyntheticSpec(
        num_classes=6, dim=5, samples_per_class=30, group_size=3, seed=2))
    table = build_base_stats(ds, split)
    assert set(table.class_ids()) == split.base_classes
    for cid in table.class_ids():
        feats = ds.features_for(cid)
        assert np.array_equal(table.entry(cid).mean, class_mean(feats))
        assert np.array_equal(table.entry(cid).covariance,
                              class_covariance(feats))
        assert table.entry(cid).count == 30


def test_table_entries_equal_their_inputs_in_id_order():
    rng = np.random.default_rng(3)
    inputs = {}
    for cid in (7, 2, 11, 5):
        a = rng.normal(size=(9, 4))
        inputs[cid] = ClassStatistics(cid, rng.normal(size=4), a.T @ a / 8,
                                      int(rng.integers(2, 50)))
    table = BaseStatsTable(4, inputs.values())
    assert table.class_ids() == [2, 5, 7, 11]
    assert np.array_equal(table.mean_matrix,
                          [inputs[cid].mean for cid in (2, 5, 7, 11)])
    for row, cid in enumerate(table.class_ids()):
        got = table.entry(cid)
        assert got.class_id == cid and got.count == inputs[cid].count
        assert np.array_equal(got.mean, inputs[cid].mean)
        assert np.array_equal(got.covariance, inputs[cid].covariance)
        # stored as the row-major lower triangle
        assert np.array_equal(table.packed_covariances[row],
                              inputs[cid].covariance[np.tril_indices(4)])


def test_build_base_stats_holds_one_full_covariance_at_a_time():
    # 12 base classes at d=256: the packed table takes 3.16 MB, all 12 full
    # covariances 6.29 MB; the bound allows the table plus four full
    # matrices (the gather map is one, the class being computed another)
    ds, split, _ = generate_synthetic(SyntheticSpec(
        num_classes=15, dim=256, samples_per_class=64, group_size=5, seed=4))
    n, d = len(split.base_classes), ds.dim
    bound = n * d * (d + 1) // 2 * 8 + 4 * d * d * 8
    tracemalloc.start()
    try:
        table = build_base_stats(ds, split)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == 12
    assert peak < bound, f"peak {peak / 1e6:.2f} MB, bound {bound / 1e6:.2f} MB"


def test_build_base_stats_missing_class():
    ds = Dataset([0, 0], [[1.0], [2.0]])
    with pytest.raises(MissingClassError):
        build_base_stats(ds, SplitManifest(base=[0, 5]))


def test_build_base_stats_single_record_class():
    ds = Dataset([0, 0, 1], [[1.0], [2.0], [3.0]])
    with pytest.raises(InsufficientSamplesError, match="class 1"):
        build_base_stats(ds, SplitManifest(base=[0, 1]))


def test_stats_accuracy_on_synthetic_truth():
    spec = SyntheticSpec(num_classes=2, dim=4, samples_per_class=50_000,
                         group_size=2, seed=13)
    ds, _, truth = generate_synthetic(spec)
    split = SplitManifest(base=[0, 1])
    table = build_base_stats(ds, split)
    for cid in (0, 1):
        t = truth.classes[cid]
        got = table.entry(cid)
        se = np.sqrt(t.feature_var / 50_000)
        assert np.all(np.abs(got.mean - t.feature_mean) < 5 * se)
        assert np.allclose(np.diag(got.covariance), t.feature_var, rtol=0.05)


def test_similarity_self_and_orthogonal():
    a = ClassStatistics(0, np.array([1.0, 0.0]), np.eye(2), 5)
    b = ClassStatistics(1, np.array([0.0, 1.0]), np.eye(2), 5)
    mean_cos, var_cos = class_similarity(a, a)
    assert mean_cos == pytest.approx(1.0)
    assert var_cos == pytest.approx(1.0)
    mean_cos, var_cos = class_similarity(a, b)
    assert mean_cos == pytest.approx(0.0, abs=1e-12)
    assert var_cos == pytest.approx(1.0)


def test_similarity_same_group_beats_cross_group():
    ds, split, truth = generate_synthetic(SyntheticSpec(
        num_classes=6, dim=16, samples_per_class=200, group_size=3, seed=21))
    table = build_base_stats(ds, SplitManifest(base=list(range(6))))
    same, _ = class_similarity(table.entry(0), table.entry(1))
    cross, _ = class_similarity(table.entry(0), table.entry(3))
    assert same > cross


def test_similarity_errors():
    a = ClassStatistics(0, np.array([1.0, 0.0]), np.eye(2), 5)
    c = ClassStatistics(2, np.zeros(2), np.eye(2), 5)
    wide = ClassStatistics(3, np.zeros(3), np.eye(3), 5)
    with pytest.raises(UndefinedStatisticError):
        class_similarity(a, c)
    with pytest.raises(DimensionError):
        class_similarity(a, wide)


def test_table_lookup_errors():
    table = BaseStatsTable(2, [ClassStatistics(3, np.zeros(2), np.eye(2), 5)])
    assert 3 in table
    assert 4 not in table
    with pytest.raises(MissingClassError):
        table.entry(4)
    with pytest.raises(DimensionError):
        BaseStatsTable(3, [ClassStatistics(0, np.zeros(2), np.eye(2), 5)])
    with pytest.raises(DataError):
        BaseStatsTable(2, [ClassStatistics(0, np.zeros(2), np.eye(2), 5),
                           ClassStatistics(0, np.ones(2), np.eye(2), 5)])
