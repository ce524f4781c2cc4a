import numpy as np
import pytest

from fsdc.calibration import (CalibrationParams, calibrate,
                              calibrate_support_set,
                              retrieve_nearest_class_features)
from fsdc.errors import DataError, SpecError
from fsdc.features_io import Dataset, SplitManifest, SyntheticSpec, generate_synthetic
from fsdc.rng import PortableRng
from fsdc.stats import BaseStatsTable, build_base_stats


def table_from_means(means, covs=None):
    """A table of ``means``, each with count 10 and the covariance of the
    same row of ``covs`` (the identity when None), packed at the covariances'
    dtype."""
    means = np.asarray(means, dtype=np.float64)
    n, d = means.shape
    lower = np.tril_indices(d)
    covs = [np.eye(d)] * n if covs is None else np.asarray(covs)
    return BaseStatsTable(range(n), means, [10] * n,
                          np.stack([cov[lower] for cov in covs]))


# ------------------------------------------------------------ neighbor search

def nearest(x, table, k):
    """The ids of the k base classes that ``calibrate`` borrows from."""
    return list(calibrate(x, table, CalibrationParams(k=k)).neighbor_class_ids)


def test_nearest_exact_match():
    t = table_from_means([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]])
    assert nearest([5.0, 5.0], t, 1) == [1]


def test_nearest_ordering():
    t = table_from_means([[0.0], [1.0], [10.0]])
    assert nearest([2.0], t, 3) == [1, 0, 2]


def test_nearest_tie_breaks_to_lower_id():
    t = table_from_means([[1.0, 0.0], [-1.0, 0.0], [0.0, 50.0]])
    # class 0 and 1 are equidistant from the origin
    assert nearest([0.0, 0.0], t, 2) == [0, 1]


def test_nearest_matches_brute_force():
    rng = np.random.default_rng(3)
    means = rng.normal(size=(20, 6))
    t = table_from_means(means)
    for trial in range(50):
        x = rng.normal(size=6)
        d = ((means - x) ** 2).sum(axis=1)
        expected = sorted(range(20), key=lambda i: (d[i], i))[:4]
        assert nearest(x, t, 4) == expected


def test_nearest_rejects_bad_arguments():
    t = table_from_means([[0.0], [1.0]])
    with pytest.raises(SpecError):
        nearest([0.0], t, 3)
    with pytest.raises(SpecError):
        nearest([0.0], t, 0)
    with pytest.raises(DataError, match=r"feature has shape \(2,\)"):
        nearest([0.0, 1.0], t, 1)


# ---------------------------------------------------------------- calibration

def test_calibrate_k1_alpha0():
    t = table_from_means([[0.0, 0.0], [6.0, 0.0]],
                         covs=[np.eye(2) * 2.0, np.eye(2) * 4.0])
    d = calibrate([1.0, 1.0], t, CalibrationParams(k=1, alpha=0.0))
    assert np.array_equal(d.mean, [0.5, 0.5])
    assert np.array_equal(d.covariance, np.eye(2) * 2.0)
    assert d.neighbor_class_ids == (0,)


def test_calibrate_alpha_adds_to_every_element():
    t = table_from_means([[0.0, 0.0]], covs=[np.array([[1.0, 0.0], [0.0, 2.0]])])
    d = calibrate([0.0, 0.0], t, CalibrationParams(k=1, alpha=0.21))
    assert np.allclose(d.covariance, [[1.21, 0.21], [0.21, 2.21]])


def test_calibrate_k2_averages():
    t = table_from_means([[0.0, 0.0], [3.0, 0.0], [50.0, 50.0]],
                         covs=[np.eye(2) * 1.0, np.eye(2) * 3.0, np.eye(2) * 9.0])
    d = calibrate([0.0, 0.0], t, CalibrationParams(k=2, alpha=0.0))
    assert np.allclose(d.mean, [1.0, 0.0])
    assert np.allclose(d.covariance, np.eye(2) * 2.0)


def test_calibrate_without_novel_feature():
    t = table_from_means([[4.0, 2.0], [40.0, 40.0]])
    d = calibrate([0.0, 0.0], t,
                  CalibrationParams(k=1, use_novel_feature=False))
    assert np.array_equal(d.mean, [4.0, 2.0])


def test_calibrate_translation_consistency():
    rng = np.random.default_rng(5)
    means = rng.normal(size=(6, 3))
    covs = []
    for _ in range(6):
        a = rng.normal(size=(5, 3))
        c = a.T @ a
        covs.append((c + c.T) / 2)
    t = table_from_means(means, covs)
    shift = np.array([10.0, -3.0, 2.5])
    t_shifted = table_from_means(means + shift, covs)
    x = rng.normal(size=3)
    d = calibrate(x, t, CalibrationParams(k=2, alpha=0.1))
    d_shifted = calibrate(x + shift, t_shifted, CalibrationParams(k=2, alpha=0.1))
    assert d.neighbor_class_ids == d_shifted.neighbor_class_ids
    assert np.allclose(d_shifted.mean, d.mean + shift, atol=1e-12)
    assert np.allclose(d_shifted.covariance, d.covariance, atol=1e-12)


def test_calibrate_alpha_is_affine_in_covariance():
    t = table_from_means([[0.0, 0.0]], covs=[np.array([[2.0, 0.3], [0.3, 1.0]])])
    lo = calibrate([1.0, 0.0], t, CalibrationParams(k=1, alpha=0.1))
    hi = calibrate([1.0, 0.0], t, CalibrationParams(k=1, alpha=0.5))
    assert np.allclose(hi.covariance - lo.covariance, 0.4)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("alpha", [0.0, 0.21])
def test_calibrate_covariance_equals_out_of_place_expression(k, alpha):
    # calibrate sums packed lower triangles in place and expands the sum;
    # each element must round exactly as the full-matrix expression
    # (0 + cov_n1 + ... + cov_nk) / k + alpha does, in neighbor order and
    # in float64, from a float64, float32 or float16 table (the last as
    # built), whose elements float64 holds exactly
    rng = np.random.default_rng(12)
    covs = []
    for _ in range(3):
        a = rng.normal(size=(9, 5))
        covs.append(a.T @ a / 8)
    means = rng.normal(size=(3, 5))
    x = rng.normal(size=5)
    for dtype in (np.float64, np.float32, np.float16):
        stored = [cov.astype(dtype) for cov in covs]
        t = table_from_means(means, stored)
        assert t.packed_covariances.dtype == dtype
        kept = t.packed_covariances.copy()
        cov_sum = np.zeros((5, 5))
        # the nearest means first; a stable sort breaks ties to the lower id
        order = np.argsort(((means - x) ** 2).sum(axis=1), kind="stable")
        for cid in order[:k]:
            cov_sum += stored[cid]
        for use_novel_feature in (True, False):
            d = calibrate(x, t, CalibrationParams(
                k=k, alpha=alpha, use_novel_feature=use_novel_feature))
            assert d.covariance.dtype == np.float64
            assert np.array_equal(d.covariance, cov_sum / k + alpha)
            assert np.array_equal(d.covariance, d.covariance.T)
        assert np.array_equal(t.packed_covariances, kept)


def test_calibrated_covariance_stays_symmetric():
    ds, split, _ = generate_synthetic(SyntheticSpec(
        num_classes=6, dim=8, samples_per_class=40, group_size=3, seed=6))
    table = build_base_stats(ds, split)
    d = calibrate(ds.values[0].astype(np.float64), table, CalibrationParams())
    assert np.array_equal(d.covariance, d.covariance.T)


# ---------------------------------------------------------------- support set

def test_calibrate_support_set_one_shot():
    t = table_from_means([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]])
    xs = np.array([[0.1, 0.1], [4.9, 4.9]])
    out = calibrate_support_set(xs, [0, 1], t, CalibrationParams(k=1))
    assert set(out) == {0, 1}
    assert len(out[0]) == 1
    assert len(out[1]) == 1
    params = CalibrationParams(k=1)
    assert np.array_equal(out[0][0].mean, calibrate(xs[0], t, params).mean)
    assert np.array_equal(out[1][0].mean, calibrate(xs[1], t, params).mean)


def test_calibrate_support_set_five_shot():
    t = table_from_means([[0.0], [9.0]])
    xs = np.arange(10, dtype=np.float64).reshape(10, 1)
    ys = [0] * 5 + [1] * 5
    out = calibrate_support_set(xs, ys, t, CalibrationParams(k=1))
    assert len(out[0]) == 5
    assert len(out[1]) == 5
    # each label's distributions are in support order
    for label, rows in ((0, range(5)), (1, range(5, 10))):
        for dist, i in zip(out[label], rows):
            assert np.array_equal(dist.mean,
                                  calibrate(xs[i], t, CalibrationParams(k=1)).mean)


def test_identical_support_features_calibrate_identically():
    t = table_from_means([[0.0, 0.0], [3.0, 3.0]])
    xs = np.array([[1.0, 1.0], [1.0, 1.0]])
    out = calibrate_support_set(xs, [0, 1], t, CalibrationParams(k=1))
    assert np.array_equal(out[0][0].mean, out[1][0].mean)
    assert np.array_equal(out[0][0].covariance, out[1][0].covariance)


def test_calibrate_support_set_shape_errors():
    t = table_from_means([[0.0]])
    with pytest.raises(DataError, match="support labels must match"):
        calibrate_support_set(np.zeros((2, 1)), [0], t, CalibrationParams(k=1))
    with pytest.raises(DataError, match="support features must be 2-D"):
        calibrate_support_set(np.zeros(3), [0, 1, 2], t, CalibrationParams(k=1))


def test_calibration_params_validation():
    with pytest.raises(SpecError):
        CalibrationParams(k=0)
    with pytest.raises(SpecError):
        CalibrationParams(alpha=-0.1)
    for alpha in (np.inf, np.nan):
        with pytest.raises(SpecError):
            CalibrationParams(alpha=alpha)


# ------------------------------------------------------------------ retrieval

def test_retrieval_draws_from_nearest_class():
    ds = Dataset([0, 0, 0, 1, 1, 1],
                 [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1],
                  [5.0, 5.0], [5.1, 5.0], [5.0, 5.1]])
    t = table_from_means([[0.0, 0.0], [5.0, 5.0]])
    got = retrieve_nearest_class_features([4.8, 4.8], ds, t, 3, PortableRng(1))
    assert got.shape == (3, 2)
    assert np.all(got > 4.0)


def test_retrieval_is_deterministic_per_seed():
    ds = Dataset([0] * 10, np.arange(10, dtype=np.float64).reshape(10, 1))
    t = table_from_means([[0.0]])
    a = retrieve_nearest_class_features([0.0], ds, t, 4, PortableRng(9))
    b = retrieve_nearest_class_features([0.0], ds, t, 4, PortableRng(9))
    c = retrieve_nearest_class_features([0.0], ds, t, 4, PortableRng(10))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_retrieval_without_replacement():
    ds = Dataset([0] * 6, np.arange(6, dtype=np.float64).reshape(6, 1))
    t = table_from_means([[0.0]])
    got = retrieve_nearest_class_features([0.0], ds, t, 6, PortableRng(2))
    assert sorted(float(v) for v in got[:, 0]) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


def test_retrieval_m_too_large():
    ds = Dataset([0, 0], [[1.0], [2.0]])
    t = table_from_means([[0.0]])
    with pytest.raises(DataError, match="has 2 records, cannot retrieve 3"):
        retrieve_nearest_class_features([0.0], ds, t, 3, PortableRng(1))
    with pytest.raises(SpecError):
        retrieve_nearest_class_features([0.0], ds, t, 0, PortableRng(1))
