import tracemalloc

import numpy as np
import pytest

import fsdc.sampling
from fsdc.calibration import (CalibratedDistribution, CalibrationParams,
                              calibrate)
from fsdc.errors import DataError, SpecError
from fsdc.features_io import SyntheticSpec, generate_synthetic
from fsdc.rng import PortableRng, derive_key
from fsdc.sampling import SamplerConfig, cholesky_psd, sample_features
from fsdc.stats import build_base_stats


def dist(mean, cov):
    return CalibratedDistribution(np.asarray(mean, dtype=np.float64),
                                  np.asarray(cov, dtype=np.float64),
                                  neighbor_class_ids=(0,))


# -------------------------------------------------------------- factorization

def test_cholesky_identity_needs_no_shift():
    L, shift = cholesky_psd(np.eye(3))
    assert shift == 0.0
    assert np.array_equal(L, np.eye(3))


def test_cholesky_reconstructs():
    s = np.array([[4.0, 2.0], [2.0, 3.0]])
    L, shift = cholesky_psd(s)
    assert shift == 0.0
    assert np.allclose(L @ L.T, s, atol=1e-12)
    assert np.array_equal(L, np.tril(L))


def test_cholesky_rank_deficient_gets_small_shift():
    s = np.array([[1.0, 1.0], [1.0, 1.0]])
    L, shift = cholesky_psd(s)
    assert 0.0 < shift <= 1e-5
    assert np.allclose(L @ L.T, s + shift * np.eye(2), atol=1e-9)


def test_cholesky_gives_up_eventually():
    s = np.diag([-5.0, -5.0])
    with pytest.raises(DataError, match="not factorizable"):
        cholesky_psd(s)


def test_cholesky_accepts_rounding_level_asymmetry():
    s = np.array([[4.0, 2.0], [2.0 * (1 + 1e-14), 3.0]])
    assert not np.array_equal(s, s.T)
    L, shift = cholesky_psd(s)
    assert shift == 0.0
    assert np.allclose(L @ L.T, s, atol=1e-12)


def test_cholesky_input_validation():
    with pytest.raises(DataError, match="must be symmetric"):
        cholesky_psd(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(DataError, match="must be finite"):
        cholesky_psd(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(DataError, match="covariance must be square"):
        cholesky_psd(np.ones((2, 3)))


@pytest.mark.parametrize("cov", [
    np.array([[1.0, 0.5], [0.0, 1.0]]),
    np.array([[np.nan, 0.0], [0.0, 1.0]])])
def test_calibrated_covariance_values_are_checked_when_factored(cov):
    # a calibrated distribution checks only shapes; its one reader factors
    # the covariance, and the factorization refuses bad values
    with pytest.raises(DataError, match="must be (symmetric|finite)"):
        sample_features(dist([0.0, 0.0], cov), 4, PortableRng(0))


def test_calibrated_covariance_rounding_asymmetry_is_accepted():
    cov = np.array([[4.0, 2.0], [2.0 * (1 + 1e-14), 3.0]])
    assert not np.array_equal(cov, cov.T)
    x, shift = sample_features(dist([0.0, 0.0], cov), 4, PortableRng(0))
    assert x.shape == (4, 2)
    assert shift == 0.0
    assert np.isfinite(x).all()


# ------------------------------------------------------------------- sampling

def test_sampling_is_deterministic_and_seed_sensitive():
    d = dist([1.0, -1.0], np.array([[2.0, 0.5], [0.5, 1.0]]))
    a, _ = sample_features(d, 64, PortableRng(5))
    b, _ = sample_features(d, 64, PortableRng(5))
    c, _ = sample_features(d, 64, PortableRng(6))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("d, block_values", [(16, 16 * 16), (640, None)])
def test_block_draws_equal_one_full_size_draw(d, block_values, monkeypatch):
    # every count up to two blocks and a row, so each way of splitting the
    # last block occurs; the reference multiplies all of a count's normals
    # in one product.  At d=16 a block would hold 4096 rows, so the test
    # shrinks it to 16.
    if block_values is not None:
        monkeypatch.setattr(fsdc.sampling, "_BLOCK_VALUES", block_values)
    block = fsdc.sampling._BLOCK_VALUES // d
    rng = np.random.default_rng(d)
    a = rng.standard_normal((d, d))
    cov = a @ a.T / d + np.eye(d)
    mean = rng.standard_normal(d)
    factor, _ = cholesky_psd(cov)
    # the factor does not depend on the count: factor once, not per call
    monkeypatch.setattr(fsdc.sampling, "cholesky_psd",
                        lambda c: (factor, 0.0))
    gaussian = dist(mean, cov)
    most = 2 * block + 1
    z = PortableRng(13).normal(most * d)
    z = z.reshape(most, d)
    for count in range(1, most + 1):
        out = np.empty((count, d))
        x, shift = sample_features(gaussian, count, PortableRng(13), out=out)
        assert x is out
        assert shift == 0.0
        assert np.array_equal(x, mean + z[:count] @ factor.T), count


def test_sample_into_out_checks_it(monkeypatch):
    # a wrong out is refused before the covariance is factored
    factored = []
    monkeypatch.setattr(fsdc.sampling, "cholesky_psd",
                        lambda c: factored.append(c) or cholesky_psd(c))
    for out in (np.empty((3, 2)), np.empty((4, 2), dtype=np.float32),
                np.empty((2, 4)).T, np.empty(8), np.empty((4, 3))):
        with pytest.raises(DataError, match="out must be"):
            sample_features(dist([0.0, 0.0], np.eye(2)), 4, PortableRng(0),
                            out=out)
    assert factored == []


@pytest.mark.parametrize("count", [0, -1])
@pytest.mark.parametrize("with_out", [False, True], ids=["new", "out"])
def test_sample_refuses_count_below_one(monkeypatch, count, with_out):
    # refused before out is checked and before the covariance is factored
    factored = []
    monkeypatch.setattr(fsdc.sampling, "cholesky_psd",
                        lambda c: factored.append(c) or cholesky_psd(c))
    out = np.empty((max(count, 0), 2)) if with_out else None
    with pytest.raises(SpecError, match="count must be at least 1"):
        sample_features(dist([0.0, 0.0], np.eye(2)), count, PortableRng(0),
                        out=out)
    assert factored == []


def test_drawing_a_class_holds_no_full_size_temporary():
    # 750 rows at d=640 take 3.8 MB: one temporary of that size, such as all
    # of the class's normals at once, breaks the bound
    d, total = 640, 750
    gaussian = dist(np.zeros(d), np.eye(d))
    out = np.empty((total, d))
    tracemalloc.start()
    try:
        sample_features(gaussian, total, PortableRng(1), out=out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    factor_bytes = d * d * 8
    assert peak < factor_bytes + out.nbytes * 5 // 4, peak


def test_sample_moments_match_target():
    mean = np.array([1.0, 1.0])
    cov = np.eye(2) * 0.01
    x, _ = sample_features(dist(mean, cov), 10_000, PortableRng(7))
    assert np.allclose(x.mean(axis=0), mean, atol=0.01)
    emp = np.cov(x.T)
    assert np.linalg.norm(emp - cov) / np.linalg.norm(cov) < 0.1


def test_sample_covariance_includes_jitter_shift():
    # a singular covariance is factorized with a small diagonal shift, which
    # is returned; the sample covariance should match the shifted matrix,
    # which at this scale is indistinguishable from the original
    cov = np.array([[1.0, 1.0], [1.0, 1.0]])
    x, shift = sample_features(dist([0.0, 0.0], cov), 20_000, PortableRng(11))
    assert 0.0 < shift <= 1e-5
    emp = np.cov(x.T)
    assert np.linalg.norm(emp - cov) / np.linalg.norm(cov) < 0.05


def test_sample_rejects_bad_inputs():
    with pytest.raises(DataError, match="not factorizable"):
        sample_features(dist([0.0, 0.0], np.diag([-4.0, -4.0])), 10,
                        PortableRng(0))


def test_sample_rejects_mixed_dimensions():
    # rows of one dimension are not drawn into a matrix of another
    with pytest.raises(DataError, match=r"shape \(4, 3\)"):
        sample_features(dist([0.0, 0.0, 0.0], np.eye(3)), 4, PortableRng(0),
                        out=np.empty((4, 2)))


def test_sampler_config_validation():
    with pytest.raises(SpecError):
        SamplerConfig(total_per_class=-1)


def test_rank_deficient_float16_table_factors_inside_the_jitter_ladder():
    # five rows per class at d=16: every base covariance has rank 4 at
    # most, and with k=1 and alpha=0 a calibrated covariance is one of them
    # as rounded to float16, which can leave it slightly indefinite.  Every
    # one needs a shift, and each factors at least two steps below the
    # ladder's top of 1.0
    ds, split, _ = generate_synthetic(SyntheticSpec(
        num_classes=12, dim=16, samples_per_class=5, group_size=4, seed=0))
    table = build_base_stats(ds, split)
    assert table.packed_covariances.dtype == np.float16
    params = CalibrationParams(k=1, alpha=0.0)
    for cid in sorted(split.novel_classes):
        for row in ds.rows_for(cid):
            dist = calibrate(ds.values[row], table, params)
            feats, shift = sample_features(
                dist, 20, PortableRng(derive_key(0, cid, int(row))))
            assert 0.0 < shift <= 1e-2
            assert np.isfinite(feats).all()
