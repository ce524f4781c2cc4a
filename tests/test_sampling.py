import numpy as np
import pytest

from fsdc.calibration import CalibratedDistribution
from fsdc.classifiers import MaxLikelihoodScorer
from fsdc.errors import DataError, DimensionError, FactorizationError, SpecError
from fsdc.sampling import SamplerConfig, cholesky_psd, sample_features


def dist(mean, cov, idx=0):
    return CalibratedDistribution(np.asarray(mean, dtype=np.float64),
                                  np.asarray(cov, dtype=np.float64),
                                  source_support_index=idx,
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
    L, shift = cholesky_psd(s, jitter=1e-6)
    assert 0.0 < shift <= 1e-5
    assert np.allclose(L @ L.T, s + shift * np.eye(2), atol=1e-9)


def test_cholesky_gives_up_eventually():
    s = np.diag([-5.0, -5.0])
    with pytest.raises(FactorizationError):
        cholesky_psd(s, jitter=1e-6)


def test_cholesky_accepts_rounding_level_asymmetry():
    s = np.array([[4.0, 2.0], [2.0 * (1 + 1e-14), 3.0]])
    assert not np.array_equal(s, s.T)
    L, shift = cholesky_psd(s)
    assert shift == 0.0
    assert np.allclose(L @ L.T, s, atol=1e-12)


def test_cholesky_input_validation():
    with pytest.raises(DataError):
        cholesky_psd(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(DataError):
        cholesky_psd(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(DimensionError):
        cholesky_psd(np.ones((2, 3)))
    for jitter in (0.0, np.inf, np.nan):
        with pytest.raises(SpecError):
            cholesky_psd(np.eye(2), jitter=jitter)


@pytest.mark.parametrize("cov", [
    np.array([[1.0, 0.5], [0.0, 1.0]]),
    np.array([[np.nan, 0.0], [0.0, 1.0]])])
def test_calibrated_covariance_values_are_checked_when_factored(cov):
    # a calibrated distribution checks only shapes; both readers of its
    # covariance factor it, and the factorization refuses bad values
    with pytest.raises(DataError):
        sample_features({0: [dist([0.0, 0.0], cov)]},
                        SamplerConfig(total_per_class=4))
    with pytest.raises(DataError):
        MaxLikelihoodScorer({0: [dist([0.0, 0.0], cov)]})


def test_calibrated_covariance_rounding_asymmetry_is_accepted():
    cov = np.array([[4.0, 2.0], [2.0 * (1 + 1e-14), 3.0]])
    assert not np.array_equal(cov, cov.T)
    dists = {0: [dist([0.0, 0.0], cov)], 1: [dist([5.0, 5.0], np.eye(2))]}
    x, _ = sample_features(dists, SamplerConfig(total_per_class=4))
    assert np.isfinite(x).all()
    assert np.array_equal(MaxLikelihoodScorer(dists).classify([[0.0, 0.0]]), [0])


# ------------------------------------------------------------------- sampling

def test_sample_counts_and_labels():
    dists = {0: [dist([0.0, 0.0], np.eye(2))],
             2: [dist([5.0, 5.0], np.eye(2))]}
    x, y = sample_features(dists, SamplerConfig(total_per_class=750, seed=1))
    assert x.shape == (1500, 2)
    assert y.shape == (1500,)
    assert (y[:750] == 0).all()
    assert (y[750:] == 2).all()


def test_sample_budget_splits_across_distributions():
    d = np.eye(1)
    dists = {0: [dist([float(j)], d, idx=j) for j in range(5)]}
    x, y = sample_features(dists, SamplerConfig(total_per_class=750, seed=2))
    assert x.shape == (750, 1)
    # 150 draws per distribution; block j is centered near j
    blocks = x[:, 0].reshape(5, 150)
    for j in range(5):
        assert abs(blocks[j].mean() - j) < 0.3


def test_sample_budget_remainder_goes_first():
    d = np.eye(1)
    dists = {0: [dist([0.0], d, idx=j) for j in range(3)]}
    x, _ = sample_features(dists, SamplerConfig(total_per_class=7, seed=3))
    assert x.shape == (7, 1)


def test_sampling_is_deterministic_and_seed_sensitive():
    dists = {0: [dist([1.0, -1.0], np.array([[2.0, 0.5], [0.5, 1.0]]))]}
    a, _ = sample_features(dists, SamplerConfig(total_per_class=64, seed=5))
    b, _ = sample_features(dists, SamplerConfig(total_per_class=64, seed=5))
    c, _ = sample_features(dists, SamplerConfig(total_per_class=64, seed=6))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampling_does_not_depend_on_other_classes():
    shared = dist([2.0, 0.0], np.eye(2))
    alone, _ = sample_features({3: [shared]}, SamplerConfig(total_per_class=32, seed=9))
    other = dist([-9.0, 4.0], np.eye(2))
    both, labels = sample_features({1: [other], 3: [shared]},
                                   SamplerConfig(total_per_class=32, seed=9))
    assert np.array_equal(both[labels == 3], alone)


def test_sample_moments_match_target():
    mean = np.array([1.0, 1.0])
    cov = np.eye(2) * 0.01
    dists = {0: [dist(mean, cov)]}
    x, _ = sample_features(dists, SamplerConfig(total_per_class=10_000, seed=7))
    assert np.allclose(x.mean(axis=0), mean, atol=0.01)
    emp = np.cov(x.T)
    assert np.linalg.norm(emp - cov) / np.linalg.norm(cov) < 0.1


def test_sample_covariance_includes_jitter_shift():
    # a singular covariance is factorized with a small diagonal shift; the
    # sample covariance should match the shifted matrix, which at this scale
    # is indistinguishable from the original
    cov = np.array([[1.0, 1.0], [1.0, 1.0]])
    dists = {0: [dist([0.0, 0.0], cov)]}
    x, _ = sample_features(dists, SamplerConfig(total_per_class=20_000, seed=11))
    emp = np.cov(x.T)
    assert np.linalg.norm(emp - cov) / np.linalg.norm(cov) < 0.05


def test_sample_rejects_bad_inputs():
    with pytest.raises(SpecError):
        sample_features({}, SamplerConfig(total_per_class=10))
    with pytest.raises(SpecError):
        sample_features({0: []}, SamplerConfig(total_per_class=10))
    with pytest.raises(SpecError):
        sample_features({0: [dist([0.0], np.eye(1))]},
                        SamplerConfig(total_per_class=0))
    with pytest.raises(FactorizationError, match="class 0"):
        sample_features({0: [dist([0.0, 0.0], np.diag([-4.0, -4.0]))]},
                        SamplerConfig(total_per_class=10))


def test_sampler_config_validation():
    with pytest.raises(SpecError):
        SamplerConfig(total_per_class=-1)
    with pytest.raises(SpecError):
        SamplerConfig(jitter=0.0)
    for jitter in (np.inf, np.nan):
        with pytest.raises(SpecError):
            SamplerConfig(jitter=jitter)
