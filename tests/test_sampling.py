import tracemalloc
import weakref

import numpy as np
import pytest

import fsdc.sampling
from fsdc.calibration import CalibratedDistribution
from fsdc.errors import DataError, DimensionError, FactorizationError, SpecError
from fsdc.rng import PortableRng, derive_key
from fsdc.sampling import (_DOM_SAMPLE, SamplerConfig, cholesky_psd,
                           sample_features)


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
    with pytest.raises(FactorizationError):
        cholesky_psd(s)


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


@pytest.mark.parametrize("cov", [
    np.array([[1.0, 0.5], [0.0, 1.0]]),
    np.array([[np.nan, 0.0], [0.0, 1.0]])])
def test_calibrated_covariance_values_are_checked_when_factored(cov):
    # a calibrated distribution checks only shapes; its one reader factors
    # the covariance, and the factorization refuses bad values
    with pytest.raises(DataError):
        sample_features({0: [dist([0.0, 0.0], cov)]},
                        SamplerConfig(total_per_class=4))


def test_calibrated_covariance_rounding_asymmetry_is_accepted():
    cov = np.array([[4.0, 2.0], [2.0 * (1 + 1e-14), 3.0]])
    assert not np.array_equal(cov, cov.T)
    dists = {0: [dist([0.0, 0.0], cov)], 1: [dist([5.0, 5.0], np.eye(2))]}
    x, _ = sample_features(dists, SamplerConfig(total_per_class=4))
    assert np.isfinite(x).all()


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
    dists = {0: [dist([float(j)], d) for j in range(5)]}
    x, y = sample_features(dists, SamplerConfig(total_per_class=750, seed=2))
    assert x.shape == (750, 1)
    # 150 draws per distribution; block j is centered near j
    blocks = x[:, 0].reshape(5, 150)
    for j in range(5):
        assert abs(blocks[j].mean() - j) < 0.3


def test_sample_budget_remainder_goes_first():
    d = np.eye(1)
    dists = {0: [dist([0.0], d) for _ in range(3)]}
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
    dists = {4: [dist(mean, cov)]}
    most = 2 * block + 1
    z = PortableRng(derive_key(13, _DOM_SAMPLE, 4, 0)).normal(most * d)
    z = z.reshape(most, d)
    for count in range(1, most + 1):
        out = np.empty((count, d))
        x, labels = sample_features(
            dists, SamplerConfig(total_per_class=count, seed=13), out=out)
        assert x is out
        assert np.array_equal(labels, np.full(count, 4))
        assert np.array_equal(x, mean + z[:count] @ factor.T), count


class _Stream:
    """A sized iterable that makes each distribution of ``specs`` (a list of
    (mean, covariance) pairs) as it is read, logging the read in ``reads``
    and a weak reference to what it made in ``refs``."""

    def __init__(self, label, specs, reads, refs):
        self.label, self.specs, self.reads, self.refs = label, specs, reads, refs

    def __len__(self):
        return len(self.specs)

    def __iter__(self):
        for j in range(len(self)):
            assert all(ref() is None for ref in self.refs), \
                f"a distribution is alive when ({self.label}, {j}) is read"
            self.reads.append((self.label, j))
            # made in a call, so no local of this generator keeps it alive
            yield self._make(j)

    def _make(self, j):
        made = dist(*self.specs[j])
        self.refs.append(weakref.ref(made))
        return made


def _random_specs(rng, d, count):
    specs = []
    for _ in range(count):
        a = rng.normal(size=(d, d))
        specs.append((rng.normal(size=d), a @ a.T + np.eye(d)))
    return specs


@pytest.mark.parametrize("total", [7, 2], ids=["uneven_share", "zero_counts"])
@pytest.mark.parametrize("into_out", [False, True], ids=["new", "out"])
def test_sample_reads_each_distribution_once_in_order(total, into_out):
    # a stream of distributions is read once, in order, and each one is
    # dropped before the next is made; the rows equal the dict-of-lists call
    rng = np.random.default_rng(4)
    specs = {5: _random_specs(rng, 6, 2), 2: _random_specs(rng, 6, 3)}
    config = SamplerConfig(total_per_class=total, seed=21)
    reads, refs = [], []
    streams = {label: _Stream(label, s, reads, refs)
               for label, s in specs.items()}
    out = np.empty((2 * total, 6)) if into_out else None
    x, labels = sample_features(streams, config, out=out)
    assert reads == [(2, 0), (2, 1), (2, 2), (5, 0), (5, 1)]
    assert all(ref() is None for ref in refs)
    if into_out:
        assert x is out
    lists = {label: [dist(*p) for p in s] for label, s in specs.items()}
    want_x, want_labels = sample_features(lists, config)
    assert np.array_equal(x, want_x)
    assert np.array_equal(labels, want_labels)


def test_sample_stream_checks_dimensions_as_it_reads():
    rng = np.random.default_rng(5)
    specs = _random_specs(rng, 2, 1) + _random_specs(rng, 3, 1)
    reads = []
    with pytest.raises(DimensionError,
                       match="class 0, distribution 1 has dim 3, expected 2"):
        sample_features({0: _Stream(0, specs, reads, [])},
                        SamplerConfig(total_per_class=4))
    assert reads == [(0, 0), (0, 1)]
    # against out's width when out is given
    with pytest.raises(DimensionError,
                       match="class 0, distribution 0 has dim 2, expected 3"):
        sample_features({0: _Stream(0, specs, [], [])},
                        SamplerConfig(total_per_class=4), out=np.empty((4, 3)))


def test_sample_into_out_checks_it():
    # a wrong out is refused before any distribution is read
    specs = _random_specs(np.random.default_rng(6), 2, 2)
    for out in (np.empty((3, 2)), np.empty((4, 2), dtype=np.float32),
                np.empty((2, 4)).T, np.empty(8)):
        reads = []
        with pytest.raises(DimensionError, match="out must be"):
            sample_features({0: _Stream(0, specs, reads, [])},
                            SamplerConfig(total_per_class=4), out=out)
        assert reads == []


def test_drawing_a_class_holds_no_full_size_temporary():
    # 750 rows at d=640 take 3.8 MB: one temporary of that size, such as all
    # of the class's normals at once, breaks the bound
    d, total = 640, 750
    dists = {0: [dist(np.zeros(d), np.eye(d))]}
    out = np.empty((total, d))
    config = SamplerConfig(total_per_class=total, seed=1)
    tracemalloc.start()
    try:
        sample_features(dists, config, out=out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    factor_bytes = d * d * 8
    assert peak < factor_bytes + out.nbytes * 5 // 4, peak


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


def test_sample_rejects_mixed_dimensions():
    dists = {0: [dist([0.0, 0.0], np.eye(2))],
             1: [dist([0.0, 0.0, 0.0], np.eye(3))]}
    with pytest.raises(DimensionError, match="class 1, distribution 0"):
        sample_features(dists, SamplerConfig(total_per_class=4))


def test_sampler_config_validation():
    with pytest.raises(SpecError):
        SamplerConfig(total_per_class=-1)
