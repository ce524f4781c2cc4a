import numpy as np
import pytest

from fsdc.errors import SpecError
from fsdc.rng import LANES, PortableRng, _ndtri, derive_key, splitmix64

M64 = (1 << 64) - 1


# -- scalar reference implementations, written independently of fsdc.rng -----

def _splitmix_outputs(seed, count):
    out = []
    s = seed
    for _ in range(count):
        s = (s + 0x9E3779B97F4A7C15) & M64
        z = s
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
        out.append(z ^ (z >> 31))
    return out


def _rotl(x, k):
    return ((x << k) | (x >> (64 - k))) & M64


def _xoshiro_outputs(state, count):
    s0, s1, s2, s3 = state
    out = []
    for _ in range(count):
        out.append((_rotl((s1 * 5) & M64, 7) * 9) & M64)
        t = (s1 << 17) & M64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
    return out


def test_lane_bank_matches_scalar_xoshiro():
    seed = 12345
    words = _splitmix_outputs(seed, 4 * LANES)
    stream = PortableRng(seed).next_u64(3 * LANES)
    for lane in (0, 1, 777, LANES - 1):
        state = [words[k * LANES + lane] for k in range(4)]
        expected = _xoshiro_outputs(state, 3)
        got = [int(stream[i * LANES + lane]) for i in range(3)]
        assert got == expected


def test_splitmix64_matches_reference():
    assert [splitmix64(0)] == _splitmix_outputs(0, 1)
    # chained calls with explicit state advance
    s = 42
    expected = _splitmix_outputs(42, 3)
    got = []
    for i in range(3):
        got.append(splitmix64((s + i * 0x9E3779B97F4A7C15) & M64))
    assert got == expected


def test_stream_is_chunk_independent():
    a = PortableRng(7)
    parts = [a.next_u64(n) for n in (7, 9, LANES, 1, 2 * LANES + 5)]
    combined = np.concatenate(parts)
    b = PortableRng(7)
    assert np.array_equal(combined, b.next_u64(combined.size))


def test_same_seed_same_stream_different_seed_differs():
    x = PortableRng(99).next_u64(1000)
    y = PortableRng(99).next_u64(1000)
    z = PortableRng(100).next_u64(1000)
    assert np.array_equal(x, y)
    assert not np.array_equal(x, z)


def test_uniform_open_interval():
    u = PortableRng(3).uniform(100_000)
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_uniform_of_the_largest_word_is_below_one(monkeypatch):
    # (2**53 - 1) + 1/2 rounds half to even to 2**53, so the largest word
    # would give exactly 1.0 and an infinite normal
    rng = PortableRng(0)
    words = np.array([0, 2 ** 63, 2 ** 63 + 2 ** 11, 2 ** 64 - 2 ** 12,
                      2 ** 64 - 1], dtype=np.uint64)
    monkeypatch.setattr(rng, "next_u64", lambda count: words[:count].copy())
    assert rng.uniform(5).tolist() == [2.0 ** -54, 0.5, 0.5 + 2.0 ** -52,
                                       1.0 - 2.0 ** -52, 1.0 - 2.0 ** -53]
    z = rng.normal(5)
    assert np.isfinite(z).all()
    assert z[4] > z[3] > 8.0


def test_uniform_is_the_rounded_half_offset_word_elsewhere():
    # only the largest word is moved; every other word keeps its value
    words = PortableRng(5).next_u64(1 << 16)
    top = (words >> np.uint64(11)).astype(np.float64)
    assert np.array_equal(PortableRng(5).uniform(1 << 16),
                          (top + 0.5) * 2.0 ** -53)


def test_normal_moments():
    z = PortableRng(11).normal(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.02
    assert abs((z ** 3).mean()) < 0.03


def test_normal_is_chunk_independent():
    # the quantile runs in fixed steps; how a caller splits its draws into
    # calls must not move a value
    a = PortableRng(17)
    parts = [a.normal(n) for n in (1, 5000, 1 << 15, 40_000)]
    assert np.array_equal(np.concatenate(parts),
                          PortableRng(17).normal(sum(p.size for p in parts)))


def _ulps(a, b):
    # distance in units in the last place between same-signed doubles
    return np.abs(a.view(np.int64) - b.view(np.int64))


def test_ndtri_equals_scipy_in_the_center_and_within_8_ulp_in_the_tails():
    special = pytest.importorskip("scipy.special")
    u = PortableRng(2024).uniform(1 << 20)
    ours, ref = _ndtri(u), special.ndtri(u)
    tail = (u <= np.exp(-2.0)) | (u > 1.0 - np.exp(-2.0))
    assert 0 < tail.sum() < u.size
    assert np.array_equal(ours[~tail], ref[~tail])
    assert _ulps(ours[tail], ref[tail]).max() <= 8


def test_ndtri_is_exact_at_the_extremes():
    special = pytest.importorskip("scipy.special")
    e2 = 0.13533528323661269189
    y = np.array([
        2.0 ** -54,              # the smallest uniform PortableRng draws
        1.0 - 2.0 ** -53,        # the largest below 1
        1.0, 0.0,                # infinite quantiles
        e2, np.nextafter(e2, 0.0), np.nextafter(e2, 1.0),
        1.0 - e2, np.nextafter(1.0 - e2, 0.0), np.nextafter(1.0 - e2, 1.0),
        1e-15,                   # below exp(-32): the far-tail expansion
        0.5])
    assert np.array_equal(_ndtri(y), special.ndtri(y))
    assert _ndtri(np.array([0.5]))[0] == 0.0


def test_derive_key_is_stable_and_sensitive():
    k = derive_key(5, 1, 2)
    assert k == derive_key(5, 1, 2)
    assert k != derive_key(5, 2, 1)
    assert k != derive_key(5, 1)
    assert k != derive_key(6, 1, 2)
    assert 0 <= k <= M64
    # negative tags fold into the 64-bit range instead of raising
    assert derive_key(5, -1) == derive_key(5, -1 & M64)


def test_randbelow_bounds_and_coverage():
    r = PortableRng(21)
    draws = [r.randbelow(6) for _ in range(2000)]
    assert min(draws) == 0
    assert max(draws) == 5
    assert set(draws) == set(range(6))
    assert r.randbelow(1) == 0
    with pytest.raises(SpecError):
        r.randbelow(0)


def test_permutation_prefix():
    r = PortableRng(8)
    full = r.permutation_prefix(10, 10)
    assert sorted(full) == list(range(10))
    part = r.permutation_prefix(50, 5)
    assert len(part) == 5
    assert len(set(part)) == 5
    assert all(0 <= i < 50 for i in part)
    assert r.permutation_prefix(4, 0) == []
    with pytest.raises(SpecError):
        r.permutation_prefix(3, 4)


def test_negative_word_count_is_a_spec_error():
    with pytest.raises(SpecError, match="count must be non-negative"):
        PortableRng(1).next_u64(-1)


def test_permutation_prefix_is_uniform_enough():
    # each item should land in the prefix with probability take/n
    hits = np.zeros(8)
    for trial in range(600):
        r = PortableRng(derive_key(1234, trial))
        for i in r.permutation_prefix(8, 2):
            hits[i] += 1
    freq = hits / 600
    assert np.all(np.abs(freq - 0.25) < 0.08)
