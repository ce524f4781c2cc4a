import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsdc.errors import DataError, SpecError, UndefinedStatisticError
from fsdc.rng import PortableRng
from fsdc.transform import TukeyParams, sample_skewness, tukey_transform


def test_square_root_rung():
    out = tukey_transform([4.0, 9.0], TukeyParams(lam=0.5))
    assert np.allclose(out, [2.0, 3.0], rtol=0, atol=1e-12)


def test_exponent_one_is_exact_identity():
    x = np.array([0.0, 1e-30, 0.3333333, 7.5, 1e20])
    out = tukey_transform(x, TukeyParams(lam=1.0))
    assert np.array_equal(out, x)


def test_log_rung():
    out = tukey_transform([1.0, math.e], TukeyParams(lam=0.0))
    assert np.allclose(out, [0.0, 1.0], atol=1e-12)


def test_log_rung_shifts_zeros():
    out = tukey_transform([0.0, 1.0], TukeyParams(lam=0.0, log_epsilon=1e-6))
    assert out[0] == pytest.approx(math.log(1e-6))
    assert out[1] == 0.0


def test_preserves_shape():
    x = np.arange(6, dtype=float).reshape(2, 3)
    assert tukey_transform(x, TukeyParams(lam=0.5)).shape == (2, 3)


def test_rejects_negative_and_nonfinite():
    with pytest.raises(DataError):
        tukey_transform([-1.0], TukeyParams(lam=0.5))
    with pytest.raises(DataError):
        tukey_transform([np.nan], TukeyParams(lam=0.5))
    with pytest.raises(DataError):
        tukey_transform([np.inf], TukeyParams(lam=0.5))


def test_zero_with_negative_exponent_is_an_error():
    with pytest.raises(DataError):
        tukey_transform([0.0], TukeyParams(lam=-1.0))


def test_bad_params():
    with pytest.raises(SpecError):
        TukeyParams(lam=math.inf)
    with pytest.raises(SpecError):
        TukeyParams(log_epsilon=0.0)
    for value in (np.inf, np.nan):
        with pytest.raises(SpecError):
            TukeyParams(log_epsilon=value)


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=30),
       st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0]))
@settings(max_examples=60, deadline=None)
def test_monotone_for_positive_exponent(values, lam):
    x = np.sort(np.asarray(values))
    out = tukey_transform(x, TukeyParams(lam=lam if lam > 0 else 0.5))
    assert np.all(np.diff(out) >= 0)


def test_argmax_invariance():
    x = np.array([0.3, 2.0, 1.4, 0.01])
    for lam in (0.2, 0.5, 1.0, 2.0):
        out = tukey_transform(x, TukeyParams(lam=lam))
        assert int(np.argmax(out)) == int(np.argmax(x))


def test_skewness_symmetric_sample_is_zero():
    assert sample_skewness([0.0, 1.0, 2.0]) == pytest.approx(0.0, abs=1e-12)


def test_skewness_right_tail_is_positive():
    assert sample_skewness([0.0, 0.0, 0.0, 10.0]) > 0


def test_skewness_undefined_for_constant_sample():
    with pytest.raises(UndefinedStatisticError):
        sample_skewness([3.0, 3.0, 3.0, 3.0])


def test_skewness_needs_three_values():
    with pytest.raises(SpecError):
        sample_skewness([1.0, 2.0])


def test_skewness_of_squared_normals():
    # squares of standard normals follow a chi-square with one degree of
    # freedom, whose skewness is sqrt(8) ~ 2.828; at n = 10000 the sample
    # statistic concentrates near 2.82 (two independent million-draw runs
    # gave 2.8168 and 2.8195)
    z = PortableRng(424242).normal(10_000)
    got = sample_skewness(z ** 2)
    assert abs(got - 2.82) / 2.82 < 0.10


def test_transform_reduces_skew_of_squared_normals():
    z = PortableRng(7).normal(5_000)
    x = z ** 2
    before = sample_skewness(x)
    after = sample_skewness(tukey_transform(x, TukeyParams(lam=0.5)))
    assert abs(after) < abs(before)
