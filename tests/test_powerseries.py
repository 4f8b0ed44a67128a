import numpy as np
import pytest

from chebbounds.cli import _DEFAULT_ORDER as DEFAULT_ORDER
from chebbounds.powerseries import (
    NormalizedSeries,
    TruncatedSeries,
    _compose,
    invert_compositional,
)


def test_make_pads_and_order():
    s = TruncatedSeries.make([1.0, 2.0], order=4)
    assert s.coeffs == (1.0, 2.0, 0.0, 0.0, 0.0)
    assert s.order == 4


def test_make_never_truncates():
    with pytest.raises(ValueError, match="exceed"):
        TruncatedSeries.make([1.0, 2.0, 3.0], order=1)


def test_coeffs_coerced_complex():
    s = TruncatedSeries((1, 2))
    assert all(isinstance(c, complex) for c in s.coeffs)


def test_add_requires_same_order():
    a = TruncatedSeries.make([1.0], order=2)
    b = TruncatedSeries.make([1.0], order=3)
    with pytest.raises(ValueError, match="order mismatch"):
        _ = a + b


def test_scalar_arithmetic():
    s = TruncatedSeries.make([1.0, 2.0, 3.0], order=2)
    assert (s + 1.0).coeffs[0] == 2.0
    assert (1.0 + s).coeffs[0] == 2.0
    assert (2.0 * s).coeffs == (2.0, 4.0, 6.0)
    assert (-s).coeffs == (-1.0, -2.0, -3.0)
    assert (s - s).coeffs == (0.0, 0.0, 0.0)


def test_mul_truncated_product():
    a = TruncatedSeries.make([1.0, 1.0], order=2)
    b = TruncatedSeries.make([1.0, 2.0, 3.0], order=2)
    assert (a * b).coeffs == (1.0, 3.0, 5.0)


def test_mul_matches_numpy_convolution():
    rng = np.random.default_rng(7)
    for _ in range(20):
        xs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        ys = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        got = (TruncatedSeries(tuple(xs)) * TruncatedSeries(tuple(ys))).coeffs
        want = np.convolve(xs, ys)[:6]
        assert np.allclose(got, want, rtol=0, atol=1e-14)


def test_differentiate_and_times_z():
    s = TruncatedSeries.make([5.0, 1.0, 2.0, 3.0], order=3)
    assert s.differentiate().coeffs == (1.0, 4.0, 9.0)
    assert s.times_z().coeffs == (0.0, 5.0, 1.0, 2.0, 3.0)
    assert s.times_z().order == 4


def test_pow_real_square_root():
    s = TruncatedSeries.make([1.0, 0.3, 0.1], order=2)
    r = s.pow_real(0.5)
    assert np.allclose(r.coeffs, [1.0, 0.15, 0.03875], rtol=0, atol=1e-15)
    assert np.allclose((r * r).coeffs, s.coeffs, rtol=0, atol=1e-15)


def test_pow_real_integer_matches_mul():
    s = TruncatedSeries.make([1.0, -0.2, 0.4, 0.1], order=5)
    assert np.allclose(s.pow_real(3.0).coeffs, (s * s * s).coeffs, rtol=0, atol=1e-14)


def test_pow_real_reciprocal():
    s = TruncatedSeries.make([1.0, 0.7, -0.3], order=4)
    prod = s * s.pow_real(-1.0)
    assert np.allclose(prod.coeffs, [1.0, 0.0, 0.0, 0.0, 0.0], rtol=0, atol=1e-14)


def test_pow_real_requires_unit_constant():
    s = TruncatedSeries.make([2.0, 1.0], order=1)
    with pytest.raises(ValueError, match="constant term"):
        s.pow_real(0.5)


def test_compose_fixture():
    # (1 + w + w^2) at w = z + z^2, truncated at order 3
    outer = TruncatedSeries.make([1.0, 1.0, 1.0], order=3)
    inner = TruncatedSeries.make([0.0, 1.0, 1.0], order=3)
    got = _compose(outer.coeffs, inner.coeffs)
    # w = z + z^2, w^2 = z^2 + 2 z^3 (+ z^4 dropped)
    assert np.allclose(got, [1.0, 1.0, 2.0, 2.0], rtol=0, atol=1e-15)


def test_normalized_series_validation():
    with pytest.raises(ValueError, match="normalized series"):
        NormalizedSeries((0.5, 1.0, 0.0))
    with pytest.raises(ValueError, match="normalized series"):
        NormalizedSeries((0.0, 2.0, 0.0))
    with pytest.raises(ValueError, match="order"):
        NormalizedSeries((0.0,))


def test_from_tail():
    f = NormalizedSeries.from_tail([0.3, 0.1], order=5)
    assert f.coeffs == (0.0, 1.0, 0.3, 0.1, 0.0, 0.0)
    with pytest.raises(ValueError, match="exceed"):
        NormalizedSeries.from_tail([0.1] * 9, order=5)


def test_identity_series():
    z = NormalizedSeries.from_tail([], order=4)
    assert z.coeffs == (0.0, 1.0, 0.0, 0.0, 0.0)


def test_invert_fixture():
    f = NormalizedSeries.from_tail([0.3, 0.1], order=4)
    g = invert_compositional(f)
    assert np.allclose(g.coeffs[:5], [0.0, 1.0, -0.3, 0.08, 0.015], rtol=0, atol=1e-15)


def test_invert_round_trip_both_ways():
    rng = np.random.default_rng(11)
    ident = NormalizedSeries.from_tail([], order=DEFAULT_ORDER).coeffs
    for _ in range(10):
        tail = 0.15 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        f = NormalizedSeries.from_tail(tail, order=DEFAULT_ORDER)
        g = invert_compositional(f)
        fwd = _compose(g.coeffs, f.coeffs)
        back = _compose(f.coeffs, g.coeffs)
        assert np.allclose(fwd, ident, rtol=0, atol=1e-12)
        assert np.allclose(back, ident, rtol=0, atol=1e-12)


def test_invert_involution():
    f = NormalizedSeries.from_tail([0.1, -0.05, 0.02j], order=6)
    gg = invert_compositional(invert_compositional(f))
    assert np.allclose(gg.coeffs, f.coeffs, rtol=0, atol=1e-13)


def test_invert_needs_order_two():
    with pytest.raises(ValueError, match="order"):
        invert_compositional(NormalizedSeries((0.0, 1.0)))
