"""The oracle's array passes multiply by a real divisor's reciprocal where
the formulas divide.  numpy divides a complex array by a real one as
(x.real + x.imag * 0) * (1 / d), so the two agree bit for bit on every
nonzero component; only the sign of a zero may differ.  Python's scalar
complex division divides each part by d instead, which rounds otherwise,
so the witness path keeps ``/``."""

import numpy as np
import pytest


def _components(z):
    return np.ascontiguousarray(z).view(np.float64)


def _scaled(rng, shape, low, high):
    """Random reals of either sign with exponents in [low, high)."""
    mantissa = rng.uniform(0.5, 1.0, shape) * rng.choice([-1.0, 1.0], shape)
    return np.ldexp(mantissa, rng.integers(low, high, shape))


def _divisors(rng):
    near = [_scaled(rng, 200, -1000, -990), _scaled(rng, 200, 990, 1000)]   # ~1e-300, ~1e300
    return np.concatenate([[1.0, -1.0], _scaled(rng, 2000, -40, 40), *near])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_division_is_reciprocal_product(seed):
    rng = np.random.default_rng(seed)
    d = _divisors(rng)
    x = _scaled(rng, d.size, -20, 20) + 1j * _scaled(rng, d.size, -20, 20)
    x[:50] = x[:50].real                     # zero imaginary parts
    x[50:100] = 1j * x[50:100].imag          # zero real parts
    quotient, product = _components(x / d), _components(x * (1.0 / d))
    nonzero = (quotient != 0.0) | (product != 0.0)
    assert np.count_nonzero(nonzero) > 1.9 * d.size
    assert np.array_equal(quotient[nonzero].view(np.uint64), product[nonzero].view(np.uint64))


def test_chunk_shape_broadcast():
    """A chunk's divisor column against a row of samples, as in the search."""
    rng = np.random.default_rng(4)
    d = _scaled(rng, (15, 1), -4, 4)
    x = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 1025)) * np.sqrt(rng.random(1025))
    quotient, product = _components(x / d), _components(x * (1.0 / d))
    assert quotient.shape == (15, 2 * 1025)
    assert np.array_equal(quotient.view(np.uint64), product.view(np.uint64))


def test_python_scalar_division_differs():
    x, d = 0.1 + 0.7j, 5.0
    assert x / d != x * (1.0 / d)
    assert (x / d).real == 0.02
    # numpy's scalar division is the reciprocal product
    assert np.complex128(x) / d == x * (1.0 / d)
