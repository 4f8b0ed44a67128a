"""Exact proof of the hand-expanded coefficient relations.

sympy expands the operator's definition on z + a2 z^2 + a3 z^3 and on its
inverse series; the library's own factor and coefficient functions, fed
symbolic parameters, must match that expansion identically.  The float
literals in the library's formulas are made rational with ``nsimplify``.
"""

from types import SimpleNamespace

import pytest

sp = pytest.importorskip("sympy")

from chebbounds.bounds import _theorem_factors  # noqa: E402
from chebbounds.classop import (  # noqa: E402
    param_factors,
    quad_coeff_direct,
    quad_coeff_inverse,
)

lam, mu, delta, t = sp.symbols("lambda mu delta t", positive=True)
z, a2, a3 = sp.symbols("z a2 a3")
# ClassParams converts to float, so the library sees the symbols this way
PARAMS = SimpleNamespace(lam=lam, mu=mu, delta=delta, t=t)


def exact(expr):
    return sp.nsimplify(expr, rational=True)


def is_zero(expr) -> bool:
    return sp.simplify(expr) == 0


def operator_coeffs(b2, b3) -> list:
    """[z^1], [z^2] of L[f] for f = z + b2 z^2 + b3 z^3, from the definition
    L[f] = (1 - lam) (f/z)^mu + lam f' (f/z)^(mu - 1) + xi delta z f''."""
    f = z + b2 * z**2 + b3 * z**3
    xi = (2 * lam + mu) / (2 * lam + 1)
    base = sp.expand(f / z)
    op = ((1 - lam) * base**mu + lam * sp.diff(f, z) * base**(mu - 1)
          + xi * delta * z * sp.diff(f, z, 2))
    poly = sp.expand(sp.series(op, z, 0, 3).removeO())
    assert is_zero(poly.coeff(z, 0) - 1)
    return [sp.expand(poly.coeff(z, k)) for k in (1, 2)]


DIRECT = operator_coeffs(a2, a3)
INVERSE = operator_coeffs(-a2, 2 * a2**2 - a3)


def test_linear_coefficients():
    lin = exact(param_factors(lam, mu, delta).op_linear_factor)
    assert is_zero(DIRECT[0] - lin * a2)
    assert is_zero(INVERSE[0] + lin * a2)


def test_quadratic_coefficients():
    assert is_zero(DIRECT[1] - exact(quad_coeff_direct(PARAMS, a2, a3)))
    assert is_zero(INVERSE[1] - exact(quad_coeff_inverse(PARAMS, a2, a3)))


def test_summed_quadratic_factor():
    quad_sum = exact(param_factors(lam, mu, delta).quad_sum_factor)
    assert is_zero(DIRECT[1] + INVERSE[1] - quad_sum * a2**2)


def test_summed_relation_prefactor_is_the_denominator():
    # adding the degree-2 relations with c1 = lin a2 / U1 = -d1 leaves
    # (B - 2 U2 A / U1^2) a2^2 = U1 (c2 + d2), and that prefactor is d / (2 t^2)
    # closed_form's A, B and d, built symbolically: its singular guard compares
    # |d| with A, which a symbol cannot answer
    f, a, d, _ = _theorem_factors(lam, mu, delta, t)
    a, b, d = (exact(x) for x in (a, f.quad_sum_factor, d))
    lin = exact(param_factors(lam, mu, delta).op_linear_factor)
    assert is_zero(a - lin**2)
    u1, u2 = sp.chebyshevu(1, t), sp.chebyshevu(2, t)
    assert is_zero((b - 2 * u2 * a / u1**2) * 4 * t**2 - 2 * d)
