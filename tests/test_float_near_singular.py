"""Float error of the closed form next to the singular manifold d = 0.

d = A - 2 (2A - B) t^2 cancels near its zero.  At (lambda, mu, delta) =
(2, 0, 0), A = B = 4 and d = 4 - 8 t^2 vanishes at t = 1/sqrt(2).  There
8 t is exact and (8 t) t rounds once, by at most eps/2 of 8 t^2 ~ A, and
the subtraction from A is exact (Sterbenz), so d carries an absolute error
of at most eps A / 2.  Its relative error is then at most
(1/2) eps A / |d|; the |a2| bound, through sqrt|d|, carries half of it,
and the sloped Fekete-Szego branch, through 1/|d|, all of it.  These
tests measure each error against 50-digit references at the float t
itself and hold it to that map.  Where |d| / A falls towards eps the
printed digits go before the singular guard (|d| < 1e-12 A) flags the
row; this is measured here, not remedied.
"""

import math

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

from chebbounds.bounds import bound_a2, closed_form, fekete_szego_bound  # noqa: E402
from chebbounds.classop import ClassParams  # noqa: E402

EPS = float(np.finfo(float).eps)
ETA = 2.0                         # |eta - 1| = 1, far outside the flat window

# quantity -> measured constant C in  relative error <= C eps A / |d|
CONSTANTS = {"d": 0.5, "a2": 0.25, "fs": 0.5}


def _point(target: float) -> ClassParams:
    """(2, 0, 0, 1/sqrt(2) + e), e chosen so that |d| is about ``target``:
    |d| ~ 16 t e near t = 1/sqrt(2)."""
    return ClassParams(2.0, 0.0, 0.0, math.sqrt(0.5) + target / (16.0 * math.sqrt(0.5)))


def _relative_errors(p: ClassParams):
    """(A, exact d, {quantity: relative error}) at p."""
    with mpmath.workdps(50):
        t = mpmath.mpf(p.t)
        d = 4 - 8 * t * t
        exact = {"d": d,
                 "a2": 2 * t * mpmath.sqrt(2 * t) / mpmath.sqrt(abs(d)),
                 "fs": 8 * abs(ETA - 1) * t * t * t / abs(d)}
        cf = closed_form(p.lam, p.mu, p.delta, p.t)
        a, b, d_float = cf.A, cf.factors.quad_sum_factor, cf.d
        got = {"d": d_float, "a2": bound_a2(p), "fs": fekete_szego_bound(p, ETA).bound}
        errors = {k: float(abs((mpmath.mpf(got[k]) - exact[k]) / exact[k])) for k in exact}
    assert (a, b) == (4.0, 4.0)
    return a, float(d), errors


@pytest.mark.parametrize("target", [1e-5, 1e-8, 1e-11])
def test_error_grows_as_eps_a_over_d(target):
    p = _point(target)
    a, d, errors = _relative_errors(p)
    assert 0.5 * target < abs(d) < 2.0 * target
    # not flagged singular: the rows the map speaks of are printed as numbers
    assert math.isfinite(bound_a2(p)) and fekete_szego_bound(p, ETA).branch != "flat"
    scale = EPS * a / abs(d)
    for quantity, error in errors.items():
        # a few ulps of the final operations on top of the cancellation
        assert error <= CONSTANTS[quantity] * scale + 4.0 * EPS, (quantity, error, scale)

