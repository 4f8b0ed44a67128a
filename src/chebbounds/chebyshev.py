"""Chebyshev polynomials of the second kind, two independent routes.

``cheb_u`` walks the three-term recurrence

    U_0 = 1,  U_1 = 2t,  U_{n+1}(t) = 2t U_n(t) - U_{n-1}(t),

while ``gen_fun_coeffs`` expands the generating function

    1 / (1 - 2 t z + z^2) = sum_n U_n(t) z^n

through generic power-series arithmetic.  The two share no code beyond
float multiplication, so each serves as an oracle for the other.
"""

from __future__ import annotations


def _check_t(t: float) -> float:
    t = float(t)
    if not -1.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [-1, 1], got {t}")
    return t


def cheb_u(n: int, t: float) -> float:
    """U_n(t) by the three-term recurrence."""
    if n != int(n) or n < 0:
        raise ValueError(f"degree must be a nonnegative integer, got {n}")
    t = _check_t(t)
    n = int(n)
    if n == 0:
        return 1.0
    u_prev, u = 1.0, 2.0 * t
    for _ in range(n - 1):
        u_prev, u = u, 2.0 * t * u - u_prev
    return u


def gen_fun_coeffs(t: float, n_max: int) -> list[float]:
    """Coefficients [U_0(t), ..., U_{n_max}(t)] via series reciprocal.

    Deliberately routed through TruncatedSeries.pow_real(-1) rather than
    the recurrence so the agreement test between the two is meaningful.
    """
    from .powerseries import TruncatedSeries
    if n_max != int(n_max) or n_max < 0:
        raise ValueError(f"n_max must be a nonnegative integer, got {n_max}")
    t = _check_t(t)
    n_max = int(n_max)
    quad = TruncatedSeries.make([1.0, -2.0 * t, 1.0][: n_max + 1], order=n_max)
    return [c.real for c in quad.pow_real(-1.0).coeffs]
