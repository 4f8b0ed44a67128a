"""The defining differential operator of the function class and its
degree-by-degree coefficient structure.

For a normalized series f(z) = z + a2 z^2 + a3 z^3 + ... the operator is

    L[f](z) = (1 - lam) (f/z)^mu + lam f'(z) (f/z)^(mu-1) + xi delta z f''(z),

with xi = (2 lam + mu) / (2 lam + 1) recomputed from (lam, mu), never
stored.  Membership of f in the class requires L[f] - 1 (and the same
expression for the inverse series) to subordinate a fixed Chebyshev
generating function, which pins the low-degree coefficients of L[f] to
polynomial expressions in a2, a3; those expressions live here so the
bound and oracle layers agree on them by construction.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import TYPE_CHECKING, NamedTuple

from .chebyshev import cheb_u

if TYPE_CHECKING:
    import numpy as np

    from .powerseries import NormalizedSeries, TruncatedSeries

# admissibility is a closed-disk condition; the tolerance keeps witnesses
# constructed at |c| = 1 admissible after a float round trip
ADMISSIBLE_TOL = 1e-9
# largest lambda, mu and delta: up to it A = lin^2 <= 4.5e299, so no bound
# overflows float64 (overflow starts between 1e77 and 1e78)
PARAM_MAX = 1e75
# the oracle's two constraint sets (see chebbounds.oracle)
PROOF_SET = "proof-set"
FULL_SYSTEM = "full-system"
# (label, floor) of lambda, mu and delta, checked by _checked
_SCALES = (("lambda", 1.0), ("mu", 0.0), ("delta", 0.0))


class ParamFactors(NamedTuple):
    """Recurring parameter combinations.  Each is named for the role it
    plays in the coefficient relations, not for any symbol."""

    xi: float                # (2 lam + mu) / (2 lam + 1)
    op_linear_factor: float  # multiplies a2 in the degree-1 coefficient of L[f] (and of L[g])
    quad_sum_factor: float   # multiplies a2^2 when the two degree-2 relations are added
    fs_flat_denom: float     # denominator of the flat Fekete-Szego bound (also scales a3)
    fs_printed_denom: float  # the literature's threshold denominator variant (2 xi delta term)


def param_factors(lam, mu, delta) -> ParamFactors:
    """The combinations of (lam, mu, delta); elementwise for arrays."""
    xi = (2.0 * lam + mu) / (2.0 * lam + 1.0)
    return ParamFactors(
        xi=xi,
        op_linear_factor=lam + mu + 2.0 * xi * delta,
        quad_sum_factor=(2.0 * lam + mu) * (mu + 1.0) + 12.0 * xi * delta,
        fs_flat_denom=2.0 * lam + mu + 6.0 * xi * delta,
        fs_printed_denom=2.0 * lam + mu + 2.0 * xi * delta,
    )


def _checked(label: str, value, low: float) -> float:
    """lambda, mu, delta or eta as a float in [low, PARAM_MAX], with -0.0 as
    0.0; the error names it."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{label} must be finite, got {value}")
    if not value >= low:
        raise ValueError(f"{label} must be >= {low:g}, got {value}")
    if value > PARAM_MAX:
        raise ValueError(f"{label} must be <= {PARAM_MAX:g}, got {value}")
    return value + 0.0


def check_eta(eta) -> float:
    """A Fekete-Szego eta as a float with |eta| <= PARAM_MAX, which keeps
    the sloped bound finite on every regular point."""
    return _checked("eta", eta, -PARAM_MAX)


class _ClassParams(NamedTuple):
    lam: float
    mu: float
    delta: float
    t: float


class ClassParams(_ClassParams):
    """Admissible parameter tuple (lam, mu, delta, t) of the class."""

    __slots__ = ()

    def __new__(cls, lam, mu, delta, t) -> ClassParams:
        lam, mu, delta = (_checked(label, value, low)
                          for value, (label, low) in zip((lam, mu, delta), _SCALES))
        t = float(t)
        if not math.isfinite(t):
            raise ValueError(f"t must be finite, got {t}")
        if not 0.5 < t < 1.0:
            raise ValueError(f"t must lie in the open interval (1/2, 1), got {t}")
        return super().__new__(cls, lam, mu, delta, t)

    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace checks too

    @property
    def factors(self) -> ParamFactors:
        """The parameter combinations; see ParamFactors."""
        return param_factors(self.lam, self.mu, self.delta)


def param_axes(lams, mus, deltas, ts) -> list[np.ndarray]:
    """The four axes of a grid in (lambda, mu, delta, t) as float arrays.

    ClassParams' checks are per parameter, so they run on the axes as
    arrays, and this fails exactly when some grid point would: at the first
    index where an axis fails, ClassParams of the values there raises its
    own error.  Not finite fails either range test.
    """
    import numpy as np
    axes = [np.asarray(axis, dtype=float) + 0.0 for axis in (lams, mus, deltas, ts)]  # -0.0 is 0.0
    bad = [~((axis >= low) & (axis <= PARAM_MAX)) for axis, (_, low) in zip(axes, _SCALES)]
    bad.append(~((axes[3] > 0.5) & (axes[3] < 1.0)))
    if first := [int(np.argmax(b)) for b in bad if b.any()]:
        ClassParams(*(float(axis[min(first) % len(axis)]) for axis in axes))
    return axes


def param_grid(axes, start: int = 0, stop: int | None = None) -> list[np.ndarray]:
    """Points [start, stop) of the lexicographic grid over ``param_axes``,
    as four flat arrays; only those points are built."""
    return [values[index] for values, index in _grid_columns(axes, start, stop)]


def _grid_columns(axes, start: int = 0, stop: int | None = None) -> list[tuple]:
    """Points [start, stop) of the grid as one (values, index) pair an axis:
    the axis values that those rows touch, at most stop - start of them, and
    each row's index into them."""
    import numpy as np
    stride = math.prod(len(axis) for axis in axes)
    rows = np.arange(start, stride if stop is None else stop)
    pairs = []
    for axis in axes:
        stride //= len(axis)
        q = rows // stride if stride > 1 else rows      # row number in the grid up to this axis
        first = start // stride
        if len(rows) and q[-1] - first < len(axis) - 1:
            pairs.append((axis[np.arange(first, q[-1] + 1) % len(axis)], q - first))
        else:
            pairs.append((axis, q % len(axis)))
    return pairs


class _Points(Sequence):
    """A grid's points, read-only, as one (lam, mu, delta, t) float row each,
    which np.asarray gives.  An item is its row's ClassParams, built when
    read; the rows come from param_axes, so every item passes its checks."""

    def __init__(self, rows: np.ndarray) -> None:
        self._rows = rows
        rows.flags.writeable = False

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        return ClassParams(*self._rows[index].tolist())

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        import numpy as np
        return np.array(self._rows, dtype=dtype, copy=copy)


def param_points(lams, mus, deltas, ts) -> Sequence[ClassParams]:
    """The whole grid over the given axes, a ClassParams per point as it is read."""
    import numpy as np
    return _Points(np.column_stack(param_grid(param_axes(lams, mus, deltas, ts))))


class SchwarzPair(NamedTuple):
    """Leading Schwarz coefficients of the two subordinations.

    (c1, c2) come from the direct function, (d1, d2) from its inverse;
    the coefficient relations force d1 = -c1.  ``admissible`` records
    whether all four lie in the closed unit disk (within tolerance).
    """

    c1: complex
    c2: complex
    d1: complex
    d2: complex
    admissible: bool

    @classmethod
    def from_coeffs(cls, c1: complex, c2: complex, d1: complex, d2: complex) -> "SchwarzPair":
        c1, c2, d1, d2 = complex(c1), complex(c2), complex(d1), complex(d2)
        ok = all(abs(c) <= 1.0 + ADMISSIBLE_TOL for c in (c1, c2, d1, d2))
        return cls(c1, c2, d1, d2, ok)


def apply_operator(f: NormalizedSeries, p: ClassParams) -> TruncatedSeries:
    """L[f] as a truncated series of order f.order - 1 (constant term 1)."""
    from .powerseries import NormalizedSeries, TruncatedSeries
    if not isinstance(f, NormalizedSeries):
        raise TypeError("apply_operator needs a normalized series (z + a2 z^2 + ...)")
    if f.order < 3:
        raise ValueError(f"operator needs order >= 3 to expose a2 and a3, got {f.order}")
    # the constant term (1 - lam) + lam stays 1 in float64 only up to 2^53
    if p.lam > 2.0 ** 53:
        raise ValueError(f"lambda must be <= 2**53 for the operator series, got {p.lam:g}")
    base = TruncatedSeries(f.coeffs[1:])            # f/z, constant term exactly 1
    fprime = f.differentiate()
    z_fsecond = fprime.differentiate().times_z()    # z f'', order f.order - 1
    return (
        (1.0 - p.lam) * base.pow_real(p.mu)
        + p.lam * fprime.mul(base.pow_real(p.mu - 1.0))
        + (p.factors.xi * p.delta) * z_fsecond
    )


def quad_coeff_direct(p: ClassParams, a2: complex, a3: complex) -> complex:
    """Degree-2 coefficient of L[f] in terms of (a2, a3)."""
    lam, mu, delta = p.lam, p.mu, p.delta
    return (2.0 * lam + mu) * (
        0.5 * (mu - 1.0) * a2 * a2
        + (1.0 + 6.0 * delta / (2.0 * lam + 1.0)) * a3
    )


def quad_coeff_inverse(p: ClassParams, a2: complex, a3: complex) -> complex:
    """Degree-2 coefficient of L[g], g the inverse series, via b2 = -a2,
    b3 = 2 a2^2 - a3."""
    lam, mu, delta = p.lam, p.mu, p.delta
    return (2.0 * lam + mu) * (
        (0.5 * (mu + 3.0) + 12.0 * delta / (2.0 * lam + 1.0)) * a2 * a2
        - (1.0 + 6.0 * delta / (2.0 * lam + 1.0)) * a3
    )


def extract_schwarz(op_series: TruncatedSeries, t: float) -> tuple[complex, complex]:
    """Invert the subordination triangle: recover (c1, c2) from L[f].

    With s(z) = c1 z + c2 z^2 + ... the subordination forces

        [z^1] L[f] = U1(t) c1,
        [z^2] L[f] = U1(t) c2 + U2(t) c1^2.
    """
    if not 0.5 < t < 1.0:
        raise ValueError(f"t must lie in the open interval (1/2, 1), got {t}")
    if op_series.order < 2:
        raise ValueError(f"need order >= 2 to extract two coefficients, got {op_series.order}")
    if abs(op_series.coeffs[0] - 1.0) > ADMISSIBLE_TOL:
        raise ValueError(
            f"malformed operator series: constant term {op_series.coeffs[0]!r}, expected 1"
        )
    u1 = cheb_u(1, t)
    u2 = cheb_u(2, t)
    c1 = op_series.coeffs[1] / u1
    c2 = (op_series.coeffs[2] - u2 * c1 * c1) / u1
    return c1, c2


def membership_feasibility(a2: complex, a3: complex, p: ClassParams) -> SchwarzPair:
    """Necessary order-3 membership condition for coefficients (a2, a3).

    Solves the four coefficient relations for the Schwarz coefficients
    they would require and reports whether all of them fit in the closed
    unit disk.  Necessary only: no claim is made about the full analytic
    subordination beyond degree 3.
    """
    a2, a3 = complex(a2), complex(a3)
    u1 = cheb_u(1, p.t)
    u2 = cheb_u(2, p.t)
    c1 = p.factors.op_linear_factor * a2 / u1
    d1 = -c1
    c2 = (quad_coeff_direct(p, a2, a3) - u2 * c1 * c1) / u1
    d2 = (quad_coeff_inverse(p, a2, a3) - u2 * d1 * d1) / u1
    return SchwarzPair.from_coeffs(c1, c2, d1, d2)
