"""The reduction table: the printed specializations of the bounds on
parameter slices, which ``reduction_check`` confirms against the general
formulas.

Each slice spells out its own d, the scale of d and the flat denominator,
apart from the general formulas, for the theorem's kernel to bound; the
basic slices write their bounds out by hand, so a fault in the kernel
still fails.  Each formula takes (lam, mu, delta, t, eta) as floats or
arrays, like ``closed_form``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .bounds import bounds_from_denominator, closed_form
from .classop import param_axes, param_factors, param_grid

REDUCTION_TOL = 1e-12


def _slice_lambda(lam, mu, delta, t):
    w = 1.0 + lam
    return w * w - 4.0 * lam * lam * t * t, w * w, 2.0 * lam + 1.0


def _slice_mu(lam, mu, delta, t):
    s = lam + mu
    d = s * s - 2.0 * (2.0 * s * s - (2.0 * lam + mu) * (mu + 1.0)) * t * t
    return d, s * s, 2.0 * lam + mu


def _slice_delta(lam, mu, delta, t):
    w, v = 1.0 + lam + 2.0 * delta, lam + 2.0 * delta
    d = w * w - 4.0 * (v * v - 2.0 * delta) * t * t
    return d, w * w, 1.0 + 2.0 * lam + 6.0 * delta


def _kernel_on(slice_fn):
    def evaluate(lam, mu, delta, t, eta):
        d, scale, flat_den = slice_fn(lam, mu, delta, t)
        k = bounds_from_denominator(t, d, scale, flat_den, () if eta is None else (eta,))
        return {"a2": k.a2, "a3": k.a3} if eta is None else {"fs": k.fs[0].bound}
    return evaluate


def _coef_basic(lam, mu, delta, t, eta):
    return {"a2": t * np.sqrt(2.0 * t) / np.sqrt(1.0 - t * t), "a3": t * t + 2.0 * t / 3.0}


def _fs_eta1(lam, mu, delta, t, eta):
    return {"fs": 2.0 * t / param_factors(lam, mu, delta).fs_flat_denom}


def _fs_basic(lam, mu, delta, t, eta):
    dev = abs(eta - 1.0)
    m = (1.0 - t * t) / (3.0 * t * t)
    return {"fs": np.where(dev <= m, 2.0 * t / 3.0, 2.0 * dev * (t * t * t) / (1.0 - t * t))}


_T81 = np.linspace(0.505, 0.995, 81)
_T9 = np.linspace(0.55, 0.95, 9)
_T5 = np.linspace(0.55, 0.95, 5)
_T3 = [0.55, 0.75, 0.95]
_L9 = np.linspace(1.0, 3.0, 9)
_L5 = np.linspace(1.0, 3.0, 5)
_L3 = [1.0, 2.0, 3.0]
_M5 = np.linspace(0.0, 2.0, 5)
_M3 = [0.0, 1.0, 2.0]
_D5 = np.linspace(0.0, 1.0, 5)
_D3 = [0.0, 0.5, 1.0]
_E9 = np.linspace(-2.0, 4.0, 9).tolist()
_E5 = [-2.0, 0.0, 1.0, 2.0, 4.0]
_E3 = [0.0, 1.0, 3.0]

# id -> (printed formula, lambda, mu, delta and t axes, eta axis).  The axes
# span the slice's verification grid, and a one-value axis is a pin.  A
# coefficient slice has no eta axis (None).
_SLICES = {
    "coef-basic": (_coef_basic, [1.0], [1.0], [0.0], _T81, None),
    "coef-lambda": (_kernel_on(_slice_lambda), _L9, [1.0], [0.0], _T9, None),
    "coef-mu": (_kernel_on(_slice_mu), _L5, _M5, [0.0], _T5, None),
    "coef-delta": (_kernel_on(_slice_delta), _L5, [1.0], _D5, _T5, None),
    "fs-eta1": (_fs_eta1, _L3, _M3, _D3, _T3, [1.0]),
    "fs-basic": (_fs_basic, [1.0], [1.0], [0.0], _T9, _E9),
    "fs-basic-eta1": (_fs_basic, [1.0], [1.0], [0.0], _T81, [1.0]),
    "fs-lambda": (_kernel_on(_slice_lambda), _L5, [1.0], [0.0], _T5, _E5),
    "fs-lambda-eta1": (_kernel_on(_slice_lambda), _L9, [1.0], [0.0], _T9, [1.0]),
    "fs-mu": (_kernel_on(_slice_mu), _L3, _M3, [0.0], _T3, _E3),
    "fs-delta": (_kernel_on(_slice_delta), _L3, [1.0], _D3, _T3, _E3),
    "fs-delta-eta1": (_kernel_on(_slice_delta), _L5, [1.0], _D5, _T5, [1.0]),
}


def corollary_ids() -> list[str]:
    """Reduction identifiers, in table order."""
    return list(_SLICES)


def _entry(cid: str) -> tuple:
    try:
        return _SLICES[cid]
    except KeyError:
        valid = ", ".join(_SLICES)
        raise ValueError(f"unknown corollary id {cid!r}; valid ids: {valid}") from None


class ReductionResult(NamedTuple):
    corollary: str
    n_points: int
    max_deviation: float
    passed: bool


def _deviation(special, general):
    # elementwise; the slice formulas go singular exactly where the general one
    # does, so two matched infinities agree and a mismatch or a nan fails
    with np.errstate(invalid="ignore"):
        dev = np.abs(special - general)
    dev = np.where(np.isnan(dev), math.inf, dev)
    return np.where(np.isinf(special) & np.isinf(general), 0.0, dev)


def reduction_check(cid: str) -> ReductionResult:
    """Compare a printed specialization against the general bounds.

    The slice runs on the columns of its own axes, crossed with its eta
    axis for the Fekete-Szego entries, and every point must agree within
    REDUCTION_TOL; each side is evaluated once per eta over the whole grid.
    """
    formula, *axes, eta_axis = _entry(cid)
    columns = param_grid(param_axes(*axes))
    cf = closed_form(*columns, eta_axis or ())
    general = [{"fs": fs.bound} for fs in cf.fs] or [{"a2": cf.a2, "a3": cf.a3}]
    eta_values = eta_axis or [None]
    worst = float(np.max([_deviation(special, side[key]) for eta, side in zip(eta_values, general)
                          for key, special in formula(*columns, eta).items()]))
    return ReductionResult(cid, len(columns[0]) * len(eta_values), worst, worst <= REDUCTION_TOL)
