"""Closed-form coefficient bounds for the class, plus specialization checks.

Everything funnels through one signed denominator

    d(p) = A - 2 (2A - B) t^2,       A = (lam + mu + 2 xi delta)^2,
                                     B = (2 lam + mu)(mu + 1) + 12 xi delta,

whose modulus controls the second-coefficient bound and the sloped
Fekete-Szego branch.  When |d| vanishes (within a scale-aware tolerance)
the affected bounds are reported as positive infinity rather than raised
as errors: a parameter sweep must cross such points without aborting.
``closed_form`` is the one evaluation of all of this, at one point or
elementwise over arrays; the one-point functions are wrappers over it.

The Fekete-Szego threshold exists in two conventions.  The branch
condition that actually makes the two branches meet has denominator
4 (2 lam + mu + 6 xi delta) t^2 ("corrected"); a widely printed variant
uses 2 xi delta in place of 6 xi delta ("as-printed") and is kept,
switchable, for regression comparison.  Its branches disagree at the
threshold whenever delta > 0.

The reduction table at the bottom holds the printed specializations of
the bounds on parameter slices, one row per slice: its formula and the
axes of its verification grid, where a one-value axis is a pin.
``reduction_check`` confirms each against the general formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .classop import ClassParams, ParamFactors, check_eta, param_factors, param_points

CORRECTED = "corrected"
AS_PRINTED = "as-printed"
FLAT = "flat"
SLOPED = "sloped"

UNBOUNDED = math.inf
REDUCTION_TOL = 1e-12

# |d| below this (relative to the natural scale of d) counts as singular
_SINGULAR_RTOL = 1e-12


class FeketeSzegoColumns(NamedTuple):
    """The Fekete-Szego bound for one eta, elementwise over the kernel's points."""

    bound: np.ndarray        # +inf on the sloped branch of a singular point
    flat: np.ndarray         # True on the flat branch, |eta - 1| <= M
    threshold_m: np.ndarray  # half-width of the flat band around eta = 1
    h_eta: np.ndarray        # the weight whose size selects the branch


class DenominatorBounds(NamedTuple):
    """What the signed denominator d alone decides."""

    singular: np.ndarray
    a2: np.ndarray           # +inf where d vanishes
    a3: np.ndarray
    fs: tuple[FeketeSzegoColumns, ...]


class ClosedForm(NamedTuple):
    """Every closed-form quantity, at one point or elementwise over arrays."""

    factors: ParamFactors    # the parameter combinations the bounds were built from
    A: np.ndarray
    d: np.ndarray            # signed A - 2 (2A - B) t^2, B = factors.quad_sum_factor
    singular: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    fs: tuple[FeketeSzegoColumns, ...]


def is_singular_denom(d_signed, scale):
    """Scale-aware vanishing test shared by bounds, oracle and reductions.

    Elementwise for arrays.
    """
    return abs(d_signed) < _SINGULAR_RTOL * np.maximum(1.0, scale)


def _theorem_factors(lam, mu, delta, t, variant: str = CORRECTED):
    """(parameter factors, A, signed d, threshold denominator).

    Products are spelled out (``t * t``, never a power): Python's power
    operator calls libm ``pow`` while numpy squares exactly, so only
    multiplication gives the same bits for floats and for arrays.
    """
    f = param_factors(lam, mu, delta)
    if variant == CORRECTED:
        m_den = f.fs_flat_denom
    elif variant == AS_PRINTED:
        m_den = f.fs_printed_denom
    else:
        raise ValueError(f"unknown variant {variant!r}; use {CORRECTED!r} or {AS_PRINTED!r}")
    a = f.op_linear_factor * f.op_linear_factor
    return f, a, a - 2.0 * (2.0 * a - f.quad_sum_factor) * t * t, m_den


def bounds_from_denominator(
    t, d, scale, flat_den, etas: Iterable[float] = (), m_den=None
) -> DenominatorBounds:
    """Singular flag, |a2| and |a3| bounds and Fekete-Szego columns from d.

    |a2| <= 2t sqrt(2t) / sqrt(|d|), |a3| <= 4t^2 / scale + 2t / flat_den.
    The Fekete-Szego bound is flat, 2t / flat_den, inside |eta - 1| <= M and
    sloped, 8 |eta - 1| t^3 / |d|, outside, with M = |d| / (4 m_den t^2)
    (m_den defaults to flat_den, the corrected convention).  Where d vanishes
    relative to ``scale`` (A for the theorem) the |a2| bound and the sloped
    branch are +inf and M is 0.  Each eta may be an array broadcasting with t.
    """
    m_den = flat_den if m_den is None else m_den
    singular = is_singular_denom(d, scale)
    # d is zeroed where singular, so that each quotient by it is +-inf
    # there; the rare 0/0 sits on a branch that is not selected
    d = np.where(singular, 0.0, d)
    absd = np.abs(d)
    flat_bound = 2.0 * t / flat_den
    a3 = 4.0 * t * t / scale + flat_bound
    t3 = t * t * t
    fs = []
    with np.errstate(divide="ignore", invalid="ignore"):
        a2 = 2.0 * t * np.sqrt(2.0 * t) / np.sqrt(absd)
        m = absd / (4.0 * m_den * t * t)
        for eta in etas:
            dev = abs(eta - 1.0)
            flat = dev <= m
            fs.append(FeketeSzegoColumns(
                bound=np.where(flat, flat_bound, 8.0 * dev * t3 / absd),
                flat=flat,
                threshold_m=m,
                h_eta=np.where(eta == 1.0, 0.0, 2.0 * t * t * (1.0 - eta) / d),
            ))
    return DenominatorBounds(singular, a2, a3, tuple(fs))


def closed_form(
    lam, mu, delta, t, etas: Iterable[float] = (), variant: str = CORRECTED
) -> ClosedForm:
    """The bounds of the theorem at one point or elementwise over arrays.

    Python floats in give the same bits as arrays in; the one-point
    functions below pass floats because that is several times cheaper
    than one-element arrays.  ``variant`` picks the threshold convention
    of the Fekete-Szego columns, one per eta.
    """
    f, a, d, m_den = _theorem_factors(lam, mu, delta, t, variant)
    return ClosedForm(f, a, d, *bounds_from_denominator(t, d, a, f.fs_flat_denom, etas, m_den))


def theorem_denominator(p: ClassParams) -> tuple[float, float, float]:
    """(A, B, signed denominator A - 2 (2A - B) t^2)."""
    f, a, d, _ = _theorem_factors(p.lam, p.mu, p.delta, p.t)
    return a, f.quad_sum_factor, d


@dataclass(frozen=True)
class BoundReport:
    """Coefficient bounds at one parameter point."""

    params: ClassParams
    a2_bound: float          # +inf when the denominator vanishes
    a3_bound: float
    A: float
    B: float
    denom: float             # |A - 2 (2A - B) t^2|
    singular: bool           # d vanishes relative to A; the a2 bound is then +inf


@dataclass(frozen=True)
class FeketeSzegoReport:
    """|a3 - eta a2^2| bound at one (parameter point, eta)."""

    params: ClassParams
    eta: float
    bound: float             # +inf on the sloped branch of a singular point
    branch: str              # FLAT | SLOPED
    threshold_m: float       # half-width of the flat band around eta = 1
    h_eta: float             # the weight whose size selects the branch
    m_variant: str           # CORRECTED | AS_PRINTED


def bound_a2(p: ClassParams) -> float:
    """Bound on |a2|: 2t sqrt(2t) / sqrt(|d|), or +inf when d vanishes."""
    return float(closed_form(p.lam, p.mu, p.delta, p.t).a2)


def bound_a3(p: ClassParams) -> float:
    """Bound on |a3|: 4t^2 / A + 2t / (2 lam + mu + 6 xi delta); always finite."""
    return float(closed_form(p.lam, p.mu, p.delta, p.t).a3)


def bound_report(p: ClassParams) -> BoundReport:
    cf = closed_form(p.lam, p.mu, p.delta, p.t)
    return BoundReport(
        params=p,
        a2_bound=float(cf.a2),
        a3_bound=float(cf.a3),
        A=float(cf.A),
        B=float(cf.factors.quad_sum_factor),
        denom=float(abs(cf.d)),
        singular=bool(cf.singular),
    )


def fekete_szego_bound(
    p: ClassParams, eta: float, variant: str = CORRECTED
) -> FeketeSzegoReport:
    """Piecewise bound on |a3 - eta a2^2| for real eta.

    Flat branch 2t / (2 lam + mu + 6 xi delta) inside |eta - 1| <= M,
    sloped branch 8 |eta - 1| t^3 / |d| outside.  M carries the variant:
    |d| / (4 (2 lam + mu + 6 xi delta) t^2) corrected, printed-denominator
    form otherwise.
    """
    eta = float(eta)
    (fs,) = closed_form(p.lam, p.mu, p.delta, p.t, (eta,), variant).fs
    return FeketeSzegoReport(
        params=p,
        eta=eta,
        bound=float(fs.bound),
        branch=FLAT if fs.flat else SLOPED,
        threshold_m=float(fs.threshold_m),
        h_eta=float(fs.h_eta),
        m_variant=variant,
    )


# ---------------------------------------------------------------------------
# printed specializations on pinned parameter slices
#
# Each slice spells out its own d, the scale of d and the flat denominator,
# apart from the general formulas, for the theorem's kernel to bound; the basic
# slices write their bounds out by hand, so a fault in the kernel still fails.
# Each formula takes (lam, mu, delta, t, eta) as floats or arrays, like closed_form.


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
        raise ValueError(
            f"unknown corollary id {cid!r}; valid ids: {', '.join(_SLICES)}"
        ) from None


def _require_pins(cid: str, axes, columns, names=("lambda", "mu", "delta", "t")) -> None:
    """Reject the first value of a column (a float or an array) off its pin."""
    for name, axis, values in zip(names, axes, columns):
        values = np.atleast_1d(values)
        off = values[np.abs(values - axis[0]) > 1e-12] if len(axis) == 1 else ()
        if len(off):
            raise ValueError(f"corollary {cid!r} pins {name} = {axis[0]:g}, got {off[0]:g}")


def _slice_etas(
    cid: str, etas: list[float] | None, needs: str = "an eta value"
) -> list[float | None]:
    """The eta values a slice is evaluated at: [None] for a coefficient
    slice, the pin when an eta-pinned slice is given none, else ``etas``,
    each of which must pass ``check_eta``."""
    eta_axis = _entry(cid)[-1]
    if eta_axis is None:
        if etas:
            raise ValueError(f"corollary {cid!r} takes no eta")
        return [None]
    etas = [check_eta(eta) for eta in etas or ()]
    _require_pins(cid, [eta_axis], [etas], ["eta"])
    if etas:
        return etas
    if len(eta_axis) == 1:
        return list(eta_axis)
    raise ValueError(f"corollary {cid!r} needs {needs}")


def corollary_bound(cid: str, p: ClassParams, eta: float | None = None) -> dict[str, float]:
    """Printed specialized bound(s) at one point of the pinned slice.

    Returns {"a2": ..., "a3": ...} for the coefficient corollaries and
    {"fs": ...} for the Fekete-Szego ones.
    """
    formula, *axes, _ = _entry(cid)
    values = (p.lam, p.mu, p.delta, p.t)
    _require_pins(cid, axes, values)
    (eta,) = _slice_etas(cid, None if eta is None else [eta])
    return {key: float(value) for key, value in formula(*values, eta).items()}


@dataclass(frozen=True)
class ReductionResult:
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


def reduction_check(
    cid: str,
    grid: list[ClassParams] | None = None,
    etas: list[float] | None = None,
    variant: str = CORRECTED,
) -> ReductionResult:
    """Compare a printed specialization against the general bounds.

    Every point of the grid (crossed with the eta values for the
    Fekete-Szego entries) must agree within REDUCTION_TOL; each side is
    evaluated once per eta over the whole grid.
    """
    if grid is None:
        grid, default_etas = default_reduction_grid(cid)
        if etas is None:
            etas = default_etas
    eta_values = _slice_etas(cid, etas, "eta values to sweep")
    if not grid:
        raise ValueError("empty parameter grid")
    columns = [np.array([getattr(p, name) for p in grid]) for name in ("lam", "mu", "delta", "t")]
    formula, *axes, _ = _entry(cid)
    _require_pins(cid, axes, columns)
    fs_etas = [eta for eta in eta_values if eta is not None]
    cf = closed_form(*columns, fs_etas, variant)
    general = [{"fs": fs.bound} for fs in cf.fs] or [{"a2": cf.a2, "a3": cf.a3}]
    worst = float(np.max([_deviation(special, side[key]) for eta, side in zip(eta_values, general)
                          for key, special in formula(*columns, eta).items()]))
    return ReductionResult(cid, len(grid) * len(eta_values), worst, worst <= REDUCTION_TOL)


def default_reduction_grid(cid: str) -> tuple[list[ClassParams], list[float] | None]:
    """The built-in verification grid of one reduction, and its eta values
    (None for a coefficient or an eta-pinned slice)."""
    _, *axes, eta_axis = _entry(cid)
    return param_points(*axes), (list(eta_axis) if eta_axis and len(eta_axis) > 1 else None)
