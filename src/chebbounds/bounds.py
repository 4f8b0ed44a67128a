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

The reduction registry at the bottom holds the printed specializations
of the bounds on pinned parameter slices; ``reduction_check`` confirms
each against the general formulas on a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .classop import ClassParams, param_factors, param_points

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
    fs: tuple[FeketeSzegoColumns, ...]


class ClosedForm(NamedTuple):
    """Every closed-form quantity, at one point or elementwise over arrays."""

    xi: np.ndarray
    A: np.ndarray
    B: np.ndarray
    d: np.ndarray            # signed A - 2 (2A - B) t^2
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
    """(xi, A, B, signed d, flat denominator, threshold denominator).

    Products are spelled out (``t * t``, never ``t ** 2``): Python's ``**``
    calls libm ``pow`` while numpy squares exactly, so only multiplication
    gives the same bits for floats and for arrays.
    """
    f = param_factors(lam, mu, delta)
    if variant == CORRECTED:
        m_den = f.fs_flat_denom
    elif variant == AS_PRINTED:
        m_den = f.fs_printed_denom
    else:
        raise ValueError(f"unknown variant {variant!r}; use {CORRECTED!r} or {AS_PRINTED!r}")
    a = f.op_linear_factor * f.op_linear_factor
    b = f.quad_sum_factor
    return f.xi, a, b, a - 2.0 * (2.0 * a - b) * t * t, f.fs_flat_denom, m_den


def bounds_from_denominator(
    t, d, scale, flat_den, etas: Iterable[float] = (), m_den=None
) -> DenominatorBounds:
    """Singular flag, |a2| bound and Fekete-Szego columns from d.

    |a2| <= 2t sqrt(2t) / sqrt(|d|).  The Fekete-Szego bound is flat,
    2t / flat_den, inside |eta - 1| <= M and sloped, 8 |eta - 1| t^3 / |d|,
    outside, with M = |d| / (4 m_den t^2) (m_den defaults to flat_den, the
    corrected convention).  Where d vanishes relative to ``scale`` the
    |a2| bound and the sloped branch are +inf and M is 0.  Each eta may be
    a float or an array broadcasting against t.
    """
    m_den = flat_den if m_den is None else m_den
    singular = is_singular_denom(d, scale)
    # d is zeroed where singular, so that each quotient by it is +-inf
    # there; the rare 0/0 sits on a branch that is not selected
    d = np.where(singular, 0.0, d)
    absd = np.abs(d)
    flat_bound = 2.0 * t / flat_den
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
    return DenominatorBounds(singular, a2, tuple(fs))


def closed_form(
    lam, mu, delta, t, etas: Iterable[float] = (), variant: str = CORRECTED
) -> ClosedForm:
    """The bounds of the theorem at one point or elementwise over arrays.

    Python floats in give the same bits as arrays in; the one-point
    functions below pass floats because that is several times cheaper
    than one-element arrays.  ``variant`` picks the threshold convention
    of the Fekete-Szego columns, one per eta.
    """
    xi, a, b, d, flat_den, m_den = _theorem_factors(lam, mu, delta, t, variant)
    singular, a2, fs = bounds_from_denominator(t, d, a, flat_den, etas, m_den)
    a3 = 4.0 * t * t / a + 2.0 * t / flat_den
    return ClosedForm(xi, a, b, d, singular, a2, a3, fs)


def theorem_denominator(p: ClassParams) -> tuple[float, float, float]:
    """(A, B, signed denominator A - 2 (2A - B) t^2)."""
    _, a, b, d, _, _ = _theorem_factors(p.lam, p.mu, p.delta, p.t)
    return a, b, d


@dataclass(frozen=True)
class BoundReport:
    """Coefficient bounds at one parameter point."""

    params: ClassParams
    a2_bound: float          # +inf when the denominator vanishes
    a3_bound: float
    A: float
    B: float
    denom: float             # |A - 2 (2A - B) t^2|

    @property
    def singular(self) -> bool:
        return math.isinf(self.a2_bound)


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
        B=float(cf.B),
        denom=float(abs(cf.d)),
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
# deliberately apart from the general formulas they are checked against.


def _slice_lambda(p: ClassParams) -> tuple[float, float, float]:
    lam, t = p.lam, p.t
    return (1.0 + lam) ** 2 - 4.0 * lam * lam * t * t, (1.0 + lam) ** 2, 2.0 * lam + 1.0


def _slice_mu(p: ClassParams) -> tuple[float, float, float]:
    lam, mu, t = p.lam, p.mu, p.t
    s = lam + mu
    d = s * s - 2.0 * (2.0 * s * s - (2.0 * lam + mu) * (mu + 1.0)) * t * t
    return d, s * s, 2.0 * lam + mu


def _slice_delta(p: ClassParams) -> tuple[float, float, float]:
    lam, delta, t = p.lam, p.delta, p.t
    w = 1.0 + lam + 2.0 * delta
    d = w * w - 4.0 * ((lam + 2.0 * delta) ** 2 - 2.0 * delta) * t * t
    return d, w * w, 1.0 + 2.0 * lam + 6.0 * delta


def _coef_on(slice_fn):
    def evaluate(p: ClassParams, eta: float | None) -> dict[str, float]:
        d, scale, flat_den = slice_fn(p)
        t = p.t
        return {
            "a2": float(bounds_from_denominator(t, d, scale, flat_den).a2),
            "a3": 4.0 * t * t / scale + 2.0 * t / flat_den,
        }
    return evaluate


def _fs_on(slice_fn):
    def evaluate(p: ClassParams, eta: float | None) -> dict[str, float]:
        d, scale, flat_den = slice_fn(p)
        (fs,) = bounds_from_denominator(p.t, d, scale, flat_den, (float(eta),)).fs
        return {"fs": float(fs.bound)}
    return evaluate


def _coef_basic(p: ClassParams, eta: float | None) -> dict[str, float]:
    t = p.t
    return {
        "a2": t * math.sqrt(2.0 * t) / math.sqrt(1.0 - t * t),
        "a3": t * t + 2.0 * t / 3.0,
    }


def _fs_eta1(p: ClassParams, eta: float | None) -> dict[str, float]:
    return {"fs": 2.0 * p.t / p.fs_flat_denom}


def _fs_basic(p: ClassParams, eta: float | None) -> dict[str, float]:
    t = p.t
    dev = abs(float(eta) - 1.0)
    m = (1.0 - t * t) / (3.0 * t * t)
    if dev <= m:
        return {"fs": 2.0 * t / 3.0}
    return {"fs": 2.0 * dev * (t * t * t) / (1.0 - t * t)}


def _fs_basic_eta1(p: ClassParams, eta: float | None) -> dict[str, float]:
    return {"fs": 2.0 * p.t / 3.0}


def _fs_lambda_eta1(p: ClassParams, eta: float | None) -> dict[str, float]:
    return {"fs": 2.0 * p.t / (2.0 * p.lam + 1.0)}


def _fs_delta_eta1(p: ClassParams, eta: float | None) -> dict[str, float]:
    return {"fs": 2.0 * p.t / (1.0 + 2.0 * p.lam + 6.0 * p.delta)}


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


@dataclass(frozen=True)
class _Reduction:
    cid: str
    kind: str                                    # "coef" | "fs"
    pins: tuple[tuple[str, float], ...]
    evaluate: Callable[[ClassParams, float | None], dict[str, float]]
    grid: Callable[[], tuple[list[ClassParams], list[float] | None]]


_REGISTRY: dict[str, _Reduction] = {}


def _register(entry: _Reduction) -> None:
    _REGISTRY[entry.cid] = entry


_register(_Reduction(
    "coef-basic", "coef", (("lambda", 1.0), ("mu", 1.0), ("delta", 0.0)),
    _coef_basic, lambda: (param_points([1.0], [1.0], [0.0], _T81), None)))
_register(_Reduction(
    "coef-lambda", "coef", (("mu", 1.0), ("delta", 0.0)),
    _coef_on(_slice_lambda), lambda: (param_points(_L9, [1.0], [0.0], _T9), None)))
_register(_Reduction(
    "coef-mu", "coef", (("delta", 0.0),),
    _coef_on(_slice_mu), lambda: (param_points(_L5, _M5, [0.0], _T5), None)))
_register(_Reduction(
    "coef-delta", "coef", (("mu", 1.0),),
    _coef_on(_slice_delta), lambda: (param_points(_L5, [1.0], _D5, _T5), None)))
_register(_Reduction(
    "fs-eta1", "fs", (("eta", 1.0),),
    _fs_eta1, lambda: (param_points(_L3, _M3, _D3, _T3), None)))
_register(_Reduction(
    "fs-basic", "fs", (("lambda", 1.0), ("mu", 1.0), ("delta", 0.0)),
    _fs_basic, lambda: (param_points([1.0], [1.0], [0.0], _T9), _E9)))
_register(_Reduction(
    "fs-basic-eta1", "fs", (("lambda", 1.0), ("mu", 1.0), ("delta", 0.0), ("eta", 1.0)),
    _fs_basic_eta1, lambda: (param_points([1.0], [1.0], [0.0], _T81), None)))
_register(_Reduction(
    "fs-lambda", "fs", (("mu", 1.0), ("delta", 0.0)),
    _fs_on(_slice_lambda), lambda: (param_points(_L5, [1.0], [0.0], _T5), _E5)))
_register(_Reduction(
    "fs-lambda-eta1", "fs", (("mu", 1.0), ("delta", 0.0), ("eta", 1.0)),
    _fs_lambda_eta1, lambda: (param_points(_L9, [1.0], [0.0], _T9), None)))
_register(_Reduction(
    "fs-mu", "fs", (("delta", 0.0),),
    _fs_on(_slice_mu), lambda: (param_points(_L3, _M3, [0.0], _T3), _E3)))
_register(_Reduction(
    "fs-delta", "fs", (("mu", 1.0),),
    _fs_on(_slice_delta), lambda: (param_points(_L3, [1.0], _D3, _T3), _E3)))
_register(_Reduction(
    "fs-delta-eta1", "fs", (("mu", 1.0), ("eta", 1.0)),
    _fs_delta_eta1, lambda: (param_points(_L5, [1.0], _D5, _T5), None)))


def corollary_ids() -> list[str]:
    """Registered reduction identifiers, in registry order."""
    return list(_REGISTRY)


def _entry(cid: str) -> _Reduction:
    try:
        return _REGISTRY[cid]
    except KeyError:
        raise ValueError(
            f"unknown corollary id {cid!r}; valid ids: {', '.join(_REGISTRY)}"
        ) from None


def _pin_value(entry: _Reduction, name: str) -> float | None:
    for pin_name, pin_val in entry.pins:
        if pin_name == name:
            return pin_val
    return None


def _check_pins(entry: _Reduction, p: ClassParams, eta: float | None) -> float | None:
    attr = {"lambda": "lam", "mu": "mu", "delta": "delta"}
    for name, val in entry.pins:
        actual = eta if name == "eta" else getattr(p, attr[name])
        if actual is None:
            continue                     # eta omitted: the pinned value applies
        if abs(actual - val) > 1e-12:
            raise ValueError(
                f"corollary {entry.cid!r} pins {name} = {val:g}, got {actual:g}"
            )
    eta_pin = _pin_value(entry, "eta")
    if eta_pin is not None:
        return eta_pin if eta is None else eta
    if entry.kind == "fs":
        if eta is None:
            raise ValueError(f"corollary {entry.cid!r} needs an eta value")
        return eta
    if eta is not None:
        raise ValueError(f"corollary {entry.cid!r} takes no eta")
    return None


def corollary_bound(cid: str, p: ClassParams, eta: float | None = None) -> dict[str, float]:
    """Printed specialized bound(s) at one point of the pinned slice.

    Returns {"a2": ..., "a3": ...} for the coefficient corollaries and
    {"fs": ...} for the Fekete-Szego ones.
    """
    entry = _entry(cid)
    eta_eff = _check_pins(entry, p, eta)
    return entry.evaluate(p, eta_eff)


@dataclass(frozen=True)
class ReductionResult:
    corollary: str
    n_points: int
    max_deviation: float
    passed: bool


def _deviation(special: float, general: float) -> float:
    # the slice formulas go singular exactly where the general one does;
    # two matched infinities are agreement, a mismatch is a failure
    if math.isinf(special) and math.isinf(general):
        return 0.0
    if math.isinf(special) or math.isinf(general):
        return math.inf
    return abs(special - general)


def reduction_check(
    cid: str,
    grid: list[ClassParams] | None = None,
    etas: list[float] | None = None,
    variant: str = CORRECTED,
    tol: float = REDUCTION_TOL,
) -> ReductionResult:
    """Compare a registered specialization against the general bounds.

    Every point of the grid (crossed with the eta values for the
    Fekete-Szego entries) must agree within ``tol``.
    """
    entry = _entry(cid)
    if grid is None:
        grid, default_etas = entry.grid()
        if etas is None:
            etas = default_etas
    eta_pin = _pin_value(entry, "eta")
    if entry.kind == "coef":
        eta_values: list[float | None] = [None]
    elif eta_pin is not None:
        eta_values = [eta_pin]
    elif etas:
        eta_values = list(etas)
    else:
        raise ValueError(f"corollary {cid!r} needs eta values to sweep")
    lam, mu, delta, t = (
        np.array([getattr(p, name) for p in grid]) for name in ("lam", "mu", "delta", "t")
    )
    worst = 0.0
    n = 0
    for eta in eta_values:
        if entry.kind == "coef":
            cf = closed_form(lam, mu, delta, t)
            general = {"a2": cf.a2, "a3": cf.a3}
        else:
            general = {"fs": closed_form(lam, mu, delta, t, (eta,), variant).fs[0].bound}
        for i, p in enumerate(grid):
            for key, val in corollary_bound(cid, p, eta).items():
                worst = max(worst, _deviation(val, float(general[key][i])))
            n += 1
    return ReductionResult(
        corollary=cid, n_points=n, max_deviation=worst, passed=worst <= tol
    )


def default_reduction_grid(cid: str) -> tuple[list[ClassParams], list[float] | None]:
    """The built-in verification grid for one registered reduction."""
    return _entry(cid).grid()
