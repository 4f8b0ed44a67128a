"""Closed-form coefficient bounds for the class.

Everything funnels through one signed denominator

    d(p) = A - 2 (2A - B) t^2,       A = (lam + mu + 2 xi delta)^2,
                                     B = (2 lam + mu)(mu + 1) + 12 xi delta,

whose modulus controls the second-coefficient bound and the sloped
Fekete-Szego branch.  When |d| vanishes (within a scale-aware tolerance)
the affected bounds are reported as positive infinity rather than raised
as errors: a parameter sweep must cross such points without aborting.
``closed_form`` is the one evaluation of all of this, at one point or
elementwise over arrays; the one-point functions are wrappers over it.
Arrays run on numpy and Python floats on ``math`` (``_FloatOps``), with
the same bits, so that one point never imports numpy.

The Fekete-Szego threshold exists in two conventions.  The branch
condition that actually makes the two branches meet has denominator
4 (2 lam + mu + 6 xi delta) t^2 ("corrected"); a widely printed variant
uses 2 xi delta in place of 6 xi delta ("as-printed") and is kept,
switchable, for regression comparison.  Its branches disagree at the
threshold whenever delta > 0.
"""

from __future__ import annotations

import contextlib
import math
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .classop import ClassParams, ParamFactors, param_factors

if TYPE_CHECKING:
    import numpy as np

CORRECTED = "corrected"
AS_PRINTED = "as-printed"
FLAT = "flat"
SLOPED = "sloped"

# |d| below this (relative to the natural scale of d) counts as singular
_SINGULAR_RTOL = 1e-12


class FeketeSzegoColumns(NamedTuple):
    """The Fekete-Szego bound for one eta, elementwise over the kernel's points."""

    bound: np.ndarray        # +inf on the sloped branch of a singular point
    flat: np.ndarray         # True on the flat branch, |eta - 1| <= M
    threshold_m: np.ndarray  # half-width of the flat band around eta = 1


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


class _FloatOps:
    """The kernel's numpy calls on Python floats, rounded as numpy rounds;
    a zero divisor or a negative root gives numpy's +-inf or nan, not an error."""

    sqrt = staticmethod(lambda x: math.nan if x < 0.0 else math.sqrt(x))
    maximum = staticmethod(lambda a, b: a if a > b or a != a else b)   # nan wins
    where = staticmethod(lambda cond, a, b: a if cond else b)
    divide = staticmethod(lambda a, b: a / b if b else a * math.copysign(math.inf, b))
    errstate = staticmethod(lambda **_: contextlib.nullcontext())


def _ops(*values):
    """_FloatOps when every value is a Python number, else numpy."""
    if all(isinstance(v, (int, float)) for v in values):
        return _FloatOps
    import numpy
    return numpy


def is_singular_denom(d_signed, scale):
    """Scale-aware vanishing test of ``bounds_from_denominator``; elementwise
    for arrays."""
    return abs(d_signed) < _SINGULAR_RTOL * _ops(scale).maximum(1.0, scale)


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
    etas = tuple(etas)
    xp = _ops(t, d, scale, flat_den, m_den, *etas)
    singular = is_singular_denom(d, scale)
    # |d| is zeroed where singular, so that each quotient by it is +inf
    # there; the rare 0/0 sits on a branch that is not selected
    absd = xp.where(singular, 0.0, abs(d))
    flat_bound = 2.0 * t / flat_den
    a3 = 4.0 * t * t / scale + flat_bound
    t3 = t * t * t
    fs = []
    with xp.errstate(divide="ignore", invalid="ignore"):
        a2 = xp.divide(2.0 * t * xp.sqrt(2.0 * t), xp.sqrt(absd))
        m = absd / (4.0 * m_den * t * t)
        for eta in etas:
            dev = abs(eta - 1.0)
            flat = dev <= m
            fs.append(FeketeSzegoColumns(
                bound=xp.where(flat, flat_bound, xp.divide(8.0 * dev * t3, absd)),
                flat=flat,
                threshold_m=m,
            ))
    return DenominatorBounds(singular, a2, a3, tuple(fs))


def closed_form(
    lam, mu, delta, t, etas: Iterable[float] = (), variant: str = CORRECTED
) -> ClosedForm:
    """The bounds of the theorem at one point or elementwise over arrays.

    Python floats in give the same bits as arrays in, without numpy; the
    one-point functions below pass floats because that is several times
    cheaper than one-element arrays.  ``variant`` picks the threshold
    convention of the Fekete-Szego columns, one per eta.
    """
    f, a, d, m_den = _theorem_factors(lam, mu, delta, t, variant)
    return ClosedForm(f, a, d, *bounds_from_denominator(t, d, a, f.fs_flat_denom, etas, m_den))


class BoundReport(NamedTuple):
    """Coefficient bounds at one parameter point."""

    params: ClassParams
    a2_bound: float          # +inf when the denominator vanishes
    a3_bound: float
    A: float
    B: float
    denom: float             # |A - 2 (2A - B) t^2|
    singular: bool           # d vanishes relative to A; the a2 bound is then +inf


class FeketeSzegoReport(NamedTuple):
    """|a3 - eta a2^2| bound at one (parameter point, eta)."""

    params: ClassParams
    eta: float
    bound: float             # +inf on the sloped branch of a singular point
    branch: str              # FLAT | SLOPED
    threshold_m: float       # half-width of the flat band around eta = 1
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
        m_variant=variant,
    )
