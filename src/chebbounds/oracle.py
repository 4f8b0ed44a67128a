"""Brute-force verification of the closed-form bounds by searching the
admissible Schwarz-coefficient set.

Two constraint sets are searched.  ``proof-set`` mode maximizes each
quantity over independently chosen unit-disk coefficients, using for
each quantity exactly the relations its bound derivation uses — so its
supremum should match the closed-form bound wherever that bound is
attained.  ``full-system`` mode keeps all four coefficient relations
simultaneously consistent, which additionally caps |a2| through the
linear relation (|c1| <= 1); its supremum may sit strictly below the
closed form, and the gap is reported, not judged.

Sampling is uniform in (modulus^2, argument) per coefficient, with the
extreme combinations of {0, +-1, +-i} injected deterministically: the
analytic maxima sit at boundary sign patterns, so injection makes the
attained equalities exact rather than asymptotic.  The two square-root
branches of a2 enter every verified quantity through a2^2 alone, so one
evaluation accounts for both (solve_member_coeffs exposes the branch
choice explicitly for callers that want a concrete a2).

Search cases are data: each pairs a quantity with one of four a2^2
rules, which also fixes the disk columns drawn.  They are summed (from
the summed degree-2 relation), linear (from the linear relations), free
(a2 drawn directly on a singular point's c2 + d2 = 0 slice) and pinned
(a2 = 0 on that slice).  One evaluator and one witness builder serve all.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import (
    CORRECTED,
    bound_a2,
    bound_a3,
    fekete_szego_bound,
    is_singular_denom,
    theorem_denominator,
)
from .chebyshev import cheb_u
from .classop import ADMISSIBLE_TOL, ClassParams, SchwarzPair

PROOF_SET = "proof-set"
FULL_SYSTEM = "full-system"

WITHIN_BOUND = "within-bound"
VIOLATION = "violation"
SKIPPED = "skipped"

# sup may exceed the bound by float noise at an attained maximum, never more
VERDICT_TOL = 1e-9

_REFINE_FRACTIONS = (0.25, 0.1, 0.04, 0.016, 0.0064)
_REFINE_BATCH = 20


@dataclass(frozen=True)
class OracleConfig:
    mode: str = PROOF_SET
    n_samples: int = 10_000
    seed: int = 0
    grid_refine: bool = True


@dataclass(frozen=True)
class Quantity:
    """What to maximize: |a2|, |a3|, or |a3 - eta a2^2|."""

    kind: str                    # "a2" | "a3" | "fs"
    eta: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("a2", "a3", "fs"):
            raise ValueError(f"unknown quantity kind {self.kind!r}")
        if self.kind == "fs" and self.eta is None:
            raise ValueError("fs quantity needs an eta value")
        if self.kind != "fs" and self.eta is not None:
            raise ValueError(f"{self.kind} quantity takes no eta")
        if self.eta is not None:
            eta = float(self.eta)
            if not math.isfinite(eta):
                raise ValueError(f"eta must be finite, got {eta}")
            object.__setattr__(self, "eta", eta)

    @property
    def label(self) -> str:
        if self.kind == "fs":
            return f"fs@{self.eta:g}"
        return self.kind


A2 = Quantity("a2")
A3 = Quantity("a3")


def fs_quantity(eta: float) -> Quantity:
    return Quantity("fs", float(eta))


@dataclass(frozen=True)
class Witness:
    """Argmax sample, reported as the Schwarz data plus the (a2, a3) it implies."""

    schwarz: SchwarzPair
    a2: complex
    a3: complex


@dataclass(frozen=True)
class OracleResult:
    quantity: Quantity
    params: ClassParams
    mode: str
    sup_value: float
    witness: Witness | None
    n_samples: int               # points actually evaluated (random + injected + refined)
    n_infeasible: int
    seed: int
    closed_form_bound: float
    verdict: str                 # WITHIN_BOUND | VIOLATION | SKIPPED


@dataclass(frozen=True)
class MemberSolution:
    """Outcome of solving the coefficient relations for one (c2, d2)."""

    status: str                  # "ok" | "infeasible" | "singular" | "free"
    a2: complex | None = None
    a3: complex | None = None
    c1: complex | None = None


# a2^2 rule -> the disk columns it draws, in draw order (the samples follow it)
_RULE_COLUMNS = {
    "summed": ("c2", "d2"),              # u1 (c2 + d2) / prefactor, the summed relation
    "linear": ("c1", "d1", "c2", "d2"),  # u1^2 (c1^2 + d1^2) / (2A), the linear relations
    "free": ("c2", "a2"),                # a2 drawn on |a2| <= u1/lin, with d2 = -c2
    "pinned": ("c2", "d2"),              # 0, on a singular point's c2 + d2 = 0 slice
}


class _Case(NamedTuple):
    """One search: the quantity, its a2^2 rule and the point's constants."""

    quantity: Quantity
    mode: str
    rule: str
    u1: float
    lin: float
    a: float
    prefactor: float             # d / (2 t^2); meaningless when singular
    two_f: float


def _case(quantity: Quantity, mode: str, p: ClassParams) -> _Case | None:
    """The search case of one quantity at one point: its a2^2 rule is picked
    here.  None where the quantity carries no finite constraint at the
    point (unbounded; the caller skips it)."""
    u1 = cheb_u(1, p.t)
    a, _, d = theorem_denominator(p)
    singular = is_singular_denom(d, a)
    if mode == FULL_SYSTEM:
        # on a singular point the summed relation degenerates to c2 + d2 = 0
        # with a2 free on |a2| <= u1/lin
        rule = "free" if singular else "summed"
    elif quantity.kind == "a3":
        # a2^2 is bounded through the linear relations (|c1|, |d1| <= 1),
        # not through the summed quadratic one, so the search stays finite
        # even on singular points
        rule = "linear"
    elif not singular:
        rule = "summed"
    elif quantity.kind == "fs" and quantity.eta == 1.0:
        # fs at eta = 1 does not see a2^2; its maximum lives on the
        # c2 + d2 = 0 slice, where a2 is pinned to 0
        rule = "pinned"
    else:
        return None
    return _Case(
        quantity=quantity,
        mode=mode,
        rule=rule,
        u1=u1,
        lin=p.op_linear_factor,
        a=a,
        prefactor=d / (2.0 * p.t * p.t),
        two_f=2.0 * p.fs_flat_denom,
    )


def _evaluate(case: _Case, cols):
    """(a2^2, a3, value, feasible) for column arrays or one point's scalars.

    With r = u1 (c2 - d2) / (2F): a3 = a2^2 + r, and the value is
    sqrt|a2^2|, |a3| or |(1 - eta) a2^2 + r|.  Only the full system's
    summed rule can break |c1| <= 1, i.e. A |a2^2| <= u1^2.
    """
    u1 = case.u1
    c2 = cols["c2"]
    d2 = -c2 if case.rule == "free" else cols["d2"]
    if case.rule == "summed":
        a2sq = u1 * (c2 + d2) / case.prefactor
    elif case.rule == "linear":
        c1, d1 = cols["c1"], cols["d1"]
        a2sq = u1 * u1 * (c1 * c1 + d1 * d1) / (2.0 * case.a)
    elif case.rule == "free":
        a2sq = cols["a2"] * cols["a2"]
    else:
        a2sq = 0.0
    r = (u1 * (c2 - d2)) / case.two_f
    a3 = a2sq + r
    kind = case.quantity.kind
    if kind == "a2":
        value = np.sqrt(np.abs(a2sq))
    elif kind == "a3":
        value = np.abs(a3)
    else:
        value = np.abs((1.0 - case.quantity.eta) * a2sq + r)
    if case.mode == FULL_SYSTEM and case.rule == "summed":
        feasible = case.a * np.abs(a2sq) <= u1 * u1
    else:
        feasible = np.ones(np.shape(value), dtype=bool)
    return a2sq, a3, value, feasible


def _witness(case: _Case, pt: dict[str, complex]) -> Witness:
    """The Schwarz data and (a2, a3) of one point of the case's columns."""
    a2sq, a3, _, _ = _evaluate(case, pt)
    c2 = pt["c2"]
    if case.rule == "free":
        a2, d2 = pt["a2"], -c2
    else:
        a2, d2 = cmath.sqrt(a2sq), pt["d2"]
    if case.rule == "linear":
        c1, d1 = pt["c1"], pt["d1"]
    else:
        c1 = case.lin * a2 / case.u1
        d1 = -c1
    return Witness(SchwarzPair.from_coeffs(c1, c2, d1, d2), a2, a3)


def solve_member_coeffs(
    c2: complex,
    d2: complex,
    sign: int,
    p: ClassParams,
    mode: str = PROOF_SET,
    a2: complex | None = None,
) -> MemberSolution:
    """Solve the degree-2 relations for (a2, a3, c1) given (c2, d2).

    The summed relation gives a2^2 = u1 (c2 + d2) / prefactor; ``sign``
    picks the square root (both roots produce the same |a2|, |a3| and
    |a3 - eta a2^2|).  When the prefactor vanishes the route degenerates:
    status "singular" if c2 + d2 != 0 (no solution this way), otherwise
    a2 is genuinely free — pass it explicitly or receive status "free";
    d2 is then taken as exactly -c2.
    In full-system mode solutions with |c1| > 1 are "infeasible".
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if mode not in (PROOF_SET, FULL_SYSTEM):
        raise ValueError(f"unknown mode {mode!r}")
    c2, d2 = complex(c2), complex(d2)
    for name, c in (("c2", c2), ("d2", d2)):
        if abs(c) > 1.0 + ADMISSIBLE_TOL:
            raise ValueError(f"{name} must lie in the closed unit disk, got |{name}| = {abs(c):g}")
    # the full system's case is exactly this route: the summed relation,
    # or a free a2 where it degenerates
    case = _case(A3, FULL_SYSTEM, p)
    if case.rule == "free":
        if abs(c2 + d2) > 1e-12:
            return MemberSolution("singular")
        if a2 is None:
            return MemberSolution("free")
        w = _witness(case, {"c2": c2, "a2": complex(a2)})
        a2v, c1 = w.a2, w.schwarz.c1
    else:
        w = _witness(case, {"c2": c2, "d2": d2})
        a2v, c1 = (w.a2, w.schwarz.c1) if sign == 1 else (-w.a2, -w.schwarz.c1)
    if mode == FULL_SYSTEM and abs(c1) > 1.0 + ADMISSIBLE_TOL:
        return MemberSolution("infeasible")
    return MemberSolution("ok", a2v, w.a3, c1)


# ---------------------------------------------------------------------------
# sampling engine


def _closed_form_bound(quantity: Quantity, p: ClassParams) -> float:
    if quantity.kind == "a2":
        return bound_a2(p)
    if quantity.kind == "a3":
        return bound_a3(p)
    return fekete_szego_bound(p, quantity.eta, CORRECTED).bound


def _disk_samples(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    r = np.sqrt(rng.random(n)) * radius
    theta = rng.random(n) * (2.0 * math.pi)
    return r * np.exp(1j * theta)


def _extreme_product(columns) -> dict[str, np.ndarray]:
    sets = [np.array([0.0, r, -r, 1j * r, -1j * r], dtype=complex) for _, r in columns]
    mesh = np.meshgrid(*sets, indexing="ij")
    return {name: grid.ravel() for (name, _), grid in zip(columns, mesh)}


def _search(case: _Case, rng, cfg: OracleConfig):
    # (name, disk radius) per column; |a2| is capped by |c1| <= 1
    columns = [
        (name, case.u1 / case.lin if name == "a2" else 1.0)
        for name in _RULE_COLUMNS[case.rule]
    ]
    extremes = _extreme_product(columns)
    cols = {
        name: np.concatenate([extremes[name], _disk_samples(rng, cfg.n_samples, r)])
        for name, r in columns
    }
    _, _, vals, feas = _evaluate(case, cols)
    n_eval = int(vals.size)
    n_infeasible = int(np.count_nonzero(~feas))
    masked = np.where(feas, vals, -np.inf)
    idx = int(np.argmax(masked))
    sup = float(masked[idx])
    best = {name: complex(cols[name][idx]) for name, _ in columns}
    if cfg.grid_refine:
        for frac in _REFINE_FRACTIONS:
            pert = {}
            for name, radius in columns:
                step = (
                    rng.uniform(-1.0, 1.0, _REFINE_BATCH)
                    + 1j * rng.uniform(-1.0, 1.0, _REFINE_BATCH)
                ) * (frac * radius)
                cand = best[name] + step
                mag = np.abs(cand)
                scale = np.where(mag > radius, radius / np.where(mag == 0.0, 1.0, mag), 1.0)
                pert[name] = cand * scale
            _, _, v, f = _evaluate(case, pert)
            n_eval += int(v.size)
            n_infeasible += int(np.count_nonzero(~f))
            vm = np.where(f, v, -np.inf)
            j = int(np.argmax(vm))
            if vm[j] > sup:
                sup = float(vm[j])
                best = {name: complex(pert[name][j]) for name, _ in columns}
    return sup, _witness(case, best), n_eval, n_infeasible


def empirical_sup(
    quantity: Quantity, p: ClassParams, cfg: OracleConfig = OracleConfig()
) -> OracleResult:
    """Empirical supremum of one quantity at one parameter point.

    Deterministic given cfg.seed.  Verdict: within-bound iff the supremum
    stays under the closed-form bound plus 1e-9; points whose closed form
    is unbounded are verdict "skipped" (nothing to violate).
    """
    if cfg.mode not in (PROOF_SET, FULL_SYSTEM):
        raise ValueError(f"unknown mode {cfg.mode!r}")
    if cfg.n_samples < 1:
        raise ValueError(f"n_samples must be positive, got {cfg.n_samples}")
    closed = _closed_form_bound(quantity, p)
    case = _case(quantity, cfg.mode, p)
    if case is None:
        # no finite constraint at this point: |a2| (or the sloped branch)
        # is genuinely unbounded over the relaxed set
        sup, wit, n_eval, n_infeasible = math.inf, None, 0, 0
    else:
        rng = np.random.default_rng(cfg.seed)
        sup, wit, n_eval, n_infeasible = _search(case, rng, cfg)
    if case is None or math.isinf(closed):
        verdict = SKIPPED
    elif sup <= closed + VERDICT_TOL:
        verdict = WITHIN_BOUND
    else:
        verdict = VIOLATION
    return OracleResult(
        quantity=quantity,
        params=p,
        mode=cfg.mode,
        sup_value=sup,
        witness=wit,
        n_samples=n_eval,
        n_infeasible=n_infeasible,
        seed=cfg.seed,
        closed_form_bound=closed,
        verdict=verdict,
    )


def sweep_verify(
    p_grid: list[ClassParams], eta_list: list[float], cfg: OracleConfig
) -> list[OracleResult]:
    """empirical_sup for every (grid point, quantity) combination.

    Quantities are |a2|, |a3|, then one Fekete-Szego entry per eta (an
    empty eta list means coefficient rows only).  Row order follows the
    grid, so results are reproducible from (grid, cfg.seed).
    """
    if not p_grid:
        raise ValueError("empty parameter grid")
    quantities = [A2, A3] + [fs_quantity(e) for e in eta_list]
    return [empirical_sup(q, p, cfg) for p in p_grid for q in quantities]


def violations(results: list[OracleResult]) -> list[OracleResult]:
    return [r for r in results if r.verdict == VIOLATION]

