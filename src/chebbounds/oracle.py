"""Brute-force verification of the closed-form bounds by searching the
admissible Schwarz-coefficient set.

Search cases are data.  A mode is two rows of one table, for regular and
for singular points, that give each quantity an a2^2 rule, or none where
it is unbounded and skipped.  ``proof-set`` mode maximizes each quantity
over independent unit-disk coefficients by exactly the relations its bound
derivation uses, so its supremum should match the closed form wherever that
bound is attained: summed (the summed degree-2 relation), linear (the linear
relations) and pinned (a2 = 0 on a singular point's c2 + d2 = 0 slice).
``full-system`` mode keeps all four coefficient relations consistent, so its
supremum may sit below the closed form, a gap reported, not judged: capped
(summed, with |c2 + d2| capped at R = min(2, u1 |prefactor| / A) through
|c1| <= 1) and free (a2 on that slice, where |c1| <= 1 is |a2| <= rho =
u1/lin).  Each rule is one row of a second table: its unit-disk columns,
a2^2 coefficient, score-bound form, injected maximizers and witness
recovery.  Nothing below the tables reads the mode or a rule's name.

Sampling is uniform in (modulus^2, argument) per coefficient, after the
extreme combinations of {0, +-1, +-i}: the analytic maxima sit at boundary
sign patterns, so the attained equalities are exact, not asymptotic.  Every
sample is feasible: a capped drawn pair (c2, d2) in the bidisk stands for
c2' = (R/2 s + w) / 2 and d2' = (R/2 s - w) / 2, with s = c2 + d2 and
w = c2 - d2, both in the unit disk with |c2' + d2'| <= R, so its a2^2 is
the summed one scaled by R/2.  The capped maxima, the vertices (1, R - 1)
and (R - 1, 1) times {+-1, +-i}, are injected per point after the extremes,
as (2 - R/2, R/2) and its swap.  A free a2 is drawn on the unit disk and
scaled by rho.

Every rule is pruned: its injected columns come first and are scored alone.
Then the rule's form at modulus 1 bounds every score over the closed unit
polydisk; when at every point it stays within a relative 1e-12 of the
point's injected sup, the rule draws no random sample at all.  Otherwise
it draws them, and scans a point's samples only where that point's bound
exceeds its sup and the form at the largest drawn modulus does not fall
below the sup by more than a relative 1e-12.  Unscanned samples are
bounded, not evaluated, and n_samples still counts them.  No point of the
default ``verify`` grid or of ``verify-full``'s needs the draws.  The
results are those of a search that always draws, bit for bit, while the
drawn reach is at most 1 - 4.01e-12: then the bound at the reach prunes
every point that modulus 1 settles, the bound of |a2| scaling with the
root of the reach.  A larger reach has a chance of 1.6e-7 (two columns) to
3.2e-7 (four) a rule at 10,000 samples.  |a3| is scored as fs@0, and
quantities whose scores are the same numbers share one search.  The two
roots of a2 enter every verified quantity through a2^2 alone, so one
evaluation serves both.

One search serves a whole grid (``empirical_sup`` is a one-point grid),
with its bounds and case constants from one ``closed_form`` call.  A rule's
samples, where drawn, are drawn once per (columns, seed, sample count) and
shared by every point.  One pass scores them against chunks of points of at
most CHUNK_ELEMENTS samples in all (at least a point), releasing each
chunk's arrays before the next, and keeps each quantity's sup and incumbent
as columns, so the search's transient memory hardly grows with the grid
(full system, 2000 samples: 2.06 MB at 512 points, 2.08 MB at 4096, under
tracemalloc).  Results equal a per-point search's bit for bit.  A search
returns them as one record of columns, OracleResults; an OracleResult is
built on first read of its index and its witness on first read of that
field, so a verify that only counts verdicts builds neither.  The array
passes multiply by the reciprocal of a real divisor, as numpy's complex
division does; the scalar witness path divides, as Python rounds otherwise.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from collections.abc import Callable, Sequence
from typing import NamedTuple, NoReturn

import numpy as np

# perfbench wraps bound_a2, bound_a3, fekete_szego_bound and cheb_u here by name
from .bounds import CORRECTED, bound_a2, bound_a3, closed_form, fekete_szego_bound  # noqa: F401
from .chebyshev import cheb_u  # noqa: F401
from .classop import FULL_SYSTEM, PROOF_SET, ClassParams, SchwarzPair, check_eta

WITHIN_BOUND = "within-bound"
VIOLATION = "violation"
SKIPPED = "skipped"
_VERDICTS = (WITHIN_BOUND, VIOLATION, SKIPPED)   # by OracleResults verdict code

# sup may exceed the bound by float noise at an attained maximum, never more:
# VERDICT_TOL plus VERDICT_ULPS ulps of the bound, so that a bound above about
# 4.5e6, whose ulp exceeds VERDICT_TOL, still admits its own rounding
VERDICT_TOL = 1e-9
VERDICT_ULPS = 4

# elements per working array of the search, whatever the grid size: points x
# (injected columns + samples); at least a point
CHUNK_ELEMENTS = 1 << 14


class OracleConfig(NamedTuple):
    mode: str = PROOF_SET
    n_samples: int = 10_000
    seed: int = 0


class _Quantity(NamedTuple):
    kind: str                    # "a2" | "a3" | "fs"
    eta: float | None = None


class Quantity(_Quantity):
    """What to maximize: |a2|, |a3|, or |a3 - eta a2^2|."""

    __slots__ = ()

    def __new__(cls, kind: str, eta: float | None = None) -> Quantity:
        if kind not in ("a2", "a3", "fs"):
            raise ValueError(f"unknown quantity kind {kind!r}")
        if kind == "fs" and eta is None:
            raise ValueError("fs quantity needs an eta value")
        if kind != "fs" and eta is not None:
            raise ValueError(f"{kind} quantity takes no eta")
        return super().__new__(cls, kind, None if eta is None else check_eta(eta))

    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace checks too

    @property
    def label(self) -> str:
        if self.kind == "fs":
            return f"fs@{self.eta:g}"
        return self.kind


A2 = Quantity("a2")
A3 = Quantity("a3")


def fs_quantity(eta: float) -> Quantity:
    return Quantity("fs", float(eta))


class Witness(NamedTuple):
    """Argmax sample, reported as the Schwarz data plus the (a2, a3) it implies."""

    schwarz: SchwarzPair
    a2: complex
    a3: complex


class OracleResult:
    """One (point, quantity) result of a search, immutable and equal by value.
    Its witness is a Witness or None, or a callable that builds it on first read."""

    __slots__ = ("quantity", "params", "mode", "sup_value", "_witness",
                 "n_samples",            # random + injected; pruned ones bounded, not scored
                 "n_infeasible",         # 0: every sample searched is feasible
                 "seed", "closed_form_bound",
                 "verdict")              # WITHIN_BOUND | VIOLATION | SKIPPED
    _fields = tuple(name.lstrip("_") for name in __slots__)

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value) -> NoReturn:
        raise AttributeError(f"cannot assign to field {name!r}")

    def _witness_value(self) -> Witness | None:
        if callable(value := self._witness):    # built once, then kept; a Witness is no callable
            object.__setattr__(self, "_witness", value := value())
        return value

    witness = property(_witness_value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"OracleResult({values})"

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())


class OracleResults(Sequence):
    """Every (point, quantity) result of one search, points outermost, as
    columns: per (quantity, point) the sup, the closed-form bound and a verdict
    code; per singular flag and quantity, (build, n_samples); per point, its row
    among the points of its flag.  Each OracleResult is built on first read and
    then kept; the record equals any sequence of equal results."""

    def __init__(self, quantities, grid, cfg, sups, bounds, searched, singular, rows):
        self.quantities, self.grid, self.mode, self.seed = quantities, grid, cfg.mode, cfg.seed
        self.sups, self.bounds, self.searched, self.singular, self.rows = (
            sups, bounds, searched, singular, rows)
        # per singular flag and quantity, whether it went unsearched
        unsearched = np.array([[build is None for build, _ in flag] for flag in searched])
        skipped = unsearched[singular.astype(int)].T | np.isinf(bounds)
        finite = np.where(skipped, 0.0, bounds)
        slack = VERDICT_TOL + VERDICT_ULPS * np.finfo(float).eps * np.abs(finite)
        self.codes = np.where(skipped, 2, np.where(sups <= finite + slack, 0, 1)).astype(np.int8)
        self._items: dict[int, OracleResult] = {}

    def __len__(self) -> int:
        return self.sups.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]
        if (item := self._items.get(i)) is None:
            p, k = divmod(i, len(self.quantities))
            build, n_eval = self.searched[int(self.singular[p])][k]
            witness = None if build is None else functools.partial(build, int(self.rows[p]))
            item = self._items[i] = OracleResult(
                self.quantities[k], self.grid[p], self.mode, float(self.sups[k, p]), witness,
                n_eval, 0, self.seed, float(self.bounds[k, p]), _VERDICTS[self.codes[k, p]])
        return item

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


class _Rule(NamedTuple):
    """One a2^2 rule.  Its samples are unit-disk columns, and a2^2 = lead * factor
    * q / divisor, in this order, with q a point-free term of the columns; every
    rule has r = u1 (c2 - d2) / (2F) and a3 = a2^2 + r."""

    columns: tuple[str, ...]     # the disk columns drawn, in draw order
    terms: Callable              # columns -> (q, c2 - d2)
    coeff: Callable              # case -> (lead, factor, divisor)
    form: Callable               # (|x|, |beta|, reach) -> a bound on |x q + beta (c2 - d2)|
    recover: Callable            # (case, columns, a2^2) -> a witness's (a2, c1, c2, d1, d2)
    injects: int = 0             # per point, the maximizers injected after the extremes
    maximizers: Callable = lambda case: {}   # case -> {column: points x injects}


def _sum_diff(cols):
    return cols["c2"] + cols["d2"], cols["c2"] - cols["d2"]


def _joint(x, beta, reach):
    return 2.0 * np.maximum(x, beta) * reach


def _from_a2(case, a2, c2, d2):
    """A witness's (a2, c1, c2, d1, d2), c1 = -d1 = lin a2 / u1 by the linear relations."""
    c1 = case.lin * a2 / case.u1
    return a2, c1, c2, -c1, d2


def _drawn(case, cols, a2sq):
    """The witness at the drawn (c2, d2), a2 the principal root of a2^2."""
    return _from_a2(case, cmath.sqrt(a2sq), cols["c2"], cols["d2"])


def _feasible(case, cols):
    """The feasible pair that a capped drawn pair (c2, d2) in the bidisk stands
    for, with c2 + d2 scaled by R/2: c2' = (R/2) c2 + (1 - R/2) (c2 - d2) / 2."""
    s, w = case.half_cap * (cols["c2"] + cols["d2"]), cols["c2"] - cols["d2"]
    return (s + w) / 2.0, (s - w) / 2.0


def _vertices(case):
    """The capped rule's maximizers per point, the vertices (1, R - 1) and
    (R - 1, 1) times {+-1, +-i}, drawn as (2 - R/2, R/2) and its swap."""
    v = np.stack([2.0 - case.half_cap, case.half_cap], axis=1) * _PHASES
    return {"c2": v.reshape(len(v), -1), "d2": v[:, ::-1].reshape(len(v), -1)}


_PHASES = np.array([1.0, -1.0, 1j, -1j])

# a2^2 rule -> its row; a form bounds the score over columns of modulus <= reach <= 1
_RULE_TABLE = {
    # u1 (c2 + d2) / prefactor, the summed relation
    "summed": _Rule(("c2", "d2"), _sum_diff, lambda k: (k.u1, 1.0, k.prefactor), _joint, _drawn),
    # summed, c2 + d2 scaled by R/2 so that |c1| <= 1; the witness is (c2', d2')
    "capped": _Rule(("c2", "d2"), _sum_diff, lambda k: (k.u1, k.half_cap, k.prefactor), _joint,
                    lambda k, c, a2sq: _from_a2(k, cmath.sqrt(a2sq), *_feasible(k, c)),
                    2 * _PHASES.size, _vertices),
    # u1^2 (c1^2 + d1^2) / (2A), the linear relations
    "linear": _Rule(("c1", "d1", "c2", "d2"),
                    lambda c: (c["c1"] * c["c1"] + c["d1"] * c["d1"], c["c2"] - c["d2"]),
                    lambda k: (k.u1, k.u1, 2.0 * k.a),
                    lambda x, beta, reach: 2.0 * (x + beta) * reach,
                    lambda k, c, a2sq: (cmath.sqrt(a2sq), c["c1"], c["c2"], c["d1"], c["d2"])),
    # (rho a2)^2, rho = u1/lin: a2 free on |a2| <= rho, drawn on the unit disk; d2 = -c2
    "free": _Rule(("c2", "a2"), lambda c: (c["a2"] * c["a2"], c["c2"] - -c["c2"]),
                  lambda k: (k.u1 / k.lin, k.u1 / k.lin, 1.0),
                  lambda x, beta, reach: (x * reach + 2.0 * beta) * reach,
                  lambda k, c, a2sq: _from_a2(k, c["a2"] * (k.u1 / k.lin), c["c2"], -c["c2"])),
    # 0, on a singular point's c2 + d2 = 0 slice
    "pinned": _Rule(("c2", "d2"), lambda c: (0.0, c["c2"] - c["d2"]), lambda k: (k.u1, 0.0, 1.0),
                    _joint, _drawn),
}

# mode -> its rows for a regular and a singular point, each {quantity: a2^2 rule}, where
# "fs@1" is fs at eta = 1 and "fs" any other eta; a quantity missing from a row carries
# no finite constraint there (unbounded; the search skips it)
_RULES = {
    # |a3| through the linear relations (|c1|, |d1| <= 1), finite on singular points too;
    # fs@1 does not see a2^2, so there it lives on c2 + d2 = 0, where a2 is pinned to 0
    PROOF_SET: ({"a2": "summed", "a3": "linear", "fs@1": "summed", "fs": "summed"},
                {"a3": "linear", "fs@1": "pinned"}),
    # on a singular point the summed relation degenerates to c2 + d2 = 0, a2 free
    FULL_SYSTEM: (dict.fromkeys(("a2", "a3", "fs@1", "fs"), "capped"),
                  dict.fromkeys(("a2", "a3", "fs@1", "fs"), "free")),
}


class _Case(NamedTuple):
    """One rule's constants at one point, or per point of a chunk as columns."""

    rule: _Rule
    u1: float
    lin: float
    a: float
    prefactor: float             # d / (2 t^2); meaningless when singular
    two_f: float
    half_cap: float              # R/2 = min(1, |d| / (2 t A)): |c1| <= 1 caps |c2 + d2| at R


def _rule(quantity: Quantity, mode: str, singular: bool) -> str | None:
    """The a2^2 rule of one quantity at a point, or None where it is skipped."""
    return _RULES[mode][singular].get("fs@1" if quantity.eta == 1.0 else quantity.kind)


def _grid_cases(p_grid: Sequence[ClassParams], etas=()):
    """The grid's closed form (corrected, one Fekete-Szego column per eta)
    and the _Case constants (u1, lin, A, prefactor, 2F, R/2), one array each."""
    lam, mu, delta, t = np.asarray(p_grid, dtype=float).T
    cf = closed_form(lam, mu, delta, t, etas, CORRECTED)
    f = cf.factors
    return cf, (2.0 * t, f.op_linear_factor, cf.A, cf.d / (2.0 * t * t), 2.0 * f.fs_flat_denom,
                np.minimum(1.0, np.abs(cf.d) / (2.0 * t * cf.A)))


def _evaluate(case: _Case, terms):
    """(a2^2, r) from the case's terms (q, c2 - d2), by its rule's coefficient."""
    q, diff = terms
    # numpy divides complex x by real d as (x.real + x.imag * 0) * (1 / d), so arrays
    # multiply by 1 / d; Python's complex division rounds otherwise, so scalars divide
    over = (lambda x, d: x * (1.0 / d)) if isinstance(case.u1, np.ndarray) else operator.truediv
    lead, factor, divisor = case.rule.coeff(case)
    return over(lead * factor * q, divisor), over(case.u1 * diff, case.two_f)


def _scores(quantity: Quantity, a2sq, r):
    """sqrt|a2^2| or |(1 - eta) a2^2 + r|, |a3| at eta = 0, per sample."""
    if quantity.kind == "a2":
        return np.sqrt(np.abs(a2sq))
    return np.abs((1.0 - (quantity.eta or 0.0)) * a2sq + r)


def _score_bound(quantity: Quantity, case: _Case, reach):
    """Per point, a bound up to rounding on the score of a sample whose columns
    have modulus <= reach <= 1.  With a2^2 = alpha q and r = beta (c2 - d2), the
    score |x q + r|, x = (1 - eta) alpha, is at most the rule's form of (|x|,
    |beta|, reach): 2 max(|x|, |beta|) reach for q = c2 + d2, as the score is
    |(x + beta) c2 + (x - beta) d2|; 2 (|x| + |beta|) reach for c1^2 + d1^2; and
    |x| reach^2 + 2 |beta| reach for a2^2 with d2 = -c2.  And |a2| = sqrt|alpha q|
    is at most the root of the form of (|alpha|, 0, reach)."""
    alpha, beta = _evaluate(case, (1.0, 1.0))
    if quantity.kind == "a2":
        return np.sqrt(case.rule.form(np.abs(alpha), 0.0, reach))
    return case.rule.form(np.abs((1.0 - (quantity.eta or 0.0)) * alpha), np.abs(beta), reach)


def _witness(case: _Case, pt: dict[str, complex]) -> Witness:
    """The Schwarz data and (a2, a3) of one point of the case's columns."""
    a2sq, r = _evaluate(case, case.rule.terms(pt))
    a2, c1, c2, d1, d2 = case.rule.recover(case, pt, a2sq)
    return Witness(SchwarzPair.from_coeffs(c1, c2, d1, d2), a2, a2sq + r)


def _witness_at(rule: _Rule, consts, best, points, row: int) -> Witness:
    """The witness of grid point points[row], whose incumbent is best[:, row]."""
    at = _Case(rule, *(float(c[points[row]]) for c in consts))
    return _witness(at, dict(zip(rule.columns, best[:, row].tolist())))


# ---------------------------------------------------------------------------
# sampling engine


class _Draws(NamedTuple):
    cols: dict[str, np.ndarray]  # unit-disk columns, injected extremes first
    reach: float                 # the largest modulus in the random part of cols


def _extremes(names: tuple[str, ...]) -> dict[str, np.ndarray]:
    """Every combination of {0, +-1, +-i} over the columns ``names``."""
    # the literal -1j has real part -0.0
    unit = np.array([0.0, 1.0, -1.0, 1j, complex(0.0, -1.0)])
    return dict(zip(names, (g.ravel() for g in np.meshgrid(*[unit] * len(names), indexing="ij"))))


@functools.lru_cache(maxsize=4)
def _draws(names: tuple[str, ...], seed: int, n: int) -> _Draws:
    """One rule's samples, drawn once per (seed, n) and shared by every point
    searched.  The columns ``names`` come from ``default_rng(seed)`` in
    order, each as sqrt(u) exp(i theta) on the unit disk, after the
    extremes.  The arrays are read-only."""
    rng = np.random.default_rng(seed)
    cols = {}
    for name, extremes in _extremes(names).items():
        s = np.sqrt(rng.random(n))
        phase = np.exp(1j * (rng.random(n) * (2.0 * math.pi)))
        cols[name] = np.concatenate([extremes, s * phase])
        cols[name].flags.writeable = False
    return _Draws(cols, max(float(np.max(np.abs(col[-n:]))) for col in cols.values()))


def _search_rule(rule: _Rule, points: np.ndarray, quantities, consts, cfg: OracleConfig, sups):
    """Search one rule at the grid indices ``points`` for each (positions, quantity)
    of ``quantities`` in one sampling pass, writing its sup at each of ``points``
    into those rows of ``sups``.  Returns, per entry of ``quantities``, its
    witness builder, whose build(row) is the witness at points[row], and the
    samples each point counts."""
    names = rule.columns
    extremes = _extremes(names)
    # the injected columns come first: the shared extremes, then the rule's maximizers
    lead = extremes["c2"].size
    width = lead + rule.injects + cfg.n_samples
    # per (quantity, point): the incumbent columns of its sup
    best = np.empty((len(quantities), len(names), points.size), complex)

    def score(at, source):
        """Score the columns of ``source``, the maximizers inserted after the
        extremes, at points[at], and keep each quantity's sup and incumbent."""
        # as many points as hold their scored columns within CHUNK_ELEMENTS, at least one
        step = max(1, CHUNK_ELEMENTS // (source["c2"].size + rule.injects))
        for start in range(0, at.size, step):
            span = at[start:start + step]
            rows = np.arange(span.size)
            case = _Case(rule, *(c[points[span], None] for c in consts))
            cols = dict(source)
            for name, at_point in rule.maximizers(case).items():
                col = np.broadcast_to(cols[name], (span.size, cols[name].size))
                cols[name] = np.concatenate([col[:, :lead], at_point, col[:, lead:]], axis=1)
            a2sq, r = _evaluate(case, rule.terms(cols))
            for k, (positions, quantity) in enumerate(quantities):
                vals = _scores(quantity, a2sq, r)
                idx = np.argmax(vals, axis=1)
                sups[np.ix_(positions, points[span])] = vals[rows, idx]
                best[k][:, span] = [np.broadcast_to(cols[n], vals.shape)[rows, idx] for n in names]
            # so that the next chunk's arrays do not come on top of these
            del cols, a2sq, r, vals

    # the injected columns alone; then the random samples, drawn only where the
    # score bound over the closed unit polydisk exceeds a point's injected sup,
    # and scanned there only where the bound at the drawn reach does not fall
    # below it
    score(np.arange(points.size), extremes)
    case = _Case(rule, *(c[points] for c in consts))
    sup = sups[np.ix_([positions[0] for positions, _ in quantities], points)]
    bounds = [_score_bound(q, case, 1.0) for _, q in quantities]
    at = np.flatnonzero(~np.all(np.less_equal(bounds, sup * (1.0 + 1e-12)), axis=0))
    if at.size:
        draws = _draws(names, cfg.seed, cfg.n_samples)
        bounds = [_score_bound(q, case, draws.reach)[at] for _, q in quantities]
        at = at[~np.all(np.multiply(bounds, 1.0 + 1e-12) < sup[:, at], axis=0)]
        score(at, draws.cols)
    return [(functools.partial(_witness_at, rule, consts, best[k], points), width)
            for k in range(len(quantities))]


def _search(p_grid: Sequence[ClassParams], quantities: list[Quantity], cfg: OracleConfig):
    """The record of every (point, quantity): the one search behind
    empirical_sup and sweep_verify."""
    if cfg.mode not in _RULES:
        raise ValueError(f"unknown mode {cfg.mode!r}")
    if cfg.n_samples < 1:
        raise ValueError(f"n_samples must be positive, got {cfg.n_samples}")
    cf, consts = _grid_cases(p_grid, [q.eta for q in quantities if q.kind == "fs"])
    fs = iter(cf.fs)
    bounds = np.array([next(fs).bound if q.kind == "fs" else getattr(cf, q.kind)
                       for q in quantities])
    # of the closed form, only the bound columns and the singular flags are kept
    is_singular = cf.singular
    del cf, fs
    # per (quantity, point) the sup, inf where unsearched: no finite constraint, the
    # quantity is unbounded; per singular flag and quantity, (build, n_samples); per
    # point, its row in the points of its flag
    sups = np.full(bounds.shape, math.inf)
    searched = [[(None, 0)] * len(quantities) for _ in (False, True)]
    rows = np.empty(len(p_grid), int)
    for singular in (False, True):
        points = np.flatnonzero(is_singular == singular)
        rows[points] = np.arange(points.size)
        # per rule, quantities whose scores are the same numbers share one search
        shared = {}
        for k, q in enumerate(quantities):
            if points.size and (rule := _rule(q, cfg.mode, singular)):
                key = "a2" if q.kind == "a2" else 1.0 - (q.eta or 0.0)   # never a2 == fs@1
                shared.setdefault(rule, {}).setdefault(key, ([], q))[0].append(k)
        for rule, groups in shared.items():
            found = _search_rule(_RULE_TABLE[rule], points, [*groups.values()], consts, cfg, sups)
            for (positions, _), searched_by in zip(groups.values(), found):
                for k in positions:
                    searched[singular][k] = searched_by
    return OracleResults(quantities, p_grid, cfg, sups, bounds, searched, is_singular, rows)


def empirical_sup(
    quantity: Quantity, p: ClassParams, cfg: OracleConfig = OracleConfig()
) -> OracleResult:
    """Empirical supremum of one quantity at one parameter point.

    Deterministic given cfg.seed.  Verdict: within-bound iff the supremum
    stays under the closed-form bound plus 1e-9 and 4 ulps of the bound
    (VERDICT_TOL and VERDICT_ULPS); points whose closed form
    is unbounded are verdict "skipped" (nothing to violate).  The result is
    item 0 of a one-point search's record.
    """
    return _search([p], [quantity], cfg)[0]


def sweep_verify(
    p_grid: Sequence[ClassParams], eta_list: list[float], cfg: OracleConfig
) -> OracleResults:
    """empirical_sup for every (grid point, quantity) combination.

    Quantities are |a2|, |a3|, then one Fekete-Szego entry per eta (an
    empty eta list means coefficient rows only).  Row order follows the
    grid, so results are reproducible from (grid, cfg.seed).  The record
    holds them as columns and builds each OracleResult on first read, so
    counting verdicts with verdict_indices builds none.
    """
    if not p_grid:
        raise ValueError("empty parameter grid")
    return _search(p_grid, [A2, A3] + [fs_quantity(e) for e in eta_list], cfg)


def verdict_indices(results, verdict: str) -> list[int]:
    """The indices of the results with this verdict: read from an OracleResults'
    codes, which builds no result, or from each result of a plain sequence."""
    if isinstance(results, OracleResults):
        return np.flatnonzero(results.codes.T.ravel() == _VERDICTS.index(verdict)).tolist()
    return [i for i, r in enumerate(results) if r.verdict == verdict]


def violations(results) -> list[OracleResult]:
    return [results[i] for i in verdict_indices(results, VIOLATION)]
