"""Command-line front end: bound reports, parameter sweeps, verification.

Every command is a pure function of its flags, the optional config file
and the seed; outputs are rendered at 12 significant digits so repeated
runs are byte-identical.  Exit codes: 0 success, 1 verification failure,
2 usage/validation, 3 I/O.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .bounds import (
    AS_PRINTED,
    CORRECTED,
    bound_report,
    closed_form,
    corollary_ids,
    fekete_szego_bound,
    is_singular_denom,
    reduction_check,
    theorem_denominator,
)
from .chebyshev import cheb_u, gen_fun_coeffs
from .classop import ClassParams, apply_operator, extract_schwarz, membership_feasibility
from .oracle import (
    FULL_SYSTEM,
    PROOF_SET,
    SKIPPED,
    OracleConfig,
    sweep_verify,
    violations,
)
from .powerseries import DEFAULT_ORDER, NormalizedSeries, TruncatedSeries, invert_compositional

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3

DEFAULT_SEED = 1729
DEFAULT_SAMPLES = 10_000
# sweep rows rendered per write: bounds the CSV text held in memory
CSV_CHUNK_ROWS = 4096
_VERIFY_RANGES = {"lam": "1:3:3", "mu": "0:2:3", "delta": "0:1:3", "t": "0.55:0.95:3"}
_AXIS_NAMES = {"lam": "lambda", "mu": "mu", "delta": "delta", "t": "t"}
_VERIFY_ETAS = (0.0, 1.0, 2.0)
# 12 significant digits; inf renders as inf
_NUMBER = "%.12g"


def fmt(x: float | bool) -> str:
    """12-significant-digit rendering; booleans as true/false, inf as inf."""
    if isinstance(x, bool):
        return "true" if x else "false"
    return _NUMBER % float(x)


def fmt_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return fmt(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{fmt(z.real)}{sign}{fmt(abs(z.imag))}j"


def _round12(x: float) -> float:
    return float(_NUMBER % x)


def _jsonable(x):
    if isinstance(x, bool):
        return x
    if isinstance(x, float):
        return "unbounded" if math.isinf(x) else _round12(x)
    return x


# ---------------------------------------------------------------------------
# config file and range handling


def read_config(path: str) -> dict[str, str]:
    """key = value lines; # starts a comment; keys match the long flags."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, value = line.split("=", 1)
            out[key.strip().lower().replace("-", "_")] = value.strip()
    return out


def parse_range(text: str, name: str = "range") -> tuple[float, float, int]:
    """VALUE or START:STOP:COUNT with finite ends; ``name`` labels errors."""
    parts = str(text).split(":")
    if len(parts) == 1:
        start = stop = float(parts[0])
        count = 1
    elif len(parts) == 3:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
        if count < 1:
            raise ValueError(f"{name} count must be >= 1, got {count}")
    else:
        raise ValueError(f"{name} must be VALUE or START:STOP:COUNT, got {text!r}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"{name} must be finite, got {text!r}")
    return (start, stop, count)


def _parse_eta_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _fs_label(eta: float) -> str:
    return f"fs_bound@{eta:g}"


def _check_etas(etas) -> tuple[float, ...]:
    """Reject non-finite etas and etas whose fs_bound@ labels collide."""
    seen: dict[str, float] = {}
    for eta in etas:
        if not math.isfinite(eta):
            raise ValueError(f"eta must be finite, got {eta}")
        label = _fs_label(eta)
        if label in seen:
            raise ValueError(
                f"eta {seen[label]!r} and eta {eta!r} would share the column {label}"
            )
        seen[label] = eta
    return tuple(etas)


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_coeffs(text: str) -> list[complex]:
    vals = [complex(tok.strip().replace(" ", "")) for tok in text.split(",") if tok.strip()]
    if not vals:
        raise ValueError("need at least one coefficient")
    for v in vals:
        if not cmath.isfinite(v):
            raise ValueError(f"coefficients must be finite, got {v}")
    return vals


def _merge_config(args: argparse.Namespace, table: dict[str, tuple[str, object]]) -> None:
    """Fill still-unset (None) destinations from the config file, if any."""
    if not getattr(args, "config", None):
        return
    cfg = read_config(args.config)
    for key, (dest, conv) in table.items():
        if getattr(args, dest, None) is None and key in cfg:
            setattr(args, dest, conv(cfg[key]))


def _require(args: argparse.Namespace, names: dict[str, str]) -> None:
    missing = [flag for flag, dest in names.items() if getattr(args, dest) is None]
    if missing:
        raise ValueError(f"missing required parameter(s): {', '.join(missing)}")


def _check_choice(value: str, allowed: tuple[str, ...], what: str) -> str:
    if value not in allowed:
        raise ValueError(f"{what} must be one of {', '.join(allowed)}; got {value!r}")
    return value


# ---------------------------------------------------------------------------
# sweep plumbing


@dataclass(frozen=True)
class SweepSpec:
    """A validated sweep request: four parameter ranges plus rendering."""

    lam: tuple[float, float, int]
    mu: tuple[float, float, int]
    delta: tuple[float, float, int]
    t: tuple[float, float, int]
    etas: tuple[float, ...] = ()
    out_format: str = "csv"
    output: str | None = None
    variant: str = CORRECTED


def grid_arrays(spec: SweepSpec) -> list[np.ndarray]:
    """Lexicographic grid in (lambda, mu, delta, t) as four flat arrays.

    Every value of every axis passes through ClassParams once; its checks
    are per parameter, so this fails exactly when some grid point would.
    """
    axes = [np.linspace(*rng) for rng in (spec.lam, spec.mu, spec.delta, spec.t)]
    for i in range(max(len(axis) for axis in axes)):
        ClassParams(*(float(axis[i % len(axis)]) for axis in axes))
    return [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]


def grid_points(spec: SweepSpec) -> list[ClassParams]:
    """The grid of ``grid_arrays``, one ClassParams per point."""
    return [ClassParams(*point) for point in zip(*(a.tolist() for a in grid_arrays(spec)))]


def sweep_header(spec: SweepSpec) -> list[str]:
    return (
        ["lambda", "mu", "delta", "t", "xi", "a2_bound", "a3_bound"]
        + [_fs_label(eta) for eta in spec.etas]
        + ["denom", "singular_flag"]
    )


def sweep_rows(spec: SweepSpec) -> dict[str, np.ndarray]:
    """The sweep's rows, held as one array per column of ``sweep_header``."""
    lam, mu, delta, t = grid_arrays(spec)
    cf = closed_form(lam, mu, delta, t, spec.etas, spec.variant)
    rows = {
        "lambda": lam,
        "mu": mu,
        "delta": delta,
        "t": t,
        "xi": cf.xi,
        "a2_bound": cf.a2,
        "a3_bound": cf.a3,
    }
    rows.update((_fs_label(eta), fs.bound) for eta, fs in zip(spec.etas, cf.fs))
    rows["denom"] = np.abs(cf.d)
    rows["singular_flag"] = cf.singular
    return rows


def render_csv(
    header: list[str], rows: dict[str, np.ndarray], start: int = 0, stop: int | None = None
) -> str:
    """CSV lines of rows [start, stop); the header line leads at row 0."""
    cells = [rows[col][start:stop].tolist() for col in header]
    formats = []
    for i, col in enumerate(header):
        if rows[col].dtype == bool:
            cells[i] = ["true" if flag else "false" for flag in cells[i]]
            formats.append("%s")
        else:
            formats.append(_NUMBER)
    line = ",".join(formats) + "\n"
    text = "".join([line % row for row in zip(*cells)])
    return ",".join(header) + "\n" + text if start == 0 else text


def render_json(header: list[str], rows: dict[str, np.ndarray]) -> str:
    cells = [[_jsonable(v) for v in rows[col].tolist()] for col in header]
    objs = [dict(zip(header, row)) for row in zip(*cells)]
    return json.dumps(objs, indent=2) + "\n"


def _write_sweep(fh, out_format: str, header: list[str], rows: dict[str, np.ndarray]) -> None:
    if out_format == "json":
        fh.write(render_json(header, rows))
        return
    for start in range(0, len(rows["lambda"]), CSV_CHUNK_ROWS):
        fh.write(render_csv(header, rows, start, start + CSV_CHUNK_ROWS))


# ---------------------------------------------------------------------------
# commands


def cmd_bound(args: argparse.Namespace) -> int:
    _merge_config(args, {
        "lambda": ("lam", float),
        "mu": ("mu", float),
        "delta": ("delta", float),
        "t": ("t", float),
        "eta": ("eta", _parse_eta_list),
        "variant": ("variant", str),
    })
    _require(args, {"--lambda": "lam", "--mu": "mu", "--delta": "delta", "--t": "t"})
    variant = _check_choice(args.variant or CORRECTED, (CORRECTED, AS_PRINTED), "variant")
    etas = _check_etas(args.eta or [])
    p = ClassParams(args.lam, args.mu, args.delta, args.t)
    rep = bound_report(p)
    print(f"lambda = {fmt(p.lam)}")
    print(f"mu = {fmt(p.mu)}")
    print(f"delta = {fmt(p.delta)}")
    print(f"t = {fmt(p.t)}")
    print(f"xi = {fmt(p.xi)}")
    print(f"a2_bound = {fmt(rep.a2_bound)}")
    print(f"a3_bound = {fmt(rep.a3_bound)}")
    for eta in etas:
        fr = fekete_szego_bound(p, eta, variant)
        print(
            f"{_fs_label(eta)} = {fmt(fr.bound)}  branch={fr.branch}"
            f"  M={fmt(fr.threshold_m)}  variant={fr.m_variant}"
        )
    print(f"denom = {fmt(rep.denom)}")
    print(f"singular_flag = {fmt(rep.singular)}")
    return EXIT_OK


def _build_sweep_spec(args: argparse.Namespace) -> SweepSpec:
    _merge_config(args, {
        "lambda": ("lam", str),
        "mu": ("mu", str),
        "delta": ("delta", str),
        "t": ("t", str),
        "eta": ("eta", _parse_eta_list),
        "format": ("out_format", str),
        "output": ("output", str),
        "variant": ("variant", str),
    })
    _require(args, {"--lambda": "lam", "--mu": "mu", "--delta": "delta", "--t": "t"})
    return SweepSpec(
        **{dest: parse_range(getattr(args, dest), name) for dest, name in _AXIS_NAMES.items()},
        etas=_check_etas(args.eta or []),
        out_format=_check_choice(args.out_format or "csv", ("csv", "json"), "format"),
        output=args.output,
        variant=_check_choice(args.variant or CORRECTED, (CORRECTED, AS_PRINTED), "variant"),
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = _build_sweep_spec(args)
    header = sweep_header(spec)
    rows = sweep_rows(spec)
    if spec.output:
        with open(spec.output, "w", encoding="utf-8", newline="") as fh:
            _write_sweep(fh, spec.out_format, header, rows)
    else:
        _write_sweep(sys.stdout, spec.out_format, header, rows)
    return EXIT_OK


def cmd_cheb(args: argparse.Namespace) -> int:
    _merge_config(args, {"t": ("t", float), "n_max": ("n_max", int)})
    _require(args, {"--t": "t"})
    n_max = args.n_max if args.n_max is not None else 10
    if n_max < 0:
        raise ValueError(f"--n-max must be >= 0, got {n_max}")
    series_vals = gen_fun_coeffs(args.t, n_max)
    print(f"t = {fmt(args.t)}")
    print(f"{'n':>3}  {'recurrence':>18}  {'series':>18}  {'abs_diff':>9}")
    for n in range(n_max + 1):
        rec = cheb_u(n, args.t)
        ser = series_vals[n]
        print(f"{n:>3}  {fmt(rec):>18}  {fmt(ser):>18}  {abs(rec - ser):>9.2e}")
    return EXIT_OK


def cmd_series(args: argparse.Namespace) -> int:
    _merge_config(args, {
        "coeffs": ("coeffs", _parse_coeffs),
        "order": ("order", int),
        "lambda": ("lam", float),
        "mu": ("mu", float),
        "delta": ("delta", float),
        "t": ("t", float),
    })
    _require(args, {"--coeffs": "coeffs"})
    tail = args.coeffs
    order = args.order if args.order is not None else max(DEFAULT_ORDER, len(tail) + 1)
    f = NormalizedSeries.from_tail(tail, order=order)
    g = invert_compositional(f)
    print(f"order = {order}")
    for k in range(2, order + 1):
        print(f"f[{k}] = {fmt_complex(f.coeffs[k])}")
    for k in range(2, order + 1):
        print(f"inverse[{k}] = {fmt_complex(g.coeffs[k])}")
    residual = g.compose(TruncatedSeries(f.coeffs))
    worst = max(
        abs(c - (1.0 if k == 1 else 0.0)) for k, c in enumerate(residual.coeffs)
    )
    print(f"compose_residual = {worst:.2e}")
    given = [v is not None for v in (args.lam, args.mu, args.delta, args.t)]
    if any(given):
        if not all(given):
            raise ValueError("operator demo needs all of --lambda, --mu, --delta, --t")
        p = ClassParams(args.lam, args.mu, args.delta, args.t)
        op = apply_operator(f, p)
        for k, c in enumerate(op.coeffs):
            print(f"operator[{k}] = {fmt_complex(c)}")
        c1, c2 = extract_schwarz(op, p.t)
        print(f"c1 = {fmt_complex(c1)}")
        print(f"c2 = {fmt_complex(c2)}")
        pair = membership_feasibility(f.coeffs[2], f.coeffs[3], p)
        print(f"membership_d2 = {fmt_complex(pair.d2)}")
        print(f"admissible = {fmt(pair.admissible)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify suites


def _suite_reductions() -> tuple[bool, list[str]]:
    worst = 0.0
    total = 0
    failing: list[str] = []
    for cid in corollary_ids():
        res = reduction_check(cid)
        worst = max(worst, res.max_deviation)
        total += res.n_points
        if not res.passed:
            failing.append(f"{cid} (max deviation {res.max_deviation:.3e})")
    ok = not failing
    line = (
        f"corollary reductions: {len(corollary_ids())} slices, {total} points, "
        f"max deviation {worst:.3e}"
    )
    extra = [f"  failing slice: {f}" for f in failing]
    return ok, [line] + extra


def _suite_chebyshev() -> tuple[bool, list[str]]:
    closed = {
        2: lambda t: 4.0 * t * t - 1.0,
        3: lambda t: 8.0 * t ** 3 - 4.0 * t,
        4: lambda t: 16.0 * t ** 4 - 12.0 * t * t + 1.0,
    }
    dev_closed = max(
        abs(cheb_u(n, t) - form(t))
        for n, form in closed.items()
        for t in np.linspace(-1.0, 1.0, 50)
    )
    dev_series = max(
        abs(gen_fun_coeffs(t, 30)[n] - cheb_u(n, t))
        for t in (0.55, 0.75, 0.95)
        for n in range(31)
    )
    ok = dev_closed <= 1e-13 and dev_series <= 1e-10
    return ok, [
        f"chebyshev cross-validation: closed-form dev {dev_closed:.3e}, "
        f"series dev {dev_series:.3e}"
    ]


def _suite_inverse(seed: int) -> tuple[bool, list[str]]:
    rng = np.random.default_rng(seed)
    worst_coeff = 0.0
    worst_resid = 0.0
    for _ in range(100):
        a2, a3, a4 = (
            0.2 * math.sqrt(rng.random()) * np.exp(2j * math.pi * rng.random())
            for _ in range(3)
        )
        f = NormalizedSeries.from_tail([a2, a3, a4], order=DEFAULT_ORDER)
        g = invert_compositional(f)
        expected = {
            2: -a2,
            3: 2.0 * a2 * a2 - a3,
            4: -(5.0 * a2 ** 3 - 5.0 * a2 * a3 + a4),
        }
        worst_coeff = max(
            worst_coeff, max(abs(g.coeffs[k] - v) for k, v in expected.items())
        )
        resid = g.compose(TruncatedSeries(f.coeffs))
        worst_resid = max(
            worst_resid,
            max(abs(c - (1.0 if k == 1 else 0.0)) for k, c in enumerate(resid.coeffs)),
        )
    ok = worst_coeff <= 1e-12 and worst_resid <= 1e-12
    return ok, [
        f"inverse-series fixtures: 100 draws, coefficient dev {worst_coeff:.3e}, "
        f"compose residual {worst_resid:.3e}"
    ]


def _continuity_draws(seed: int, n_draws: int = 500):
    rng = np.random.default_rng(seed)
    for _ in range(n_draws):
        p = ClassParams(
            1.0 + 2.0 * rng.random(),
            2.0 * rng.random(),
            rng.random(),
            0.55 + 0.4 * rng.random(),
        )
        a, _, d = theorem_denominator(p)
        if is_singular_denom(d, a):
            continue
        yield p, abs(d)


def _suite_continuity(variant: str, seed: int) -> tuple[bool, list[str], bool]:
    """Returns (ok, lines, informational)."""
    worst = 0.0
    n = 0
    for p, denom in _continuity_draws(seed):
        m = fekete_szego_bound(p, 1.0, variant).threshold_m
        flat = 2.0 * p.t / p.fs_flat_denom
        sloped_at_m = 8.0 * m * p.t ** 3 / denom
        worst = max(worst, abs(flat - sloped_at_m))
        n += 1
    if variant == CORRECTED:
        ok = worst <= 1e-10
        return ok, [
            f"fs branch continuity ({variant}): {n} draws, max gap at threshold {worst:.3e}"
        ], False
    return True, [
        f"fs branch continuity ({variant}): {n} draws, max gap at threshold {worst:.3e} "
        "(discontinuity expected for delta > 0; informational)"
    ], True


def _suite_oracle(
    grid: list[ClassParams], etas: list[float], cfg: OracleConfig
) -> tuple[bool, list[str]]:
    results = sweep_verify(grid, etas, cfg)
    viols = violations(results)
    n_skipped = sum(1 for r in results if r.verdict == SKIPPED)
    line = (
        f"oracle soundness ({cfg.mode}): {len(grid)} points x {2 + len(etas)} quantities, "
        f"{len(results) - n_skipped} checked, {n_skipped} skipped (unbounded closed form), "
        f"{len(viols)} violations"
    )
    extra: list[str] = []
    for r in viols:
        p = r.params
        extra.append(
            f"  violation: {r.quantity.label} at lambda={fmt(p.lam)} mu={fmt(p.mu)} "
            f"delta={fmt(p.delta)} t={fmt(p.t)}: sup={fmt(r.sup_value)} "
            f"bound={fmt(r.closed_form_bound)}"
        )
        w = r.witness
        if w is not None:
            s = w.schwarz
            extra.append(
                f"    witness: c1={fmt_complex(s.c1)} c2={fmt_complex(s.c2)} "
                f"d1={fmt_complex(s.d1)} d2={fmt_complex(s.d2)} "
                f"a2={fmt_complex(w.a2)} a3={fmt_complex(w.a3)}"
            )
    return not viols, [line] + extra


def cmd_verify(args: argparse.Namespace) -> int:
    _merge_config(args, {
        "lambda": ("lam", str),
        "mu": ("mu", str),
        "delta": ("delta", str),
        "t": ("t", str),
        "eta": ("eta", _parse_eta_list),
        "samples": ("samples", int),
        "seed": ("seed", int),
        "mode": ("mode", str),
        "variant": ("variant", str),
        "refine": ("refine", _parse_bool),
    })
    samples = args.samples if args.samples is not None else DEFAULT_SAMPLES
    if samples < 1:
        raise ValueError(f"--samples must be positive, got {samples}")
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    mode = _check_choice(args.mode or PROOF_SET, (PROOF_SET, FULL_SYSTEM), "mode")
    variant = _check_choice(args.variant or CORRECTED, (CORRECTED, AS_PRINTED), "variant")
    refine = args.refine if args.refine is not None else True
    grid = grid_points(SweepSpec(**{
        dest: parse_range(getattr(args, dest) or default, _AXIS_NAMES[dest])
        for dest, default in _VERIFY_RANGES.items()
    }))
    etas = list(_check_etas(args.eta if args.eta is not None else _VERIFY_ETAS))
    cfg = OracleConfig(mode=mode, n_samples=samples, seed=seed, grid_refine=refine)

    failed = False
    suites = [
        (_suite_reductions(), False),
        (_suite_chebyshev(), False),
        (_suite_inverse(seed), False),
    ]
    cont_ok, cont_lines, cont_info = _suite_continuity(variant, seed)
    suites.append(((cont_ok, cont_lines), cont_info))
    suites.append((_suite_oracle(grid, etas, cfg), False))
    for (ok, lines), informational in suites:
        tag = "INFO" if informational else ("PASS" if ok else "FAIL")
        print(f"[{tag}] {lines[0]}")
        for line in lines[1:]:
            print(line)
        if not ok and not informational:
            failed = True
    print(f"verify: {'FAIL' if failed else 'PASS'}")
    return EXIT_VERIFY if failed else EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chebbounds",
        description=(
            "Coefficient and Fekete-Szego bounds for a Chebyshev-subordinated "
            "bi-univalent class, with brute-force verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, ranges: bool):
        helptext = "range START:STOP:COUNT or single value" if ranges else "value"
        typ = str if ranges else float
        sp.add_argument("--lambda", dest="lam", type=typ, help=f"lambda {helptext} (>= 1)")
        sp.add_argument("--mu", dest="mu", type=typ, help=f"mu {helptext} (>= 0)")
        sp.add_argument("--delta", dest="delta", type=typ, help=f"delta {helptext} (>= 0)")
        sp.add_argument("--t", dest="t", type=typ, help=f"t {helptext} (in (1/2, 1))")
        sp.add_argument("--config", help="key = value file; flags override it")

    sp = sub.add_parser("bound", help="closed-form bounds at one parameter point")
    add_common(sp, ranges=False)
    sp.add_argument("--eta", action="append", type=float, default=None,
                    help="Fekete-Szego eta (repeatable)")
    sp.add_argument("--variant", choices=(CORRECTED, AS_PRINTED), default=None,
                    help="threshold convention (default corrected)")
    sp.set_defaults(func=cmd_bound)

    sp = sub.add_parser("sweep", help="bounds over a parameter grid, CSV or JSON")
    add_common(sp, ranges=True)
    sp.add_argument("--eta", action="append", type=float, default=None,
                    help="Fekete-Szego eta column (repeatable)")
    sp.add_argument("--format", dest="out_format", choices=("csv", "json"), default=None)
    sp.add_argument("--output", help="output path (default: standard output)")
    sp.add_argument("--variant", choices=(CORRECTED, AS_PRINTED), default=None)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("verify", help="run the self-verification suites")
    add_common(sp, ranges=True)
    sp.add_argument("--eta", action="append", type=float, default=None,
                    help="oracle Fekete-Szego eta (repeatable; default 0 1 2)")
    sp.add_argument("--samples", type=int, default=None,
                    help=f"oracle samples per point (default {DEFAULT_SAMPLES})")
    sp.add_argument("--seed", type=int, default=None,
                    help=f"oracle seed (default {DEFAULT_SEED})")
    sp.add_argument("--mode", choices=(PROOF_SET, FULL_SYSTEM), default=None)
    sp.add_argument("--variant", choices=(CORRECTED, AS_PRINTED), default=None)
    sp.add_argument("--refine", action=argparse.BooleanOptionalAction, default=None,
                    help="local refinement around the incumbent (default on)")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("cheb", help="second-kind Chebyshev values, two routes")
    sp.add_argument("--t", type=float, default=None, help="evaluation point in [-1, 1]")
    sp.add_argument("--n-max", dest="n_max", type=int, default=None,
                    help="largest degree (default 10)")
    sp.add_argument("--config", help="key = value file; flags override it")
    sp.set_defaults(func=cmd_cheb)

    sp = sub.add_parser("series", help="inverse-series and operator demo")
    sp.add_argument("--coeffs", type=_parse_coeffs, default=None,
                    help="comma-separated a2,a3,... (complex allowed)")
    sp.add_argument("--order", type=int, default=None,
                    help=f"truncation order (default {DEFAULT_ORDER})")
    sp.add_argument("--lambda", dest="lam", type=float, default=None)
    sp.add_argument("--mu", type=float, default=None)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--t", type=float, default=None)
    sp.add_argument("--config", help="key = value file; flags override it")
    sp.set_defaults(func=cmd_series)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:        # argparse already printed its message
        code = exc.code if exc.code is not None else 0
        return int(code)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
