"""Command-line front end: bound reports, parameter sweeps, verification.

Every command is a pure function of its flags, the optional config file
and the seed; outputs are rendered at 12 significant digits so repeated
runs are byte-identical.  Exit codes: 0 success, 1 verification failure,
2 usage/validation, 3 I/O.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import gc
import math
import os
import re
import sys
from collections.abc import Sequence
from typing import TYPE_CHECKING, NoReturn

from .bounds import AS_PRINTED, CORRECTED, bound_report, fekete_szego_bound
from .chebyshev import cheb_u, gen_fun_coeffs
from .classop import (
    FULL_SYSTEM,
    PROOF_SET,
    ClassParams,
    apply_operator,
    check_eta,
    extract_schwarz,
    membership_feasibility,
    param_axes,
    param_points,
)
from .text import fmt, fmt_complex

if TYPE_CHECKING:
    import numpy as np

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3

# sweep rows of 3 etas computed, rendered and written at a time: whatever the etas, a
# chunk holds CSV_CHUNK_ROWS * 7 values besides its grid columns (lambda, mu, delta, t
# and xi, formatted once a distinct value), which bounds a sweep's memory
CSV_CHUNK_ROWS = 4096
# largest truncation order from the command line (cheb --n-max, series --order
# or the length of --coeffs): the series arithmetic grows with its square or cube
_MAX_ORDER = 256
# series --order by default, and the order of verify's inverse-series fixtures
_DEFAULT_ORDER = 8
# largest verify --samples: the oracle draws no sample and only reports the count
# (injected columns + --samples) per result, so the limit costs no memory
_MAX_SAMPLES = 1_000_000
# largest COUNT of a range, as a flag or a config key: an axis holds 16 bytes per
# value while it is built and checked
_MAX_COUNT = 1_000_000
# largest verify grid at the default 3 etas, a limit on _MAX_POINTS * 5 results: a point
# holds 32 bytes of grid columns and its 2 + len(eta) results as columns, about 0.07 KB
# each; a search peaks at about 0.65 KB a point, grid included (tracemalloc, 28,800 points)
_MAX_POINTS = 100_000
# (flag name, destination, domain) of the four class parameters
_PARAMS = (("lambda", "lam", ">= 1"), ("mu", "mu", ">= 0"), ("delta", "delta", ">= 0"),
           ("t", "t", "in (1/2, 1)"))
_PARAM_FLAGS = {f"--{name}": dest for name, dest, _ in _PARAMS}


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
    try:
        if len(parts) not in (1, 3):
            raise ValueError
        start, stop = float(parts[0]), float(parts[len(parts) // 2])   # VALUE is both ends
    except ValueError:
        raise ValueError(f"{name} must be VALUE or START:STOP:COUNT, got {text!r}") from None
    count = 1
    if len(parts) == 3:
        try:
            count = int(parts[2])
        except ValueError:
            raise ValueError(f"{name} count must be an integer, got {parts[2]!r}") from None
        if count < 1:
            raise ValueError(f"{name} count must be >= 1, got {count}")
        if count > _MAX_COUNT:
            raise ValueError(f"{name} count must be <= {_MAX_COUNT}, got {count}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"{name} must be finite, got {text!r}")
    return (start, stop, count)


def _fs_label(eta: float) -> str:
    return f"fs_bound@{eta:g}"


def _check_etas(etas) -> tuple[float, ...]:
    """Reject etas out of range and etas whose fs_bound@ labels collide."""
    seen: dict[str, float] = {}
    for eta in map(check_eta, etas):
        label = _fs_label(eta)
        if label in seen:
            raise ValueError(
                f"eta {seen[label]!r} and eta {eta!r} would share the column {label}"
            )
        seen[label] = eta
    return tuple(seen.values())


def _parse_coeffs(text: str) -> list[complex]:
    # ArgumentTypeError, so that argparse prints the reason with the flag
    try:
        vals = [complex(tok.strip().replace(" ", "")) for tok in text.split(",") if tok.strip()]
        if not vals:
            raise ValueError("need at least one coefficient")
        for v in vals:
            if not cmath.isfinite(v):
                raise ValueError(f"coefficients must be finite, got {v}")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return vals


def _int_in(floor: int, ceiling: int | None = None):
    """An argparse type: an integer in [floor, ceiling], where None is no ceiling."""
    def parse(text: str) -> int:
        value = int(text)
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be >= {floor}, got {value}")
        if ceiling is not None and value > ceiling:
            raise argparse.ArgumentTypeError(f"must be <= {ceiling}, got {value}")
        return value
    parse.__name__ = "int"           # argparse's "invalid int value" message
    return parse


class _Repeatable(argparse.Action):
    """A repeatable flag whose first use replaces the default, never extends it."""

    def __call__(self, parser, namespace, value, option_string=None):
        items = getattr(namespace, self.dest)
        setattr(namespace, self.dest, (() if items is self.default else items) + (value,))


def _flag_value(action: argparse.Action, text: str):
    value = action.type(text) if action.type else text
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"invalid choice {value!r} (choose from {', '.join(action.choices)})")
    return value


def _option_key(action: argparse.Action) -> str:
    return action.option_strings[0].lstrip("-").replace("-", "_")


def _merge_config(parser: argparse.ArgumentParser, command: str, cfg: dict[str, str]) -> None:
    """Make the config values the command's parser defaults, so that flags
    still win.

    The key of an option is its long flag name.  A value is converted and
    checked with the flag's own type and choices; a repeatable flag takes a
    comma list.  Keys the command does not take are ignored, so one file
    serves every command; a key that no command takes is an error.
    """
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    known = {_option_key(a) for sp in commands.choices.values() for a in sp._actions
             if a.dest != "help"}
    unknown = sorted(set(cfg) - known)
    if unknown:
        raise ValueError(f"config key {unknown[0]}: no command takes this key")
    command_parser = commands.choices[command]
    defaults = {}
    for action in command_parser._actions:
        key = _option_key(action)
        if key not in cfg or action.dest in ("help", "config"):
            continue
        text = cfg[key]
        try:
            if isinstance(action, _Repeatable):
                items = [tok for tok in text.split(",") if tok.strip()]
                defaults[action.dest] = tuple(_flag_value(action, tok) for tok in items)
            else:
                defaults[action.dest] = _flag_value(action, text)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"config key {key}: {exc}") from None
    command_parser.set_defaults(**defaults)


def _require(args: argparse.Namespace, names: dict[str, str]) -> None:
    missing = [flag for flag, dest in names.items() if getattr(args, dest) is None]
    if missing:
        raise ValueError(f"missing required parameter(s): {', '.join(missing)}")


# ---------------------------------------------------------------------------
# sweep plumbing


def _axes(args: argparse.Namespace, most: int | None = None) -> list[np.ndarray]:
    """The four parameter axes that the range flags ask for, unchecked; with
    ``most``, a grid of more points is rejected before any axis is built."""
    import numpy as np
    _require(args, _PARAM_FLAGS)
    ranges = [parse_range(getattr(args, dest), name) for name, dest, _ in _PARAMS]
    if most is not None and (n := math.prod(count for *_, count in ranges)) > most:
        raise ValueError(f"the lambda, mu, delta and t counts give {n} grid points, at most {most}")
    return [np.linspace(*rng) for rng in ranges]


def grid_points(args: argparse.Namespace) -> Sequence[ClassParams]:
    """The grid of the range flags, a ClassParams per point as it is read, with
    at most _MAX_POINTS * 5 oracle results, 2 + len(eta) a point (2 without etas)."""
    return param_points(*_axes(args, _MAX_POINTS * 5 // (2 + len(getattr(args, "eta", ())))))


def sweep_header(etas) -> list[str]:
    return (
        ["lambda", "mu", "delta", "t", "xi", "a2_bound", "a3_bound"]
        + [_fs_label(eta) for eta in etas]
        + ["denom", "singular_flag"]
    )


# Only sweep imports the renderer, and it calls the renderer through these
# names, so that they stay patchable on this module.


def sweep_rows(axes: list[np.ndarray], start: int, stop: int, etas, variant: str) -> list:
    from .render import _sweep_rows
    return _sweep_rows(axes, start, stop, etas, variant)


def render_csv(header: list[str], columns: list, matrix: tuple | None = None) -> bytearray:
    from .render import _render_chunk
    return _render_chunk(header, columns, matrix)


def render_json(header: list[str], columns: list, matrix: tuple | None = None) -> bytearray:
    from .render import _render_chunk
    return _render_chunk(header, columns, matrix, "json")


def _write_sweep(write, axes: list[np.ndarray], etas, variant: str, out_format: str) -> None:
    """Compute, render and ``write`` the sweep as bytes, one chunk of rows at
    a time; the output is the same for every chunk size.  Every full chunk,
    in either format, is rendered into one field matrix, and each distinct
    lambda, mu, delta, t and xi formatted once a chunk.  The last JSON object
    gives up its ",\n" for the closing bracket.

    Of two or more chunks, a forked worker renders every other one, back
    from the last but one, into its copy of the matrix; this process renders
    the others, the last included, and writes every chunk in order."""
    from .render import _field_matrix, _worker
    header = sweep_header(etas)
    n_rows = math.prod(len(axis) for axis in axes)
    step = max(1, CSV_CHUNK_ROWS * 7 // (len(header) - 5))
    matrix = _field_matrix(min(step, n_rows), header, out_format)
    if out_format == "json":
        render, head, tail, trim = render_json, b"[\n", b"\n]\n", 2
    else:
        render, head, tail, trim = render_csv, ",".join(header).encode("ascii") + b"\n", b"", 0

    def chunk(start: int) -> bytearray:
        return render(header, sweep_rows(axes, start, min(start + step, n_rows), etas, variant),
                      matrix)

    starts = range(0, n_rows, step)
    worker_starts = starts[len(starts) % 2:-1:2] if hasattr(os, "fork") else range(0)
    write(head)
    with _worker(worker_starts, chunk) as receive:
        for start in starts:
            if start in worker_starts:
                continue
            text = chunk(start)
            if start - step in worker_starts:
                write(receive())
            if start + step >= n_rows:
                del text[len(text) - trim:]
            write(text)
            del text                 # so that the next chunk renders without it
    write(tail)


def _stdout_write():
    """``write`` of bytes to standard output: its binary buffer, once the text
    layer above it is flushed, or where it has none (an ``io.StringIO``), the
    same text.  With descriptor 1 closed, sys.stdout is None and, as with
    print, nothing is written."""
    out = sys.stdout
    if out is None:
        return lambda data: None
    buffer = getattr(out, "buffer", None)
    if buffer is None:
        return lambda data: out.write(data.decode("ascii"))
    out.flush()
    return buffer.write


# ---------------------------------------------------------------------------
# commands


def cmd_bound(args: argparse.Namespace) -> int:
    _require(args, _PARAM_FLAGS)
    etas = _check_etas(args.eta)
    p = ClassParams(args.lam, args.mu, args.delta, args.t)
    rep = bound_report(p)
    print(f"lambda = {fmt(p.lam)}")
    print(f"mu = {fmt(p.mu)}")
    print(f"delta = {fmt(p.delta)}")
    print(f"t = {fmt(p.t)}")
    print(f"xi = {fmt(p.factors.xi)}")
    print(f"a2_bound = {fmt(rep.a2_bound)}")
    print(f"a3_bound = {fmt(rep.a3_bound)}")
    for eta in etas:
        fr = fekete_szego_bound(p, eta, args.variant)
        print(
            f"{_fs_label(eta)} = {fmt(fr.bound)}  branch={fr.branch}"
            f"  M={fmt(fr.threshold_m)}  variant={fr.m_variant}"
        )
    print(f"denom = {fmt(rep.denom)}")
    print(f"singular_flag = {fmt(rep.singular)}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    axes = _axes(args)
    etas = _check_etas(args.eta)
    axes = param_axes(*axes)                 # every value checked before any output
    if args.output:
        with open(args.output, "wb") as fh:
            _write_sweep(fh.write, axes, etas, args.variant, args.out_format)
    else:
        _write_sweep(_stdout_write(), axes, etas, args.variant, args.out_format)
    return EXIT_OK


def cmd_cheb(args: argparse.Namespace) -> int:
    _require(args, {"--t": "t"})
    series_vals = gen_fun_coeffs(args.t, args.n_max)
    # x + 0.0 prints zero unsigned: the recurrence keeps the sign of a zero t
    print(f"t = {fmt(args.t + 0.0)}")
    print(f"{'n':>3}  {'recurrence':>18}  {'series':>18}  {'abs_diff':>9}")
    for n in range(args.n_max + 1):
        rec = cheb_u(n, args.t)
        ser = series_vals[n]
        print(f"{n:>3}  {fmt(rec + 0.0):>18}  {fmt(ser + 0.0):>18}  {abs(rec - ser):>9.2e}")
    return EXIT_OK


# only series imports the power series, through this patchable name and in cmd_series
def invert_compositional(f):
    from .powerseries import invert_compositional
    return invert_compositional(f)


def cmd_series(args: argparse.Namespace) -> int:
    from .powerseries import NormalizedSeries, _compose_errors
    _require(args, {"--coeffs": "coeffs"})
    tail = args.coeffs
    # the one default that depends on another option: room for every coefficient
    order = args.order if args.order is not None else max(_DEFAULT_ORDER, len(tail) + 1)
    if order > _MAX_ORDER:
        raise ValueError(f"--coeffs takes at most {_MAX_ORDER - 1} values, got {len(tail)}")
    f = NormalizedSeries.from_tail(tail, order=order)
    g = invert_compositional(f)
    values = {f"f[{k}]": f.coeffs[k] for k in range(2, order + 1)}
    values.update({f"inverse[{k}]": g.coeffs[k] for k in range(2, order + 1)})
    values["compose_residual"] = max(_compose_errors(f.coeffs, g.coeffs))
    given = [v is not None for v in (args.lam, args.mu, args.delta, args.t)]
    if any(given):
        if not all(given):
            raise ValueError("operator demo needs all of --lambda, --mu, --delta, --t")
        p = ClassParams(args.lam, args.mu, args.delta, args.t)
        op = apply_operator(f, p)
        values.update({f"operator[{k}]": c for k, c in enumerate(op.coeffs)})
        values["c1"], values["c2"] = extract_schwarz(op, p.t)
        pair = membership_feasibility(f.coeffs[2], f.coeffs[3], p)
        values["membership_d2"] = pair.d2
    # every value is computed before any is printed
    for name, value in values.items():
        if not cmath.isfinite(value):
            raise ValueError(f"{name} overflows float64: {fmt_complex(value)}")
    print(f"order = {order}")
    for name, value in values.items():
        print(f"{name} = {f'{value:.2e}' if name == 'compose_residual' else fmt_complex(value)}")
    if any(given):
        print(f"admissible = {fmt(pair.admissible)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
#
# Only verify imports the oracle, the reductions and the suites of
# chebbounds.verify, and its suites call the first two through these names,
# so that they stay patchable on this module.


def sweep_verify(grid, etas, cfg):
    from .oracle import sweep_verify
    return sweep_verify(grid, etas, cfg)


def reduction_check(cid: str):
    from .reductions import reduction_check
    return reduction_check(cid)


def cmd_verify(args: argparse.Namespace) -> int:
    grid = grid_points(args)
    etas = list(_check_etas(args.eta))
    from . import verify

    suites = [
        verify._suite_reductions(reduction_check),
        verify._suite_chebyshev(cheb_u, gen_fun_coeffs),
        verify._suite_inverse(args.seed, _DEFAULT_ORDER),
        verify._suite_continuity(args.variant, args.seed),
        verify._suite_oracle(grid, etas, args, sweep_verify),
    ]
    for ok, lines in suites:
        print(f"[{'INFO' if ok is None else 'PASS' if ok else 'FAIL'}]", "\n".join(lines))
    failed = any(ok is not None and not ok for ok, _ in suites)
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

    def add_command(name, func, helptext):
        sp = sub.add_parser(name, help=helptext)
        # a value, not an option, though argparse before 3.13 misses -1e-05 and -inf
        sp._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)
        sp.set_defaults(func=func)
        sp.add_argument("--config", help="key = value file; flags override it")
        return sp

    def add_common(sp, typ=float, defaults=(None,) * 4, etas=None, eta_help=""):
        """The four class parameters; with ``etas``, also --eta and --variant."""
        what = "range START:STOP:COUNT or single value" if typ is str else "value"
        for (name, dest, domain), default in zip(_PARAMS, defaults):
            sp.add_argument(f"--{name}", dest=dest, type=typ, default=default,
                            help=f"{name} {what} ({domain})")
        if etas is not None:
            sp.add_argument("--eta", action=_Repeatable, type=float, default=etas,
                            help=f"Fekete-Szego eta (repeatable{eta_help})")
            sp.add_argument("--variant", choices=(CORRECTED, AS_PRINTED), default=CORRECTED,
                            help="threshold convention (default %(default)s)")

    sp = add_command("bound", cmd_bound, "closed-form bounds at one parameter point")
    add_common(sp, etas=())

    sp = add_command("sweep", cmd_sweep, "bounds over a parameter grid, CSV or JSON")
    add_common(sp, typ=str, etas=())
    sp.add_argument("--format", dest="out_format", choices=("csv", "json"), default="csv")
    sp.add_argument("--output", help="output path (default: standard output)")

    sp = add_command("verify", cmd_verify, "run the self-verification suites")
    add_common(sp, typ=str, defaults=("1:3:3", "0:2:3", "0:1:3", "0.55:0.95:3"),
               etas=(0.0, 1.0, 2.0), eta_help="; default 0 1 2")
    sp.add_argument("--samples", type=_int_in(1, _MAX_SAMPLES), default=10_000,
                    help="added to each oracle result's reported sample count; nothing is "
                         f"drawn (default %(default)s, at most {_MAX_SAMPLES})")
    sp.add_argument("--seed", type=_int_in(0), default=1729,
                    help="fixture seed, also reported by the oracle (default %(default)s)")
    sp.add_argument("--mode", choices=(PROOF_SET, FULL_SYSTEM), default=PROOF_SET)

    sp = add_command("cheb", cmd_cheb, "second-kind Chebyshev values, two routes")
    sp.add_argument("--t", type=float, help="evaluation point in [-1, 1]")
    sp.add_argument("--n-max", dest="n_max", type=_int_in(0, _MAX_ORDER), default=10,
                    help=f"largest degree (default %(default)s, at most {_MAX_ORDER})")

    sp = add_command("series", cmd_series, "inverse-series and operator demo")
    sp.add_argument("--coeffs", type=_parse_coeffs,
                    help="comma-separated a2,a3,... (complex allowed)")
    sp.add_argument("--order", type=_int_in(2, _MAX_ORDER),
                    help=f"truncation order (default {_DEFAULT_ORDER}, or more to fit --coeffs; "
                    f"at most {_MAX_ORDER})")
    add_common(sp)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; every write to standard output that fails, a buffered
    one included, fails inside, as exit code 3 with one error line."""
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
            if args.config:
                _merge_config(parser, args.command, read_config(args.config))
                args = parser.parse_args(argv)
            return args.func(args)
        finally:
            print(end="", flush=True)    # flushes standard output, where there is one
    except SystemExit as exc:        # argparse already printed its message
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        with contextlib.suppress(OSError):   # an error line that cannot be written keeps the code
            print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO if isinstance(exc, OSError) else EXIT_USAGE


def run() -> NoReturn:
    """The console script and ``python -m chebbounds.cli``: run ``main``
    without the cyclic garbage collector (no command makes reference cycles
    but argparse's few, however large its grid), then end the process right
    after flushing standard error.

    The process skips the interpreter's teardown (clearing modules, a last
    garbage collection and numpy's cleanup), so ``atexit`` handlers do not
    run, and ``python -m cProfile -m chebbounds.cli`` prints no report:
    profile, trace or measure coverage through ``main(argv)`` in process.
    ``main`` has flushed standard output and reported what it could not
    write, so the exit code is main's, whatever the last flush meets.
    """
    gc.disable()
    code = main()
    with contextlib.suppress(OSError, ValueError, AttributeError):  # unwritable, closed, absent
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
