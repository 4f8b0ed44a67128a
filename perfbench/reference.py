"""Independent reference for the closed-form bounds, and the output checkers.

The formulas are evaluated with numpy over whole arrays, straight from the
statement in README.md, without importing chebbounds:

    xi = (2 lam + mu) / (2 lam + 1)
    A  = (lam + mu + 2 xi delta)^2
    B  = (2 lam + mu)(mu + 1) + 12 xi delta
    d  = A - 2 (2A - B) t^2
    F  = 2 lam + mu + 6 xi delta
    |a2| <= 2t sqrt(2t) / sqrt|d|            (unbounded where d vanishes)
    |a3| <= 4t^2 / A + 2t / F
    |a3 - eta a2^2| <= 2t / F                 if |eta - 1| <= M = |d| / (4 F t^2)
                    <= 8 |eta - 1| t^3 / |d|  otherwise (unbounded where d vanishes)

Each checker returns a list of error strings; an empty list means the
output is correct.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

# d "vanishes" when it is at float-noise level relative to its scale A
SINGULAR_RTOL = 1e-12
CHECK_RTOL = 1e-9
MAX_ERRORS = 5


@dataclass(frozen=True)
class Reference:
    """Closed-form values on broadcast parameter arrays."""

    xi: np.ndarray
    a: np.ndarray              # A
    a2: np.ndarray
    a3: np.ndarray
    denom: np.ndarray          # |d|
    singular: np.ndarray
    m: np.ndarray              # half-width of the flat Fekete-Szego band
    flat: np.ndarray           # 2t / F

    def fs(self, eta: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(bound, on_flat_branch) for one eta."""
        dev = abs(float(eta) - 1.0)
        on_flat = dev <= self.m
        with np.errstate(divide="ignore", invalid="ignore"):
            sloped = np.where(self.singular, np.inf, 8.0 * dev * t**3 / self.denom)
        return np.where(on_flat, self.flat, sloped), on_flat


def closed_form(lam, mu, delta, t) -> Reference:
    lam, mu, delta, t = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (lam, mu, delta, t)))
    xi = (2.0 * lam + mu) / (2.0 * lam + 1.0)
    a = (lam + mu + 2.0 * xi * delta) ** 2
    b = (2.0 * lam + mu) * (mu + 1.0) + 12.0 * xi * delta
    d = np.abs(a - 2.0 * (2.0 * a - b) * t * t)
    f = 2.0 * lam + mu + 6.0 * xi * delta
    singular = d <= SINGULAR_RTOL * np.maximum(1.0, a)
    with np.errstate(divide="ignore"):
        a2 = np.where(singular, np.inf, 2.0 * t * np.sqrt(2.0 * t) / np.sqrt(d))
    return Reference(
        xi=xi,
        a=a,
        a2=a2,
        a3=4.0 * t * t / a + 2.0 * t / f,
        denom=d,
        singular=singular,
        m=np.where(singular, 0.0, d / (4.0 * f * t * t)),
        flat=2.0 * t / f,
    )


def relative_conditioning(lam, mu, delta, t) -> np.ndarray:
    """|d| / max(1, A): how far a point sits from the singular manifold."""
    ref = closed_form(lam, mu, delta, t)
    return ref.denom / np.maximum(1.0, ref.a)


def fs_label(eta: float) -> str:
    """Column and line label the CLI documents for one eta."""
    return f"fs_bound@{eta:g}"


def mismatches(name: str, got, want) -> list[str]:
    """Entries of `got` that differ from `want` by more than CHECK_RTOL
    relative, or that are infinite where `want` is finite (or vice versa)."""
    got = np.atleast_1d(np.asarray(got, dtype=float))
    want = np.atleast_1d(np.asarray(want, dtype=float))
    both_inf = np.isinf(got) & np.isinf(want) & (np.sign(got) == np.sign(want))
    with np.errstate(invalid="ignore"):
        close = np.abs(got - want) <= CHECK_RTOL * np.abs(want)
    bad = np.flatnonzero(~(both_inf | close))
    return [
        f"{name}[{i}]: got {got[i]!r}, reference {want[i]!r}" for i in bad[:MAX_ERRORS]
    ]


# ---------------------------------------------------------------------------
# `chebbounds bound`

_FS_LINE = re.compile(
    r"^(?P<label>fs_bound@\S+) = (?P<value>\S+)  branch=(?P<branch>flat|sloped)"
    r"  M=(?P<m>\S+)  variant=corrected$"
)


def check_bound(stdout: str, point: tuple[float, float, float, float], etas) -> list[str]:
    lam, mu, delta, t = point
    ref = closed_form(lam, mu, delta, t)
    lines = stdout.splitlines()
    scalars = ["lambda", "mu", "delta", "t", "xi", "a2_bound", "a3_bound"]
    expected_lines = len(scalars) + len(etas) + 2
    if len(lines) != expected_lines:
        return [f"expected {expected_lines} lines, got {len(lines)}"]
    want = {
        "lambda": lam, "mu": mu, "delta": delta, "t": t, "xi": ref.xi,
        "a2_bound": ref.a2, "a3_bound": ref.a3, "denom": ref.denom,
    }
    errors: list[str] = []
    keyed = lines[: len(scalars)] + lines[len(scalars) + len(etas): len(scalars) + len(etas) + 1]
    for line, key in zip(keyed, scalars + ["denom"]):
        name, sep, value = line.partition(" = ")
        if name != key or not sep:
            errors.append(f"expected a '{key} = ...' line, got {line!r}")
            continue
        errors += mismatches(key, _number(value), want[key])
    for line, eta in zip(lines[len(scalars): len(scalars) + len(etas)], etas):
        match = _FS_LINE.match(line)
        if match is None or match["label"] != fs_label(eta):
            errors.append(f"malformed line for eta={eta!r}: {line!r}")
            continue
        value, on_flat = ref.fs(eta, np.asarray(t))
        errors += mismatches(match["label"], _number(match["value"]), value)
        errors += mismatches(f"M@{eta:g}", _number(match["m"]), ref.m)
        if (match["branch"] == "flat") != bool(on_flat):
            errors.append(f"{match['label']}: branch {match['branch']} disagrees with the reference")
    flag = f"singular_flag = {'true' if bool(ref.singular) else 'false'}"
    if lines[-1] != flag:
        errors.append(f"expected {flag!r}, got {lines[-1]!r}")
    return errors


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


# ---------------------------------------------------------------------------
# `chebbounds sweep --format csv`


def sweep_grid(ranges) -> tuple[np.ndarray, ...]:
    """Lexicographic (lambda, mu, delta, t) grid from START:STOP:COUNT triples."""
    axes = [np.linspace(start, stop, count) for start, stop, count in ranges]
    return tuple(g.ravel() for g in np.meshgrid(*axes, indexing="ij"))


def sweep_header(etas) -> list[str]:
    return (
        ["lambda", "mu", "delta", "t", "xi", "a2_bound", "a3_bound"]
        + [fs_label(eta) for eta in etas]
        + ["denom", "singular_flag"]
    )


def check_sweep_csv(text: str, ranges, etas) -> list[str]:
    header = sweep_header(etas)
    lines = text.splitlines()
    if not lines or lines[0].split(",") != header:
        return [f"header {lines[0] if lines else ''!r} differs from {','.join(header)!r}"]
    lam, mu, delta, t = sweep_grid(ranges)
    body = lines[1:]
    if len(body) != lam.size:
        return [f"expected {lam.size} rows, got {len(body)}"]
    cells = [row.split(",") for row in body]
    if any(len(row) != len(header) for row in cells):
        return [f"a row does not have {len(header)} fields"]
    columns = list(zip(*cells))
    ref = closed_form(lam, mu, delta, t)
    want = {"lambda": lam, "mu": mu, "delta": delta, "t": t, "xi": ref.xi,
            "a2_bound": ref.a2, "a3_bound": ref.a3, "denom": ref.denom}
    for eta in etas:
        want[fs_label(eta)] = ref.fs(eta, t)[0]
    errors: list[str] = []
    for name, column in zip(header[:-1], columns[:-1]):
        try:
            got = np.array(column, dtype=float)
        except ValueError:
            errors.append(f"column {name} holds a non-number")
            continue
        errors += mismatches(name, got, want[name])
    flags = np.array(columns[-1])
    if not np.isin(flags, ("true", "false")).all():
        errors.append("singular_flag holds something other than true/false")
    elif not np.array_equal(flags == "true", ref.singular):
        errors.append("singular_flag disagrees with the reference")
    return errors[:MAX_ERRORS]


# ---------------------------------------------------------------------------
# `chebbounds verify`

_ORACLE_LINE = re.compile(
    r"^\[PASS\] oracle soundness \((?P<mode>[a-z-]+)\): (?P<points>\d+) points x "
    r"(?P<quantities>\d+) quantities, (?P<checked>\d+) checked, (?P<skipped>\d+) skipped "
    r"\(unbounded closed form\), 0 violations$"
)


def unbounded_count(ranges, etas) -> int:
    """(point, quantity) pairs whose closed-form bound is unbounded: |a2| and
    every sloped Fekete-Szego entry at a singular point."""
    lam, mu, delta, t = sweep_grid(ranges)
    ref = closed_form(lam, mu, delta, t)
    return int(np.isinf(ref.a2).sum()) + sum(int(np.isinf(ref.fs(e, t)[0]).sum()) for e in etas)


def check_verify(stdout: str, mode: str, ranges, etas) -> list[str]:
    lines = stdout.splitlines()
    if not lines or lines[-1] != "verify: PASS":
        return ["last line is not 'verify: PASS'"]
    errors = [f"suite did not pass: {line!r}" for line in lines[:-1] if line.startswith("[FAIL]")]
    oracle = [m for m in map(_ORACLE_LINE.match, lines) if m]
    if len(oracle) != 1:
        return errors + ["no passing oracle line"]
    m = oracle[0]
    n_points = math.prod(count for _, _, count in ranges)
    n_quantities = 2 + len(etas)
    expect = {
        "mode": mode,
        "points": str(n_points),
        "quantities": str(n_quantities),
        "skipped": str(unbounded_count(ranges, etas)),
    }
    errors += [f"oracle {k} is {m[k]}, expected {v}" for k, v in expect.items() if m[k] != v]
    if int(m["checked"]) + int(m["skipped"]) != n_points * n_quantities:
        errors.append("oracle checked + skipped differs from points x quantities")
    return errors
