"""Seeded workload generator.

Every input the benchmark hands to `chebbounds` is derived from one seed,
so the same seed gives byte-identical argument lists.  Numbers are passed
rounded to a few significant digits, which is how a user types them and
keeps the CLI's `{eta:g}` labels predictable.

Workloads (why each was chosen is recorded in BENCHMARK.json too):

- bound: many single-point `bound` calls.  Start-up (the `import` layer)
  and argument handling (`cli`) dominate; the closed form runs once.
- sweep: one 40,000-point grid with three eta columns, written as CSV to a
  file.  Per-point `classop` and `bounds` work dominates, then `cli`
  rendering and the write.  The oracle is idle.
- verify: the documented default `verify` (proof-set, 81 points, 10k
  samples) with a seeded --seed.  The `oracle` per-sample work dominates.
- verify-full: full-system mode over a 1125-point grid with 1000 samples.
  Per-point oracle overhead (feasibility mask, singular a2 column)
  outweighs per-sample work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import reference

WORKLOADS = ("bound", "sweep", "verify", "verify-full")

# bound points are drawn from this box; the generator skips the thin band
# around d = 0 where no float64 evaluation reaches a 1e-9 relative check
BOUND_BOX = {"lam": (1.0, 4.0), "mu": (0.0, 3.0), "delta": (0.0, 2.0), "t": (0.51, 0.99)}
MIN_CONDITIONING = 1e-6
BOUND_CALLS = 512
SWEEP_COUNTS = (20, 10, 10, 20)
VERIFY_CALLS = 64
VERIFY_DEFAULT_RANGES = ((1.0, 3.0, 3), (0.0, 2.0, 3), (0.0, 1.0, 3), (0.55, 0.95, 3))
VERIFY_FULL_RANGES = ((1.0, 3.0, 5), (0.0, 2.0, 5), (0.0, 1.0, 5), (0.55, 0.95, 9))
VERIFY_ETAS = (0.0, 1.0, 2.0)
VERIFY_FULL_SAMPLES = 1000
PROBE_POINTS = 12
PROBE_SAMPLES = 10_000


@dataclass(frozen=True)
class Call:
    """One `chebbounds` invocation and what its output must match."""

    argv: tuple[str, ...]
    rows: int                  # parameter points the call reports
    results: int               # (point, quantity) results the call produces
    expect: dict               # checker arguments; see reference.py


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]    # cycled in order by the closed loop
    # oracle tightness probe for workloads whose CLI runs no oracle:
    # points [lam, mu, delta, t, [etas]], sample count and oracle seed
    probe: dict | None


def _num(x: float, digits: int) -> float:
    return float(f"{x:.{digits}g}")


def _range_arg(rng: tuple[float, float, int]) -> str:
    start, stop, count = rng
    return f"{start:.10g}:{stop:.10g}:{count}"


def _etas_around(m_low: float, m_high: float, kinds, rng) -> list[float]:
    """Eta values clear of the flat/sloped edge: flat inside half the
    narrowest band, sloped beyond 1.2x the widest band on either side."""
    out = []
    for kind in kinds:
        if kind == "flat":
            eta = 1.0 + (2.0 * rng.random() - 1.0) * 0.5 * m_low
        else:
            side = 1.0 if kind == "right" else -1.0
            eta = 1.0 + side * (m_high * (1.2 + rng.random()) + 0.05)
        out.append(_num(eta, 6))
    return out


def _bound(rng: np.random.Generator) -> Workload:
    calls = []
    while len(calls) < BOUND_CALLS:
        point = [_num(lo + (hi - lo) * rng.random(), 10) for lo, hi in BOUND_BOX.values()]
        # pinned slices (lambda = 1, mu = 0, delta = 0) are the printed corollaries
        for i, pin in ((0, 1.0), (1, 0.0), (2, 0.0)):
            if rng.random() < 0.15:
                point[i] = pin
        if reference.relative_conditioning(*point) < MIN_CONDITIONING:
            continue
        m = float(reference.closed_form(*point).m)
        kinds = rng.permutation(["flat", "left", "right"])[: 1 + rng.integers(3)]
        etas = _etas_around(m, m, kinds, rng)
        argv = ["bound"]
        for flag, value in zip(("--lambda", "--mu", "--delta", "--t"), point):
            argv += [flag, f"{value:.10g}"]
        for eta in etas:
            argv += ["--eta", f"{eta:g}"]
        calls.append(Call(tuple(argv), 1, 2 + len(etas), {"point": point, "etas": etas}))
    probe_points = [c.expect["point"] + [c.expect["etas"]] for c in calls[:PROBE_POINTS]]
    return Workload("bound", tuple(calls), _probe(probe_points, rng))


def _sweep(rng: np.random.Generator) -> Workload:
    while True:
        lam0 = 1.0 + 0.5 * rng.random()
        mu0 = 0.5 * rng.random()
        delta0 = 0.3 * rng.random()
        t0 = 0.51 + 0.04 * rng.random()
        ends = (
            (lam0, lam0 + 1.5 + rng.random()),
            (mu0, mu0 + 1.0 + rng.random()),
            (delta0, delta0 + 0.5 + 0.5 * rng.random()),
            (t0, 0.9 + 0.08 * rng.random()),
        )
        ranges = tuple(
            (_num(a, 6), _num(b, 6), n) for (a, b), n in zip(ends, SWEEP_COUNTS)
        )
        grid = reference.sweep_grid(ranges)
        if reference.relative_conditioning(*grid).min() >= MIN_CONDITIONING:
            break
    m = reference.closed_form(*grid).m
    etas = _etas_around(float(m.min()), float(m.max()), ("flat", "left", "right"), rng)
    argv = ["sweep"]
    for flag, r in zip(("--lambda", "--mu", "--delta", "--t"), ranges):
        argv += [flag, _range_arg(r)]
    for eta in etas:
        argv += ["--eta", f"{eta:g}"]
    argv += ["--format", "csv"]
    rows = int(np.prod(SWEEP_COUNTS))
    call = Call(tuple(argv), rows, rows * (2 + len(etas)), {"ranges": ranges, "etas": etas})
    picks = rng.choice(rows, PROBE_POINTS, replace=False)
    probe_points = [[float(axis[i]) for axis in grid] + [etas] for i in picks]
    return Workload("sweep", (call,), _probe(probe_points, rng))


def _verify(rng: np.random.Generator, full: bool) -> Workload:
    ranges = VERIFY_FULL_RANGES if full else VERIFY_DEFAULT_RANGES
    n_points = int(np.prod([r[2] for r in ranges]))
    results = n_points * (2 + len(VERIFY_ETAS))
    mode = "full-system" if full else "proof-set"
    calls = []
    for seed in rng.integers(0, 2**31 - 1, VERIFY_CALLS):
        argv = ["verify", "--seed", str(int(seed))]
        if full:
            argv += ["--mode", mode, "--samples", str(VERIFY_FULL_SAMPLES)]
            for flag, r in zip(("--lambda", "--mu", "--delta", "--t"), ranges):
                argv += [flag, _range_arg(r)]
        expect = {"mode": mode, "ranges": ranges, "etas": VERIFY_ETAS}
        calls.append(Call(tuple(argv), n_points, results, expect))
    return Workload("verify-full" if full else "verify", tuple(calls), None)


def _probe(points, rng) -> dict:
    return {"points": points, "samples": PROBE_SAMPLES, "seed": int(rng.integers(0, 2**31 - 1))}


def make(name: str, seed: int) -> Workload:
    """The workload `name`, generated from `seed`."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "bound":
        return _bound(rng)
    if name == "sweep":
        return _sweep(rng)
    return _verify(rng, full=name == "verify-full")
