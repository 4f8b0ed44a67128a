"""The suites of ``verify``, each returning (ok, lines), with ok None for an
informational line.  ``cli`` passes in the names that the suites call, so
that replacing them on ``cli`` still intercepts every call.

The inverse-series and continuity suites draw their fixtures from
``_uniforms``, a pure-Python copy of ``np.random.default_rng(seed).random``,
so that ``verify`` never imports ``numpy.random``: a few thousand doubles
cost less than that import.  The oracle draws nothing: a result that its
closed-disk bound cannot settle fails the oracle suite by name."""

from __future__ import annotations

import argparse
import math
from collections.abc import Sequence

import numpy as np

from .bounds import CORRECTED, closed_form
from .classop import ClassParams
from .powerseries import _compose_errors, _inverse
from .text import fmt, fmt_complex


def _uniforms(seed: int, n: int) -> np.ndarray:
    """``np.random.default_rng(seed).random(n)`` bit for bit, for any int seed
    >= 0.  numpy's SeedSequence hashes the seed's 32-bit words into a pool of
    four and the pool into PCG64's 128-bit state and increment; each double
    is the top 53 bits of one XSL-RR output times 2**-53 (O'Neill, PCG,
    HMC-CS-2014-0905; numpy keeps the stream fixed under NEP 19)."""
    m32, m64, m128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
    words = [seed >> shift & m32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    const = 0x43B0D7E5

    def hashed(value, mult=0x931E8875):
        nonlocal const
        value = (value ^ const) * (const := const * mult & m32) & m32
        return value ^ value >> 16

    def mixed(x, y):
        x = 0xCA01F9DD * x - 0x4973F715 * y & m32
        return x ^ x >> 16

    # the first four words (or zeros) hashed into the pool, every pool word mixed
    # into every other, then each further word into every pool word
    pool = [hashed(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mixed(pool[dst], hashed(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mixed(pool[dst], hashed(word))
    # generate_state(4, uint64): eight words hashed from the cycled pool
    const = 0x8B51F9DD
    w = [hashed(pool[i % 4], 0x58F38DED) for i in range(8)]
    # four uint64 words, low half first: the state's high and low, the increment's
    state = (w[1] << 32 | w[0]) << 64 | w[3] << 32 | w[2]
    inc = ((w[5] << 32 | w[4]) << 64 | w[7] << 32 | w[6]) << 1 & m128 | 1
    mult = 0x2360ED051FC65DA44385DF649FCCF645
    # PCG's seeding from state 0: a step, add the seed state, a step
    state = (inc + state) * mult + inc & m128
    out = []
    for _ in range(n):
        state = state * mult + inc & m128
        x, rot = (state >> 64 ^ state) & m64, state >> 122
        out.append((x >> rot | x << 64 - rot & m64) >> 11)
    return np.array(out, dtype=float) * 2.0**-53


def _suite_reductions(reduction_check) -> tuple[bool, list[str]]:
    from .reductions import corollary_ids
    results = [reduction_check(cid) for cid in corollary_ids()]
    line = (
        f"corollary reductions: {len(results)} slices, {sum(r.n_points for r in results)} "
        f"points, max deviation {max(r.max_deviation for r in results):.3e}"
    )
    failing = [f"  failing slice: {r.corollary} (max deviation {r.max_deviation:.3e})"
               for r in results if not r.passed]
    return not failing, [line] + failing


def _suite_chebyshev(cheb_u, gen_fun_coeffs) -> tuple[bool, list[str]]:
    closed = {
        2: lambda t: 4.0 * t * t - 1.0,
        3: lambda t: 8.0 * (t * t * t) - 4.0 * t,
        4: lambda t: 16.0 * (t * t * t * t) - 12.0 * t * t + 1.0,
    }
    dev_closed = max(abs(cheb_u(n, t) - form(t))
                     for n, form in closed.items() for t in np.linspace(-1.0, 1.0, 50))
    dev_series = max(abs(ser - cheb_u(n, t))
                     for t in (0.55, 0.75, 0.95) for n, ser in enumerate(gen_fun_coeffs(t, 30)))
    ok = dev_closed <= 1e-13 and dev_series <= 1e-10
    return ok, [
        f"chebyshev cross-validation: closed-form dev {dev_closed:.3e}, "
        f"series dev {dev_series:.3e}"
    ]


def _suite_inverse(seed: int, order: int) -> tuple[bool, list[str]]:
    # 100 draws of (a2, a3, a4), a modulus and then a phase each, as one object
    # array of Python complex each: every operation on them is Python's own
    u = _uniforms(seed, 600).reshape(100, 3, 2)
    phase = np.exp(1j * ((2.0 * math.pi) * u[..., 1])).astype(object)
    a2, a3, a4 = ((0.2 * np.sqrt(u[:, k, 0])).astype(object) * phase[:, k] for k in range(3))
    f = [0j, 1.0 + 0j, a2, a3, a4] + [0j] * (order - 4)
    g = _inverse(f)
    expected = {2: -a2, 3: 2.0 * a2 * a2 - a3, 4: -(5.0 * (a2 * a2 * a2) - 5.0 * a2 * a3 + a4)}
    worst_coeff = float(np.max([abs(g[k] - v) for k, v in expected.items()]))
    worst_resid = float(np.max(_compose_errors(f, g)))
    ok = worst_coeff <= 1e-12 and worst_resid <= 1e-12
    return ok, [
        f"inverse-series fixtures: 100 draws, coefficient dev {worst_coeff:.3e}, "
        f"compose residual {worst_resid:.3e}"
    ]


def _suite_continuity(variant: str, seed: int) -> tuple[bool | None, list[str]]:
    """ok is None for the as-printed variant, whose gap is informational."""
    u = _uniforms(seed, 2000).reshape(500, 4)
    lam, mu, delta, t = 1.0 + 2.0 * u[:, 0], 2.0 * u[:, 1], u[:, 2], 0.55 + 0.4 * u[:, 3]
    cf = closed_form(lam, mu, delta, t, (1.0,), variant)
    regular = ~cf.singular
    flat = (2.0 * t / cf.factors.fs_flat_denom)[regular]
    t, d, m = t[regular], cf.d[regular], cf.fs[0].threshold_m[regular]
    worst = float(np.max(np.abs(flat - 8.0 * m * (t * t * t) / np.abs(d)), initial=0.0))
    line = f"fs branch continuity ({variant}): {len(t)} draws, max gap at threshold {worst:.3e}"
    if variant == CORRECTED:
        return worst <= 1e-10, [line]
    return None, [line + " (discontinuity expected for delta > 0; informational)"]


def _named(kind: str, r) -> str:
    p = r.params
    return (f"  {kind}: {r.quantity.label} at lambda={fmt(p.lam)} mu={fmt(p.mu)} "
            f"delta={fmt(p.delta)} t={fmt(p.t)}: sup={fmt(r.sup_value)} "
            f"bound={fmt(r.closed_form_bound)}")


def _suite_oracle(
    grid: Sequence[ClassParams], etas: list[float], args: argparse.Namespace, sweep_verify
) -> tuple[bool, list[str]]:
    from .oracle import SKIPPED, UNSETTLED, OracleConfig, verdict_indices, violations
    cfg = OracleConfig(mode=args.mode, n_samples=args.samples, seed=args.seed)
    results = sweep_verify(grid, etas, cfg)
    viols = violations(results)
    unsettled = [results[i] for i in verdict_indices(results, UNSETTLED)]
    n_skipped = len(verdict_indices(results, SKIPPED))
    line = (
        f"oracle soundness ({cfg.mode}): {len(grid)} points x {2 + len(etas)} quantities, "
        f"{len(results) - n_skipped} checked, {n_skipped} skipped (unbounded closed form), "
        f"{len(viols)} violations"
    )
    extra: list[str] = []
    for r in viols:
        extra.append(_named("violation", r))
        w = r.witness
        if w is not None:
            s = w.schwarz
            extra.append(
                f"    witness: c1={fmt_complex(s.c1)} c2={fmt_complex(s.c2)} "
                f"d1={fmt_complex(s.d1)} d2={fmt_complex(s.d2)} "
                f"a2={fmt_complex(w.a2)} a3={fmt_complex(w.a3)}"
            )
    extra += [_named("unsettled", r) for r in unsettled]
    return not (viols or unsettled), [line] + extra
