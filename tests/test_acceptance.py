"""Acceptance gate: one test per shipped guarantee.

Each test prints a single summary line so a plain ``pytest -v -s`` run
doubles as the acceptance report.  Tolerances are part of the contract;
do not loosen them to make a failure go away.
"""

import math
import time

import numpy as np
import pytest

from chebbounds.bounds import (
    AS_PRINTED,
    CORRECTED,
    bound_a2,
    closed_form,
    fekete_szego_bound,
    is_singular_denom,
)
from chebbounds.chebyshev import cheb_u, gen_fun_coeffs
from chebbounds.classop import ClassParams, apply_operator, quad_coeff_direct, quad_coeff_inverse
from chebbounds.cli import main
from chebbounds.oracle import (
    FULL_SYSTEM,
    A2,
    A3,
    OracleConfig,
    empirical_sup,
    fs_quantity,
    sweep_verify,
    violations,
)
from chebbounds.powerseries import NormalizedSeries, TruncatedSeries, invert_compositional
from chebbounds.reductions import corollary_ids, reduction_check


def test_criterion_1_chebyshev_cross_validation(acceptance_report):
    start = time.monotonic()
    closed = {
        2: lambda t: 4 * t * t - 1,
        3: lambda t: 8 * t**3 - 4 * t,
        4: lambda t: 16 * t**4 - 12 * t * t + 1,
    }
    dev_closed = max(
        abs(cheb_u(n, t) - poly(t))
        for n, poly in closed.items()
        for t in np.linspace(-1.0, 1.0, 50)
    )
    assert dev_closed <= 1e-13
    dev_series = max(
        abs(gen_fun_coeffs(t, 30)[n] - cheb_u(n, t))
        for t in (0.55, 0.75, 0.95)
        for n in range(31)
    )
    assert dev_series <= 1e-10
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    acceptance_report(
        "chebyshev cross-validation",
        f"closed-form dev {dev_closed:.2e} <= 1e-13, series dev {dev_series:.2e} <= 1e-10",
    )


def test_criterion_2_inverse_series_fixture(acceptance_report):
    start = time.monotonic()
    rng = np.random.default_rng(1234)
    worst_coeff = 0.0
    worst_compose = 0.0
    for _ in range(100):
        a2, a3, a4 = (
            0.2 * math.sqrt(rng.random()) * np.exp(2j * math.pi * rng.random())
            for _ in range(3)
        )
        f = NormalizedSeries.from_tail([a2, a3, a4], order=8)
        g = invert_compositional(f)
        want = {
            2: -a2,
            3: 2 * a2 * a2 - a3,
            4: -(5 * a2**3 - 5 * a2 * a3 + a4),
        }
        worst_coeff = max(worst_coeff, max(abs(g.coeffs[k] - v) for k, v in want.items()))
        resid = g.compose(TruncatedSeries(f.coeffs))
        worst_compose = max(
            worst_compose,
            max(abs(c - (1.0 if k == 1 else 0.0)) for k, c in enumerate(resid.coeffs)),
        )
    assert worst_coeff <= 1e-12
    assert worst_compose <= 1e-12
    assert time.monotonic() - start < 1.0
    acceptance_report(
        "inverse-series fixture",
        f"100 draws, coeff dev {worst_coeff:.2e}, compose residual {worst_compose:.2e} <= 1e-12",
    )


def test_criterion_3_operator_coefficient_identities(acceptance_report):
    start = time.monotonic()
    rng = np.random.default_rng(4321)
    worst = 0.0
    for _ in range(200):
        a2, a3 = 0.2 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        p = ClassParams(
            1.0 + 2 * rng.random(),
            2 * rng.random(),
            rng.random(),
            0.55 + 0.4 * rng.random(),
        )
        f = NormalizedSeries.from_tail([a2, a3], order=5)
        op = apply_operator(f, p)
        opg = apply_operator(invert_compositional(f), p)
        worst = max(
            worst,
            abs(op.coeffs[1] - p.factors.op_linear_factor * a2),
            abs(op.coeffs[2] - quad_coeff_direct(p, a2, a3)),
            abs(opg.coeffs[1] + p.factors.op_linear_factor * a2),
            abs(opg.coeffs[2] - quad_coeff_inverse(p, a2, a3)),
        )
    assert worst <= 1e-12
    assert time.monotonic() - start < 2.0
    acceptance_report(
        "operator coefficient identities",
        f"200 draws, f-side and inverse-side max dev {worst:.2e} <= 1e-12",
    )


def test_criterion_4_corollary_reductions(acceptance_report):
    start = time.monotonic()
    worst = 0.0
    total = 0
    for cid in corollary_ids():
        res = reduction_check(cid)
        assert res.passed, f"{cid} deviates by {res.max_deviation:.3e}"
        assert res.n_points >= 81, f"{cid} grid too small: {res.n_points}"
        worst = max(worst, res.max_deviation)
        total += res.n_points
    assert worst <= 1e-12
    assert time.monotonic() - start < 1.0
    acceptance_report(
        "corollary reductions",
        f"{len(corollary_ids())} slices, {total} points, max dev {worst:.2e} <= 1e-12",
    )


def test_criterion_5_branch_continuity_and_misprint(acceptance_report):
    start = time.monotonic()
    rng = np.random.default_rng(97)
    worst_gap = 0.0
    worst_jump = 0.0
    n_checked = 0
    for _ in range(500):
        p = ClassParams(
            1.0 + 2 * rng.random(),
            2 * rng.random(),
            rng.random(),
            0.55 + 0.4 * rng.random(),
        )
        cf = closed_form(p.lam, p.mu, p.delta, p.t)
        a, d = cf.A, cf.d
        if is_singular_denom(d, a):
            continue
        n_checked += 1
        flat = 2 * p.t / p.factors.fs_flat_denom
        m_corr = fekete_szego_bound(p, 1.0, CORRECTED).threshold_m
        worst_gap = max(worst_gap, abs(flat - 8 * m_corr * p.t**3 / abs(d)))
        if p.delta > 0:
            m_printed = fekete_szego_bound(p, 1.0, AS_PRINTED).threshold_m
            worst_jump = max(worst_jump, abs(flat - 8 * m_printed * p.t**3 / abs(d)))
    assert worst_gap <= 1e-10
    assert worst_jump > 1e-3
    assert time.monotonic() - start < 1.0
    acceptance_report(
        "fs branch continuity",
        f"{n_checked} draws: corrected gap {worst_gap:.2e} <= 1e-10, "
        f"as-printed jump {worst_jump:.2e} > 1e-3",
    )


def test_criterion_6_oracle_soundness_sweep(acceptance_report):
    start = time.monotonic()
    grid = [
        ClassParams(lam, mu, delta, t)
        for lam in np.linspace(1.0, 3.0, 3)
        for mu in np.linspace(0.0, 2.0, 3)
        for delta in np.linspace(0.0, 1.0, 3)
        for t in np.linspace(0.55, 0.95, 3)
    ]
    cfg = OracleConfig(n_samples=10_000, seed=1729)
    results = sweep_verify(grid, [0.0, 1.0, 2.0], cfg)
    elapsed = time.monotonic() - start
    bad = violations(results)
    assert not bad, [(r.quantity.label, r.params) for r in bad]
    assert len(results) == 81 * 5
    assert elapsed < 30.0
    n_skipped = sum(1 for r in results if math.isinf(r.closed_form_bound))
    acceptance_report(
        "oracle soundness",
        f"{len(results)} checks (tol 1e-9), 0 violations, "
        f"{n_skipped} unbounded-skipped, {elapsed:.1f}s < 30s",
    )


def test_criterion_7_oracle_tightness_at_attained_points(acceptance_report):
    start = time.monotonic()
    p = ClassParams(1.0, 1.0, 0.0, 0.6)
    cfg = OracleConfig(n_samples=10_000, seed=1729)
    a2_proof = empirical_sup(A2, p, cfg)
    assert a2_proof.sup_value == pytest.approx(0.821584, abs=1e-3)
    fs_proof = empirical_sup(fs_quantity(1.0), p, cfg)
    assert fs_proof.sup_value == fs_proof.closed_form_bound   # exact: extreme injected
    assert fs_proof.closed_form_bound == 2 * 0.6 / 3.0
    a2_full = empirical_sup(A2, p, OracleConfig(mode=FULL_SYSTEM, n_samples=10_000, seed=1729))
    assert a2_full.sup_value == pytest.approx(0.6, abs=1e-3)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    acceptance_report(
        "oracle tightness",
        f"proof-set |a2| {a2_proof.sup_value:.6f} ~ 0.821584, fs@1 exactly "
        f"{fs_proof.sup_value:g}, full-system |a2| {a2_full.sup_value:.6f} ~ 0.6 "
        f"({elapsed:.1f}s < 5s)",
    )


def test_criterion_8_singularity_handling(capsys, acceptance_report):
    p = ClassParams(2.0, 0.0, 0.0, math.sqrt(0.5))
    assert bound_a2(p) == math.inf
    code = main(
        ["sweep", "--lambda", "1:3:3", "--mu", "0", "--delta", "0",
         "--t", f"{math.sqrt(0.5)}"]
    )
    out = capsys.readouterr().out
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 3                       # the sweep crosses the singular point
    flagged = [r for r in rows if r.endswith(",true")]
    assert len(flagged) == 1
    assert ",inf," in flagged[0]                # a2 column is unbounded on that row
    assert sum(1 for r in rows if r.endswith(",false")) == 2
    acceptance_report(
        "singularity handling",
        "bound_a2 unbounded at the zero denominator; sweep crossing it "
        "completes with the row flagged",
    )


def test_criterion_9_determinism(capsys, tmp_path, acceptance_report):
    verify_args = ["verify", "--samples", "2000", "--seed", "1729"]
    assert main(verify_args) == 0
    out1 = capsys.readouterr().out
    assert main(verify_args) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    f1, f2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    sweep_args = ["sweep", "--lambda", "1:3:5", "--mu", "0:2:3", "--delta", "0:1:2",
                  "--t", "0.55:0.95:5", "--eta", "0", "--eta", "1", "--eta", "2"]
    assert main([*sweep_args, "--output", str(f1)]) == 0
    assert main([*sweep_args, "--output", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    acceptance_report("determinism", "verify stdout and sweep files byte-identical across reruns")
