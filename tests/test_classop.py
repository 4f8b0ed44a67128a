import numpy as np
import pytest

from chebbounds.classop import (
    ADMISSIBLE_TOL,
    ClassParams,
    SchwarzPair,
    apply_operator,
    extract_schwarz,
    membership_feasibility,
    quad_coeff_direct,
    quad_coeff_inverse,
)
from chebbounds.chebyshev import cheb_u, gen_fun_coeffs
from chebbounds.powerseries import NormalizedSeries, TruncatedSeries, _compose, invert_compositional


def test_xi_values():
    assert ClassParams(1.0, 1.0, 0.0, 0.6).factors.xi == 1.0
    assert ClassParams(1.0, 0.0, 0.0, 0.6).factors.xi == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert ClassParams(2.0, 3.0, 0.0, 0.6).factors.xi == pytest.approx(1.4, abs=1e-15)


def test_params_validation_messages():
    with pytest.raises(ValueError, match="lambda must be >= 1"):
        ClassParams(0.5, 0.0, 0.0, 0.6)
    with pytest.raises(ValueError, match="mu must be >= 0"):
        ClassParams(1.0, -0.1, 0.0, 0.6)
    with pytest.raises(ValueError, match="delta must be >= 0"):
        ClassParams(1.0, 0.0, -1.0, 0.6)
    with pytest.raises(ValueError, match="t must lie in"):
        ClassParams(1.0, 0.0, 0.0, 0.5)
    with pytest.raises(ValueError, match="t must lie in"):
        ClassParams(1.0, 0.0, 0.0, 1.0)


def test_derived_factors():
    p = ClassParams(1.5, 1.0, 0.25, 0.9)
    assert p.factors.xi == 1.0
    assert p.factors.op_linear_factor == 3.0
    assert p.factors.quad_sum_factor == 11.0
    assert p.factors.fs_flat_denom == 5.5
    assert p.factors.fs_printed_denom == 4.5


def test_schwarz_pair_admissibility():
    ok = SchwarzPair.from_coeffs(1.0, -1.0, 1j, -1j)
    assert ok.admissible
    over = SchwarzPair.from_coeffs(1.0 + 10 * ADMISSIBLE_TOL, 0.0, 0.0, 0.0)
    assert not over.admissible
    edge = SchwarzPair.from_coeffs(1.0 + 0.5 * ADMISSIBLE_TOL, 0.0, 0.0, 0.0)
    assert edge.admissible


def test_operator_is_derivative_at_unit_point():
    p = ClassParams(1.0, 1.0, 0.0, 0.6)
    f = NormalizedSeries.from_tail([0.3, 0.1, -0.05], order=6)
    op = apply_operator(f, p)
    fp = TruncatedSeries(f.coeffs).differentiate()
    assert np.allclose(op.coeffs[: fp.order + 1], fp.coeffs, rtol=0, atol=1e-15)


def test_operator_lambda_only_form():
    # mu = 0, delta = 0: (1 - lam) (f/z)^0 + lam f' (f/z)^(-1)
    p = ClassParams(2.0, 0.0, 0.0, 0.7)
    f = NormalizedSeries.from_tail([0.2, -0.1, 0.05], order=6)
    base = TruncatedSeries(f.coeffs[1:])
    fprime = TruncatedSeries(f.coeffs).differentiate()
    want = (1 - 2.0) * base.pow_real(0.0) + 2.0 * (fprime * base.pow_real(-1.0))
    got = apply_operator(f, p)
    assert np.allclose(got.coeffs, want.coeffs, rtol=0, atol=1e-14)


def test_operator_input_validation():
    p = ClassParams(1.0, 1.0, 0.0, 0.6)
    with pytest.raises(TypeError):
        apply_operator(TruncatedSeries((0.0, 1.0, 0.3, 0.1)), p)
    with pytest.raises(ValueError, match="order"):
        apply_operator(NormalizedSeries((0.0, 1.0, 0.3)), p)


def test_operator_low_degree_identities():
    rng = np.random.default_rng(23)
    for _ in range(50):
        a2, a3 = 0.2 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        p = ClassParams(
            1.0 + 2 * rng.random(), 2 * rng.random(), rng.random(), 0.55 + 0.4 * rng.random()
        )
        f = NormalizedSeries.from_tail([a2, a3], order=5)
        op = apply_operator(f, p)
        assert abs(op.coeffs[0] - 1.0) <= 1e-14
        assert abs(op.coeffs[1] - p.factors.op_linear_factor * a2) <= 1e-12
        assert abs(op.coeffs[2] - quad_coeff_direct(p, a2, a3)) <= 1e-12
        g = invert_compositional(f)
        opg = apply_operator(g, p)
        assert abs(opg.coeffs[1] + p.factors.op_linear_factor * a2) <= 1e-12
        assert abs(opg.coeffs[2] - quad_coeff_inverse(p, a2, a3)) <= 1e-12


def test_extract_schwarz_round_trip():
    rng = np.random.default_rng(31)
    for _ in range(25):
        t = 0.55 + 0.4 * rng.random()
        c1, c2 = 0.4 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        omega = TruncatedSeries.make([0.0, c1, c2], order=4)
        gen = TruncatedSeries.make(gen_fun_coeffs(t, 4), order=4)
        sub = TruncatedSeries(tuple(_compose(gen.coeffs, omega.coeffs)))
        got_c1, got_c2 = extract_schwarz(sub, t)
        assert abs(got_c1 - c1) <= 1e-12
        assert abs(got_c2 - c2) <= 1e-12


def test_extract_schwarz_rejects_bad_constant():
    s = TruncatedSeries.make([0.9, 0.5, 0.1], order=2)
    with pytest.raises(ValueError, match="constant"):
        extract_schwarz(s, 0.6)


def test_extract_schwarz_fixture():
    p = ClassParams(1.0, 1.0, 0.0, 0.6)
    f = NormalizedSeries.from_tail([0.3, 0.1], order=5)
    c1, c2 = extract_schwarz(apply_operator(f, p), p.t)
    # op = f' = 1 + 0.6 z + 0.3 z^2; c1 = 0.6/U1, c2 = (0.3 - U2 c1^2)/U1
    assert c1 == pytest.approx(0.5, abs=1e-14)
    assert c2 == pytest.approx((0.3 - 0.44 * 0.25) / 1.2, abs=1e-12)


def test_membership_feasibility_consistent_pair():
    # choose (a2, a3) produced by an actual subordination and check both
    # sides come back admissible
    p = ClassParams(1.0, 1.0, 0.0, 0.6)
    f = NormalizedSeries.from_tail([0.1, 0.05], order=5)
    pair = membership_feasibility(0.1, 0.05, p)
    c1, c2 = extract_schwarz(apply_operator(f, p), p.t)
    assert pair.c1 == pytest.approx(c1, abs=1e-12)
    assert pair.c2 == pytest.approx(c2, abs=1e-12)
    assert pair.d1 == pytest.approx(-c1, abs=1e-12)
    assert pair.admissible


def test_membership_feasibility_rejects_large_coefficients():
    p = ClassParams(1.0, 1.0, 0.0, 0.6)
    pair = membership_feasibility(5.0, 0.0, p)
    assert not pair.admissible


def test_inverse_subordination_uses_inverse_series():
    # d-side coefficients must equal the Schwarz data of L[g] for g = f^{-1}
    p = ClassParams(1.3, 0.7, 0.4, 0.8)
    f = NormalizedSeries.from_tail([0.08, 0.03], order=5)
    pair = membership_feasibility(0.08, 0.03, p)
    g = invert_compositional(f)
    d1, d2 = extract_schwarz(apply_operator(g, p), p.t)
    assert pair.d1 == pytest.approx(d1, abs=1e-12)
    assert pair.d2 == pytest.approx(d2, abs=1e-12)


def test_cheb_u_consistency_in_extraction():
    # the extraction divides by U1 and subtracts U2 c1^2; pin the exact values
    t = 0.75
    assert cheb_u(1, t) == 1.5
    assert cheb_u(2, t) == 1.25
