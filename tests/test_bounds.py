import math

import pytest

from chebbounds.bounds import (
    AS_PRINTED,
    CORRECTED,
    FLAT,
    SLOPED,
    bound_a2,
    bound_a3,
    bound_report,
    closed_form,
    fekete_szego_bound,
    is_singular_denom,
)
from chebbounds.classop import ClassParams
from chebbounds.reductions import _SLICES, corollary_ids, reduction_check
from reduction_grids import reduction_grid

P0 = ClassParams(1.0, 1.0, 0.0, 0.6)
# 2 lam + mu = 4 and t^2 = 1/2 zero the denominator exactly in floats
P_SING = ClassParams(2.0, 0.0, 0.0, math.sqrt(0.5))


def test_denominator_fixture():
    cf = closed_form(P0.lam, P0.mu, P0.delta, P0.t)
    assert cf.A == 4.0
    assert cf.factors.quad_sum_factor == 6.0
    assert cf.d == pytest.approx(2.56, abs=1e-15)


def test_denominator_sign_can_flip():
    # large t with 2A > B drives d negative on some slices
    p = ClassParams(3.0, 0.0, 0.0, 0.95)
    d = closed_form(p.lam, p.mu, p.delta, p.t).d
    assert d < 0
    assert bound_a2(p) > 0


def test_is_singular_scale_relative():
    assert is_singular_denom(0.0, 1.0)
    assert is_singular_denom(1e-14, 4.0)
    assert not is_singular_denom(1e-6, 4.0)


def test_bound_a2_fixture():
    t = 0.6
    want = 2 * t * math.sqrt(2 * t) / math.sqrt(2.56)
    assert bound_a2(P0) == pytest.approx(want, abs=1e-15)
    assert bound_a2(P0) == pytest.approx(0.821583836257749, abs=1e-12)


def test_bound_a3_fixture():
    # 4 t^2 / A + 2 t / F with A = 4, F = 3
    assert bound_a3(P0) == pytest.approx(0.36 + 0.4, abs=1e-15)


def test_singular_point_unbounded():
    assert bound_a2(P_SING) == math.inf
    rep = bound_report(P_SING)
    assert rep.singular
    assert math.isinf(rep.a2_bound)
    assert math.isfinite(rep.a3_bound)


def test_fs_flat_at_eta_one():
    fr = fekete_szego_bound(P0, 1.0)
    assert fr.bound == 2 * 0.6 / 3.0
    assert fr.branch == FLAT


def test_fs_sloped_far_from_one():
    fr = fekete_szego_bound(P0, 2.0)
    assert fr.branch == SLOPED
    assert fr.bound == pytest.approx(8 * 1.0 * 0.6**3 / 2.56, abs=1e-15)


def test_fs_threshold_fixture():
    fr = fekete_szego_bound(P0, 1.0)
    # M = |d| / (4 F t^2) = 2.56 / (4 * 3 * 0.36)
    assert fr.threshold_m == pytest.approx(2.56 / 4.32, abs=1e-15)
    assert fr.m_variant == CORRECTED


def test_fs_branches_meet_at_threshold_corrected():
    for p in (P0, ClassParams(1.5, 1.0, 0.25, 0.9), ClassParams(2.0, 0.5, 1.0, 0.7)):
        m = fekete_szego_bound(p, 1.0).threshold_m
        lo = fekete_szego_bound(p, 1.0 + m).bound
        flat = 2 * p.t / p.factors.fs_flat_denom
        assert lo == pytest.approx(flat, abs=1e-12)


def test_fs_as_printed_threshold_differs_only_with_delta():
    p_nodelta = ClassParams(1.5, 1.0, 0.0, 0.8)
    assert (
        fekete_szego_bound(p_nodelta, 1.0, AS_PRINTED).threshold_m
        == fekete_szego_bound(p_nodelta, 1.0, CORRECTED).threshold_m
    )
    p = ClassParams(1.5, 1.0, 0.25, 0.8)
    m_corr = fekete_szego_bound(p, 1.0, CORRECTED).threshold_m
    m_printed = fekete_szego_bound(p, 1.0, AS_PRINTED).threshold_m
    assert m_printed > m_corr  # printed denominator is smaller, so M is larger
    # inside the printed threshold but outside the corrected one the two
    # variants disagree
    eta = 1.0 + 0.5 * (m_corr + m_printed)
    assert fekete_szego_bound(p, eta, AS_PRINTED).branch == FLAT
    assert fekete_szego_bound(p, eta, CORRECTED).branch == SLOPED


def test_fs_singular_point():
    fr = fekete_szego_bound(P_SING, 0.0)
    assert math.isinf(fr.bound)
    at_one = fekete_szego_bound(P_SING, 1.0)
    assert at_one.branch == FLAT
    assert math.isfinite(at_one.bound)


def test_fs_h_symmetry():
    # |fs bound| depends on eta only through |1 - eta|
    for eta in (0.3, 1.7):
        a = fekete_szego_bound(P0, 1.0 + (eta - 1.0)).bound
        b = fekete_szego_bound(P0, 1.0 - (eta - 1.0)).bound
        assert a == pytest.approx(b, abs=1e-15)


def test_corollary_registry():
    ids = corollary_ids()
    assert len(ids) == 12
    assert len(set(ids)) == 12
    for cid in ids:
        grid, etas = reduction_grid(cid)
        assert len(grid) * (len(etas) if etas else 1) >= 81


def test_corollary_pin_enforcement():
    # a pin is a one-value axis of the slice's own grid (test_reduction_table)
    with pytest.raises(ValueError, match="unknown"):
        reduction_check("nope")


def test_corollary_fixture_value():
    formula = _SLICES["fs-delta-eta1"][0]
    got = formula(1.5, 1.0, 0.25, 0.9, 1.0)
    assert got["fs"] == pytest.approx(1.8 / 5.5, abs=1e-15)


def test_all_reductions_pass():
    for cid in corollary_ids():
        res = reduction_check(cid)
        assert res.passed, f"{cid}: max deviation {res.max_deviation}"
        assert res.max_deviation <= 1e-12


def test_reduction_handles_singular_grid_points():
    # the lambda slice at mu = 1, delta = 0 crosses a singular point near
    # lam = 2.5, t = 0.7; both sides must agree (infinity matched to
    # infinity counts as deviation zero) at every eta of its axis, 0 included
    assert 0.0 in _SLICES["fs-lambda"][-1]
    res = reduction_check("fs-lambda")
    assert res.passed
