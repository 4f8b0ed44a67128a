import math

import pytest

from chebbounds.bounds import bound_a2, bound_a3, fekete_szego_bound
from chebbounds.classop import ClassParams, membership_feasibility
from chebbounds.oracle import (
    FULL_SYSTEM,
    PROOF_SET,
    SKIPPED,
    VIOLATION,
    WITHIN_BOUND,
    A2,
    A3,
    OracleConfig,
    Quantity,
    empirical_sup,
    fs_quantity,
    solve_member_coeffs,
    sweep_verify,
    violations,
)

P0 = ClassParams(1.0, 1.0, 0.0, 0.6)
P_SING = ClassParams(2.0, 0.0, 0.0, math.sqrt(0.5))
FAST = OracleConfig(n_samples=400, seed=5)


def test_quantity_labels():
    assert A2.label == "a2"
    assert A3.label == "a3"
    assert fs_quantity(1.0).label == "fs@1"
    assert fs_quantity(0.5).label == "fs@0.5"


def test_quantity_validation():
    with pytest.raises(ValueError):
        Quantity("a4", None)
    with pytest.raises(ValueError):
        Quantity("fs", None)          # fs needs an eta
    with pytest.raises(ValueError):
        Quantity("a2", 1.0)           # coefficient quantities take none
    for eta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="eta must be finite"):
            Quantity("fs", eta)


def test_solve_member_extreme_point():
    # c2 = 1, d2 = -1 kills a2 and puts a3 on the flat Fekete-Szego branch
    sol = solve_member_coeffs(1.0, -1.0, 1, P0)
    assert sol.status == "ok"
    assert sol.a2 == 0.0
    assert sol.a3 == pytest.approx(0.4, abs=1e-15)
    assert sol.c1 == 0.0


def test_solve_member_matches_membership_check():
    sol = solve_member_coeffs(0.3 + 0.1j, 0.2, 1, P0, mode=FULL_SYSTEM)
    assert sol.status == "ok"
    pair = membership_feasibility(sol.a2, sol.a3, P0)
    assert pair.admissible
    assert pair.c1 == pytest.approx(sol.c1, abs=1e-12)


def test_solve_member_sign_symmetry():
    plus = solve_member_coeffs(0.4, 0.1, 1, P0)
    minus = solve_member_coeffs(0.4, 0.1, -1, P0)
    assert plus.a2 == pytest.approx(-minus.a2, abs=1e-15)
    assert abs(plus.a3) == pytest.approx(abs(minus.a3), abs=1e-15)


def test_solve_member_validation():
    with pytest.raises(ValueError, match="sign"):
        solve_member_coeffs(0.5, 0.5, 2, P0)
    with pytest.raises(ValueError, match="unit disk"):
        solve_member_coeffs(1.5, 0.0, 1, P0)
    with pytest.raises(ValueError, match="mode"):
        solve_member_coeffs(0.5, 0.5, 1, P0, mode="bogus")


def test_solve_member_singular_statuses():
    assert solve_member_coeffs(1.0, 0.5, 1, P_SING).status == "singular"
    assert solve_member_coeffs(1.0, -1.0, 1, P_SING).status == "free"
    pinned = solve_member_coeffs(1.0, -1.0, 1, P_SING, a2=0.3)
    assert pinned.status == "ok"
    assert pinned.a2 == 0.3


def test_proof_set_a2_within_and_near_bound():
    res = empirical_sup(A2, P0, FAST)
    assert res.verdict == WITHIN_BOUND
    assert res.closed_form_bound == bound_a2(P0)
    # extremes are injected, so the sup reaches the bound up to rounding
    assert res.sup_value == pytest.approx(res.closed_form_bound, abs=1e-12)
    assert res.sup_value <= res.closed_form_bound + 1e-9


def test_proof_set_a3_within():
    res = empirical_sup(A3, P0, FAST)
    assert res.verdict == WITHIN_BOUND
    assert res.closed_form_bound == bound_a3(P0)
    assert res.sup_value <= res.closed_form_bound + 1e-9


def test_proof_set_fs_flat_bit_exact():
    res = empirical_sup(fs_quantity(1.0), P0, FAST)
    assert res.verdict == WITHIN_BOUND
    assert res.sup_value == res.closed_form_bound


def test_full_system_dominated_by_proof_set():
    for q in (A2, A3, fs_quantity(0.0), fs_quantity(2.0)):
        full = empirical_sup(q, P0, OracleConfig(mode=FULL_SYSTEM, n_samples=400, seed=5))
        proof = empirical_sup(q, P0, FAST)
        assert full.sup_value <= proof.sup_value + 1e-9


def test_full_system_a2_hits_schwarz_cap():
    cfg = OracleConfig(mode=FULL_SYSTEM, n_samples=3000, seed=5)
    res = empirical_sup(A2, P0, cfg)
    assert res.verdict == WITHIN_BOUND
    assert res.sup_value == pytest.approx(0.6, abs=1e-3)
    assert res.n_infeasible > 0


def test_full_system_witness_is_consistent():
    cfg = OracleConfig(mode=FULL_SYSTEM, n_samples=1000, seed=5)
    res = empirical_sup(A3, P0, cfg)
    w = res.witness
    assert w is not None
    assert w.schwarz.admissible
    pair = membership_feasibility(w.a2, w.a3, P0)
    assert pair.admissible


def test_determinism_bit_identical():
    a = empirical_sup(A2, P0, FAST)
    b = empirical_sup(A2, P0, FAST)
    assert a.sup_value == b.sup_value
    assert a.witness.schwarz == b.witness.schwarz
    # in full-system mode the sup comes from random search, so the seed
    # actually matters; same seed must still agree bit for bit
    full_cfg = OracleConfig(mode=FULL_SYSTEM, n_samples=400, seed=5)
    c = empirical_sup(A2, P0, full_cfg)
    d = empirical_sup(A2, P0, full_cfg)
    assert c.sup_value == d.sup_value


def test_refinement_never_hurts():
    coarse = empirical_sup(A2, P0, OracleConfig(n_samples=400, seed=5, grid_refine=False))
    refined = empirical_sup(A2, P0, FAST)
    assert refined.sup_value >= coarse.sup_value
    assert refined.n_samples > coarse.n_samples


def test_singular_point_proof_a2_skipped():
    res = empirical_sup(A2, P_SING, FAST)
    assert res.verdict == SKIPPED
    assert math.isinf(res.closed_form_bound)
    assert math.isinf(res.sup_value)
    assert res.witness is None


def test_singular_point_proof_a3_still_checked():
    res = empirical_sup(A3, P_SING, FAST)
    assert res.verdict == WITHIN_BOUND
    assert math.isfinite(res.sup_value)


def test_singular_point_full_system_sweeps_free_a2():
    # |a2| is capped by |c1| <= 1 even where the theorem denominator dies;
    # the closed form is unbounded so the verdict stays "skipped", but the
    # sweep must reach the cap u1 / lin
    cfg = OracleConfig(mode=FULL_SYSTEM, n_samples=2000, seed=5)
    res = empirical_sup(A2, P_SING, cfg)
    assert res.verdict == SKIPPED
    cap = 2.0 * P_SING.t / P_SING.op_linear_factor        # U1(t) / lin
    assert res.sup_value == pytest.approx(cap, rel=1e-6)


def test_empirical_sup_validation():
    with pytest.raises(ValueError, match="samples"):
        empirical_sup(A2, P0, OracleConfig(n_samples=0))
    with pytest.raises(ValueError, match="mode"):
        empirical_sup(A2, P0, OracleConfig(mode="bogus"))


def test_sweep_verify_shape_and_soundness():
    grid = [P0, ClassParams(2.0, 1.0, 0.5, 0.8)]
    results = sweep_verify(grid, [0.0, 1.0], FAST)
    assert len(results) == len(grid) * 4
    assert not violations(results)
    labels = {r.quantity.label for r in results}
    assert labels == {"a2", "a3", "fs@0", "fs@1"}


def test_sweep_verify_rejects_empty_grid():
    with pytest.raises(ValueError, match="empty"):
        sweep_verify([], [1.0], FAST)


def test_violation_classification_is_reachable():
    # hand-build a result check: verdicts depend only on sup vs bound
    res = empirical_sup(A2, P0, FAST)
    assert res.verdict in (WITHIN_BOUND, VIOLATION, SKIPPED)
    assert res.verdict == WITHIN_BOUND
