"""Every oracle search case: witnesses reproduce their sup, and the sample
accounting of a small seeded sweep stays fixed."""

import math
from collections import Counter

import pytest

from chebbounds.classop import ClassParams, membership_feasibility
from chebbounds.oracle import (
    A2,
    A3,
    FULL_SYSTEM,
    PROOF_SET,
    OracleConfig,
    empirical_sup,
    fs_quantity,
    sweep_verify,
)

P0 = ClassParams(1.0, 1.0, 0.0, 0.6)
P_SING = ClassParams(2.0, 0.0, 0.0, math.sqrt(0.5))
P_MIXED = ClassParams(2.0, 1.0, 0.5, 0.8)
QUANTITIES = [A2, A3] + [fs_quantity(eta) for eta in (0.0, 1.0, 2.5)]


def value_at(quantity, a2, a3):
    """The quantity evaluated on coefficients (a2, a3)."""
    if quantity.kind == "a2":
        return abs(a2)
    if quantity.kind == "a3":
        return abs(a3)
    return abs(a3 - quantity.eta * a2 * a2)


@pytest.mark.parametrize("mode", [PROOF_SET, FULL_SYSTEM])
@pytest.mark.parametrize("quantity", QUANTITIES, ids=lambda q: q.label)
@pytest.mark.parametrize("p", [P0, P_SING, P_MIXED], ids=["P0", "P_SING", "P_MIXED"])
def test_witness_reproduces_sup(p, quantity, mode):
    res = empirical_sup(quantity, p, OracleConfig(mode=mode, n_samples=500, seed=7))
    if math.isinf(res.sup_value):
        # no finite constraint: the case is skipped without a search
        assert res.witness is None
        assert res.n_samples == 0
        return
    w = res.witness
    assert w is not None
    assert value_at(quantity, w.a2, w.a3) == pytest.approx(res.sup_value, rel=1e-12, abs=1e-12)
    if mode == FULL_SYSTEM:
        # all four relations hold there, so (a2, a3) imply the Schwarz data
        got, want = w.schwarz, membership_feasibility(w.a2, w.a3, p)
        assert [got.c1, got.c2, got.d1, got.d2] == pytest.approx(
            [want.c1, want.c2, want.d1, want.d2], abs=1e-9
        )


# totals of a seeded sweep over a grid with a singular point; a different
# case or column set for any (point, quantity) changes them
ACCOUNTING_GRID = [P0, P_SING, P_MIXED, ClassParams(1.5, 0.5, 0.2, 0.9)]
ACCOUNTING = {
    PROOF_SET: (7925, 0, {"skipped": 3, "within-bound": 17}),
    FULL_SYSTEM: (6620, 0, {"skipped": 3, "within-bound": 17}),
}


@pytest.mark.parametrize("mode", [PROOF_SET, FULL_SYSTEM])
def test_sample_accounting_is_pinned(mode):
    cfg = OracleConfig(mode=mode, n_samples=300, seed=11)
    results = sweep_verify(ACCOUNTING_GRID, [0.0, 1.0, 2.5], cfg)
    n_samples, n_infeasible, verdicts = ACCOUNTING[mode]
    assert sum(r.n_samples for r in results) == n_samples
    assert sum(r.n_infeasible for r in results) == n_infeasible
    assert dict(Counter(r.verdict for r in results)) == verdicts
