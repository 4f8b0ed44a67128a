"""Full-system |a2| against its exact supremum.

With P = d / (2 t^2) the summed relation gives a2^2 = u1 (c2 + d2) / P, and
|c2 + d2| <= 2; the linear relation caps |c1| = lin |a2| / u1 <= 1.  So

    sup |a2|^2 = min(2 u1 / |P|, u1^2 / A),   A = lin^2,

a reference apart from both the oracle and the closed-form bounds.  The
grid is the full-system benchmark grid, 1125 points of which 3 are
singular and left out.
"""

import math

import numpy as np
import pytest

from chebbounds.bounds import is_singular_denom
from chebbounds.classop import param_points
from chebbounds.oracle import A2, FULL_SYSTEM, OracleConfig, empirical_sup

CFG = OracleConfig(mode=FULL_SYSTEM, n_samples=1000, seed=5)
TIGHTNESS_FLOOR = 1.0 - 1e-3


def exact_sup_a2(p) -> float | None:
    """The exact full-system sup |a2|; None on a singular point."""
    lin, t = p.factors.op_linear_factor, p.t
    a = lin * lin
    d = a - 2.0 * (2.0 * a - p.factors.quad_sum_factor) * t * t
    if is_singular_denom(d, a):
        return None
    u1 = 2.0 * t
    prefactor = d / (2.0 * t * t)
    return math.sqrt(min(2.0 * u1 / abs(prefactor), u1 * u1 / a))


@pytest.fixture(scope="module")
def sups() -> list[tuple[object, float, float]]:
    grid = param_points(np.linspace(1.0, 3.0, 5), np.linspace(0.0, 2.0, 5),
                        np.linspace(0.0, 1.0, 5), np.linspace(0.55, 0.95, 9))
    out = [(p, exact_sup_a2(p)) for p in grid]
    return [(p, empirical_sup(A2, p, CFG).sup_value, ref) for p, ref in out if ref is not None]


def test_oracle_never_exceeds_the_exact_sup(sups):
    assert len(sups) == 1122
    # the two sides round differently; nothing else separates them
    over = [(p, sup, ref) for p, sup, ref in sups if not sup <= ref * (1.0 + 1e-12)]
    assert not over


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: full-system sampling discards infeasible (c2, d2), and "
           "at 1000 samples the oracle falls short at 215 of the 1122 points",
)
def test_oracle_reaches_the_exact_sup(sups):
    loose = [(p, sup / ref) for p, sup, ref in sups if not sup / ref >= TIGHTNESS_FLOOR]
    assert not loose
