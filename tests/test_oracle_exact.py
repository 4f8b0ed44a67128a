"""Full-system |a2|, |a3| and |a3 - eta a2^2| against their exact suprema.

With P = d / (2 t^2) and s = c2 + d2 the summed relation gives a2^2 = u1 s / P,
and r = a3 - a2^2 = u1 (c2 - d2) / (2F); the linear relation caps |c1| =
lin |a2| / u1 <= 1, that is |s| <= R = min(2, |d| / (t A)).  Rotating c2 and
d2 by one phase and taking real parts leaves a linear program over the square
[-1, 1]^2 cut by |s| <= R, maximal at a vertex, so

    sup |a2|^2            = min(2 u1 / |P|, u1^2 / A),              A = lin^2,
    sup |a3 - eta a2^2|   = 2t/F + R max(0, 4 |1 - eta| t^3 / |d| - t/F),

with |a3| at eta = 0: a reference apart from both the oracle and the
closed-form bounds.  The grid is the full-system benchmark grid, 1125 points
of which 3 are singular and left out.  The oracle injects the maximizing
vertices, so it meets the reference up to rounding at any sample count.
"""

import math

import numpy as np
import pytest

from chebbounds.bounds import is_singular_denom
from chebbounds.classop import param_points
from chebbounds.oracle import FULL_SYSTEM, OracleConfig, sweep_verify

ETAS = [0.0, 1.0, 2.0, 2.5, -3.0]
TIGHTNESS_FLOOR = 1.0 - 1e-12


def exact_sups(p) -> list[float] | None:
    """The exact full-system sups of |a2|, |a3| and fs at each of ETAS; None
    on a singular point."""
    lin, t, f = p.factors.op_linear_factor, p.t, p.factors.fs_flat_denom
    a = lin * lin
    d = a - 2.0 * (2.0 * a - p.factors.quad_sum_factor) * t * t
    if is_singular_denom(d, a):
        return None
    u1 = 2.0 * t
    prefactor = d / (2.0 * t * t)
    reach = min(2.0, abs(d) / (t * a))
    fs = [2.0 * t / f + reach * max(0.0, 4.0 * abs(1.0 - eta) * t * t * t / abs(d) - t / f)
          for eta in [0.0] + ETAS]
    return [math.sqrt(min(2.0 * u1 / abs(prefactor), u1 * u1 / a))] + fs


@pytest.fixture(scope="module")
def ratios() -> np.ndarray:
    """sup / exact per regular point (rows) and quantity (columns), at 1 and at
    1000 samples (the two row blocks)."""
    grid = param_points(np.linspace(1.0, 3.0, 5), np.linspace(0.0, 2.0, 5),
                        np.linspace(0.0, 1.0, 5), np.linspace(0.55, 0.95, 9))
    exact = [exact_sups(p) for p in grid]
    width = 2 + len(ETAS)
    rows = []
    for n_samples in (1, 1000):
        results = sweep_verify(grid, ETAS, OracleConfig(FULL_SYSTEM, n_samples, seed=5))
        assert all(r.n_infeasible == 0 for r in results)
        rows += [np.divide([r.sup_value for r in results[width * i:width * (i + 1)]], ref)
                 for i, ref in enumerate(exact) if ref is not None]
    return np.array(rows)


def test_oracle_never_exceeds_the_exact_sup(ratios):
    assert ratios.shape == (2 * 1122, 2 + len(ETAS))
    # the two sides round differently; nothing else separates them
    assert np.all(ratios <= 1.0 + 1e-12), ratios.max()


def test_oracle_reaches_the_exact_sup(ratios):
    assert np.all(ratios >= TIGHTNESS_FLOOR), ratios.min()
