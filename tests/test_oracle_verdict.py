"""The oracle's verdict admits the rounding of a large bound.  A sup may
exceed its bound by VERDICT_TOL plus VERDICT_ULPS ulps of the bound: above
a bound of about 4.5e6 one ulp is more than VERDICT_TOL, and an attained
maximum that rounds a few ulps over its bound is no violation.  A bound
short by a relative 1e-12 still is.  No violation anywhere in the domain:
lambda, mu and delta up to PARAM_MAX, t next to 1/2 and 1, |eta| up to
PARAM_MAX, on the singular manifold d = 0 and next to it."""

import math

import numpy as np
import pytest

from chebbounds import cli, oracle
from chebbounds.bounds import closed_form
from chebbounds.classop import PARAM_MAX, ClassParams, param_factors
from chebbounds.oracle import FULL_SYSTEM, PROOF_SET, OracleConfig, sweep_verify, violations

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

MODES = (PROOF_SET, FULL_SYSTEM)


@pytest.mark.parametrize("eta", ["1e7", "1e8"])
def test_verify_passes_at_a_large_eta(eta, capsys):
    assert cli.main(["verify", "--eta", eta]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "241 checked, 2 skipped (unbounded closed form), 0 violations" in out
    assert out.endswith("verify: PASS\n")


def test_a_bound_short_by_1e_12_fails(monkeypatch, capsys):
    # the sup at (1, 0, 0.5, 0.95) attains fs@1e7's bound of 1.9e7 to the ulp
    closed = oracle.closed_form
    monkeypatch.setattr(oracle, "closed_form", lambda *args: closed(*args)._replace(
        fs=tuple(f._replace(bound=f.bound * (1.0 - 1e-12)) for f in closed(*args).fs)))
    assert cli.main(["verify", "--eta", "1e7"]) == cli.EXIT_VERIFY
    assert "violation: fs@1e+07 at lambda=1 mu=0 delta=0.5 t=0.95" in capsys.readouterr().out


def _near_singular(d_over_a: float) -> ClassParams:
    """(2, 0, 0, t) with d / A about ``d_over_a``: A = 4 and d = 4 - 8 t^2."""
    return ClassParams(2.0, 0.0, 0.0, math.sqrt(0.5 - d_over_a / 2.0))


def test_near_singular_points_give_no_violation():
    grid = [_near_singular(sign * r) for r in (1.9e-6, 2.5e-7, 2.5e-9, 2.5e-11, 5e-12)
            for sign in (1.0, -1.0)]
    cf = closed_form(*np.array([(p.lam, p.mu, p.delta, p.t) for p in grid]).T)
    assert not cf.singular.any() and max(abs(cf.d / cf.A)) <= 2e-6
    for mode in MODES:
        for seed in (0, 5):
            results = sweep_verify(grid, [0.0, 1.0, 2.0, -3.0, 1e7, -PARAM_MAX],
                                   OracleConfig(mode, 500, seed))
            assert violations(results) == [], (mode, seed)


def _on_d_zero(lam: float, mu: float, delta: float):
    """The t in (1/2, 1) where d = A - 2 (2A - B) t^2 vanishes, or None."""
    f = param_factors(lam, mu, delta)
    a = f.op_linear_factor * f.op_linear_factor
    slope = 2.0 * (2.0 * a - f.quad_sum_factor)
    t = math.sqrt(a / slope) if slope > 0.0 else 0.0
    return t if 0.5 < t < 1.0 else None


@st.composite
def points(draw) -> ClassParams:
    lam, mu, delta = (draw(st.floats(low, PARAM_MAX)) for low in (1.0, 0.0, 0.0))
    t = draw(st.one_of(st.floats(0.5, 0.5 + 1e-6, exclude_min=True),
                       st.floats(1.0 - 1e-6, 1.0, exclude_max=True),
                       st.floats(0.5, 1.0, exclude_min=True, exclude_max=True)))
    steps = draw(st.none() | st.integers(-4, 4))
    if steps is not None and (on := _on_d_zero(lam, mu, delta)) is not None:
        t = on                           # on d = 0, or a few ulps from it
        for _ in range(abs(steps)):
            t = math.nextafter(t, math.copysign(1.0, steps))
        t = t if 0.5 < t < 1.0 else on
    return ClassParams(lam, mu, delta, t)


@hypothesis.settings(database=None, max_examples=1000, deadline=None)
@hypothesis.given(grid=st.lists(points(), min_size=1, max_size=3),
                  etas=st.lists(st.floats(-PARAM_MAX, PARAM_MAX), max_size=3, unique=True),
                  seed=st.integers(0, 2**32 - 1))
@hypothesis.example(grid=[ClassParams(1.0, 0.0, 0.5, 0.95)], etas=[1e7], seed=1729)
@hypothesis.example(grid=[_near_singular(2.5e-11), ClassParams(2.0, 0.0, 0.0, math.sqrt(0.5))],
                    etas=[1e8, -PARAM_MAX], seed=0)
def test_no_violation_anywhere(grid, etas, seed):
    for mode in MODES:
        results = sweep_verify(grid, etas, OracleConfig(mode, 100, seed))
        assert violations(results) == [], mode
