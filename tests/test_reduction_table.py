"""The corollary reductions: each slice's pins, default grid and eta rule."""

import math

import pytest

from chebbounds.reductions import (
    _SLICES,
    REDUCTION_TOL,
    _deviation,
    corollary_ids,
    reduction_check,
)
from reduction_grids import reduction_grid

# id -> (pinned values, points reduction_check compares, default eta list)
SLICES = {
    "coef-basic": ({"lambda": 1.0, "mu": 1.0, "delta": 0.0}, 81, None),
    "coef-lambda": ({"mu": 1.0, "delta": 0.0}, 81, None),
    "coef-mu": ({"delta": 0.0}, 125, None),
    "coef-delta": ({"mu": 1.0}, 125, None),
    "fs-eta1": ({"eta": 1.0}, 81, None),
    "fs-basic": ({"lambda": 1.0, "mu": 1.0, "delta": 0.0}, 81,
                 [-2.0, -1.25, -0.5, 0.25, 1.0, 1.75, 2.5, 3.25, 4.0]),
    "fs-basic-eta1": ({"lambda": 1.0, "mu": 1.0, "delta": 0.0, "eta": 1.0}, 81, None),
    "fs-lambda": ({"mu": 1.0, "delta": 0.0}, 125, [-2.0, 0.0, 1.0, 2.0, 4.0]),
    "fs-lambda-eta1": ({"mu": 1.0, "delta": 0.0, "eta": 1.0}, 81, None),
    "fs-mu": ({"delta": 0.0}, 81, [0.0, 1.0, 3.0]),
    "fs-delta": ({"mu": 1.0}, 81, [0.0, 1.0, 3.0]),
    "fs-delta-eta1": ({"mu": 1.0, "eta": 1.0}, 125, None),
}
FIELDS = {"lambda": "lam", "mu": "mu", "delta": "delta"}


def test_slice_ids():
    assert corollary_ids() == list(SLICES)
    assert sum(n for _, n, _ in SLICES.values()) == 1148


@pytest.mark.parametrize("cid", list(SLICES))
def test_slice_pins(cid):
    # a pin is a one-value axis: every point the check runs on holds it
    pins, _, _ = SLICES[cid]
    grid, _ = reduction_grid(cid)
    for p in grid:
        for name, value in pins.items():
            if name != "eta":
                assert getattr(p, FIELDS[name]) == value
    axes = dict(zip(["lambda", "mu", "delta"], _SLICES[cid][1:4]))
    for name, axis in axes.items():
        assert (len(axis) == 1) == (name in pins)
    if "eta" in pins:
        assert _SLICES[cid][-1] == [1.0]


@pytest.mark.parametrize("cid", list(SLICES))
def test_slice_default_grid(cid):
    _, n_points, etas = SLICES[cid]
    assert reduction_grid(cid)[1] == etas
    res = reduction_check(cid)
    assert res.n_points == n_points
    assert res.passed


def test_reduction_check_eta_values(monkeypatch):
    # an eta-pinned slice runs at its pin, a free one at each eta of its axis
    for cid, eta in [("fs-eta1", 1.0), ("fs-lambda", 0.0), ("fs-lambda", 4.0)]:
        formula, *axes = _SLICES[cid]

        def off_at_eta(lam, mu, delta, t, at, formula=formula, eta=eta):
            out = formula(lam, mu, delta, t, at)
            return {"fs": out["fs"] + 1e-9} if at == eta else out

        with monkeypatch.context() as patch:
            patch.setitem(_SLICES, cid, (off_at_eta, *axes))
            assert not reduction_check(cid).passed


@pytest.mark.parametrize("special, general", [
    (math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan), (math.inf, math.nan),
])
def test_nan_deviation_is_a_failure(special, general):
    # reduction_check folds deviations with max, which skips a nan
    assert max(0.0, _deviation(special, general)) > REDUCTION_TOL
