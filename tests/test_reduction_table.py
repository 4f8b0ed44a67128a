"""The corollary reductions: each slice's pins, default grid and eta rule."""

import math

import pytest

from chebbounds.classop import ClassParams
from chebbounds.reductions import (
    REDUCTION_TOL,
    _deviation,
    corollary_bound,
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
    pins, _, etas = SLICES[cid]
    grid, _ = reduction_grid(cid)
    for p in grid:
        for name, value in pins.items():
            if name != "eta":
                assert getattr(p, FIELDS[name]) == value
    base = grid[-1]
    eta = 0.0 if etas is not None else None
    for name, field in FIELDS.items():
        moved = base._replace(**{field: getattr(base, field) + 0.25})
        if name in pins:
            with pytest.raises(ValueError, match=f"pins {name} = {pins[name]:g}, got "):
                corollary_bound(cid, moved, eta)
        else:
            corollary_bound(cid, moved, eta)
    if "eta" in pins:
        assert corollary_bound(cid, base) == corollary_bound(cid, base, 1.0)
        with pytest.raises(ValueError, match="pins eta = 1, got 2"):
            corollary_bound(cid, base, 2.0)


@pytest.mark.parametrize("cid", list(SLICES))
def test_slice_default_grid(cid):
    _, n_points, etas = SLICES[cid]
    assert reduction_grid(cid)[1] == etas
    res = reduction_check(cid)
    assert res.n_points == n_points
    assert res.passed


def test_reduction_check_rejects_empty_grid():
    with pytest.raises(ValueError, match="empty"):
        reduction_check("coef-basic", grid=[])


@pytest.mark.parametrize("cid, etas, message", [
    ("coef-basic", [1.0], "corollary 'coef-basic' takes no eta"),
    ("fs-eta1", [1.0, 2.0], "corollary 'fs-eta1' pins eta = 1, got 2"),
])
def test_reduction_check_shares_the_eta_rule(cid, etas, message):
    # the same rejections as corollary_bound, not a silent substitution
    with pytest.raises(ValueError, match=message):
        reduction_check(cid, etas=etas)
    with pytest.raises(ValueError, match=message):
        corollary_bound(cid, reduction_grid(cid)[0][0], etas[-1])


def test_reduction_check_eta_values():
    with pytest.raises(ValueError, match="needs eta values to sweep"):
        reduction_check("fs-basic", grid=[ClassParams(1.0, 1.0, 0.0, 0.6)])
    assert reduction_check("fs-eta1", etas=[1.0]).n_points == 81
    assert reduction_check("fs-lambda", etas=[0.0]).n_points == 25


@pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf])
def test_non_finite_eta_is_rejected(eta):
    # a nan or inf eta gives nan or inf on both sides, which would pass vacuously
    p = reduction_grid("fs-basic")[0][0]
    with pytest.raises(ValueError, match=f"eta must be finite, got {eta}"):
        corollary_bound("fs-basic", p, eta)
    for cid in ("fs-basic", "fs-lambda", "fs-eta1"):
        with pytest.raises(ValueError, match=f"eta must be finite, got {eta}"):
            reduction_check(cid, etas=[eta])


@pytest.mark.parametrize("special, general", [
    (math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan), (math.inf, math.nan),
])
def test_nan_deviation_is_a_failure(special, general):
    # reduction_check folds deviations with max, which skips a nan
    assert max(0.0, _deviation(special, general)) > REDUCTION_TOL
