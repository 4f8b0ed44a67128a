"""The printed corollaries have one formula path: a point and a whole grid
give the same bits, and ``reduction_check`` compares each slice in one
array pass."""

import numpy as np
import pytest

from chebbounds.classop import ClassParams
from chebbounds.reductions import (
    _SLICES,
    corollary_bound,
    corollary_ids,
    reduction_check,
)
from reduction_grids import reduction_grid


def columns(grid):
    return [np.array([getattr(p, name) for p in grid]) for name in ("lam", "mu", "delta", "t")]


@pytest.mark.parametrize("cid", corollary_ids())
def test_point_equals_the_array_row(cid):
    formula, *_, eta_axis = _SLICES[cid]
    grid, etas = reduction_grid(cid)
    for eta in etas or eta_axis or [None]:
        rows = formula(*columns(grid), eta)
        for i, p in enumerate(grid):
            got = corollary_bound(cid, p, eta)
            assert got.keys() == rows.keys()
            for key, value in got.items():
                assert value.hex() == float(rows[key][i]).hex(), (cid, p, eta, key)


def test_off_pin_point_in_a_custom_grid_is_rejected():
    with pytest.raises(ValueError, match="corollary 'coef-basic' pins mu = 1, got 0.5"):
        reduction_check("coef-basic", grid=[ClassParams(1.0, 0.5, 0.0, 0.6)])
    # the first off-pin value of a column, wherever it stands in the grid
    grid = reduction_grid("fs-delta-eta1")[0]
    grid = list(grid) + [ClassParams(2.0, 1.5, 0.5, 0.6), ClassParams(2.0, 2.0, 0.5, 0.6)]
    with pytest.raises(ValueError, match="corollary 'fs-delta-eta1' pins mu = 1, got 1.5"):
        reduction_check("fs-delta-eta1", grid=grid)


@pytest.mark.parametrize("cid, key", [("coef-lambda", "a3"), ("fs-lambda", "fs")])
def test_one_wrong_row_fails_the_slice(monkeypatch, cid, key):
    formula, *axes = _SLICES[cid]

    def one_row_off(lam, mu, delta, t, eta):
        out = formula(lam, mu, delta, t, eta)
        return {**out, key: out[key] + np.where(np.arange(len(t)) == 7, 1e-9, 0.0)}

    monkeypatch.setitem(_SLICES, cid, (one_row_off, *axes))
    res = reduction_check(cid)
    assert not res.passed
    assert res.max_deviation == pytest.approx(1e-9, rel=1e-6)


@pytest.mark.parametrize("cid", corollary_ids())
def test_default_grid_runs_on_axis_columns(monkeypatch, cid):
    grid, etas = reduction_grid(cid)
    expected = reduction_check(cid, grid, etas)
    built = []
    new = ClassParams.__new__
    monkeypatch.setattr(ClassParams, "__new__",
                        lambda cls, *a: built.append(new(cls, *a)) or built[-1])
    assert reduction_check(cid) == expected
    # at most one ClassParams per axis value, and fewer than one per grid point
    assert len(built) <= sum(len(axis) for axis in _SLICES[cid][1:5])
    assert len(built) < len(grid)
