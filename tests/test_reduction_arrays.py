"""The printed corollaries have one formula path: a point and a whole grid
give the same bits, and ``reduction_check`` compares each slice in one
array pass."""

import numpy as np
import pytest

from chebbounds.bounds import closed_form
from chebbounds.classop import ClassParams
from chebbounds.reductions import (
    _SLICES,
    REDUCTION_TOL,
    ReductionResult,
    _deviation,
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
            got = {key: float(value) for key, value in formula(*p, eta).items()}
            assert got.keys() == rows.keys()
            for key, value in got.items():
                assert value.hex() == float(rows[key][i]).hex(), (cid, p, eta, key)


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


def point_reference(cid, grid):
    """The check over the slice's points, one ClassParams each, crossed
    with its eta axis."""
    formula, *_, eta_axis = _SLICES[cid]
    etas = eta_axis or [None]
    cols = columns(grid)
    cf = closed_form(*cols, eta_axis or ())
    general = [{"fs": fs.bound} for fs in cf.fs] or [{"a2": cf.a2, "a3": cf.a3}]
    worst = float(np.max([_deviation(special, side[key]) for eta, side in zip(etas, general)
                          for key, special in formula(*cols, eta).items()]))
    return ReductionResult(cid, len(grid) * len(etas), worst, worst <= REDUCTION_TOL)


@pytest.mark.parametrize("cid", corollary_ids())
def test_default_grid_runs_on_axis_columns(monkeypatch, cid):
    grid = reduction_grid(cid)[0]
    expected = point_reference(cid, grid)
    built = []
    new = ClassParams.__new__
    monkeypatch.setattr(ClassParams, "__new__",
                        lambda cls, *a: built.append(new(cls, *a)) or built[-1])
    assert reduction_check(cid) == expected
    # at most one ClassParams per axis value, and fewer than one per grid point
    assert len(built) <= sum(len(axis) for axis in _SLICES[cid][1:5])
    assert len(built) < len(grid)
