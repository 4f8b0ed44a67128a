"""classop.param_axes checks its axes as arrays: it fails exactly where a
per-point loop over ClassParams fails, with the same message, and a long
axis builds no ClassParams per value.  param_points keeps the grid as
columns and builds each point's ClassParams only when it is read."""

import itertools
import math

import numpy as np
import pytest

from chebbounds import classop
from chebbounds.classop import PARAM_MAX, ClassParams, param_axes

GOOD = ([1.0, 2.0, 3.0, PARAM_MAX], [0.0, -0.0, 1.5], [0.0, 0.25, 1.0, 2.0, PARAM_MAX],
        [0.55, 0.5000000000000001, 0.9999999999999999])
# per axis, values that ClassParams rejects
BAD = ([0.5, 1.0 - 1e-16, -1.0, 2e75, math.inf, -math.inf, math.nan],
       [-1e-300, -1.0, 1.1e75, math.inf, math.nan],
       [-1e-300, -2.0, 2e75, -math.inf, math.nan],
       [0.5, 1.0, 0.25, 1.5, -0.7, math.inf, math.nan])


def loop_error(axes) -> str | None:
    """The error of the per-point check: one ClassParams per index of the
    longest axis, each axis read at that index modulo its length."""
    try:
        for i in range(max(len(axis) for axis in axes)):
            ClassParams(*(float(axis[i % len(axis)]) for axis in axes))
    except ValueError as exc:
        return str(exc)
    return None


def cases():
    """Axes of 1-4 values with 1-3 bad values put at random axes and positions."""
    rng = np.random.default_rng(24)
    for _ in range(300):
        axes = [list(rng.choice(good, rng.integers(1, 5))) for good in GOOD]
        for _ in range(rng.integers(1, 4)):
            j = int(rng.integers(4))
            axes[j][int(rng.integers(len(axes[j])))] = float(rng.choice(BAD[j]))
        yield axes


def test_bad_values_give_the_per_point_error():
    for axes in cases():
        want = loop_error(axes)
        assert want is not None
        with pytest.raises(ValueError) as exc:
            param_axes(*axes)
        assert str(exc.value) == want, axes


def test_valid_axes_pass_unchanged():
    axes = param_axes(*GOOD)
    assert loop_error(GOOD) is None
    assert [a.tolist() for a in axes] == [[v + 0.0 for v in good] for good in GOOD]
    assert math.copysign(1.0, axes[1][1]) == 1.0     # -0.0 is 0.0


def test_a_long_axis_builds_no_params_per_value(monkeypatch):
    built = []
    monkeypatch.setattr(classop, "ClassParams", lambda *p: built.append(p) or ClassParams(*p))
    t = np.linspace(0.55, 0.95, 1_000_000)
    assert param_axes([1.0], [0.0], [0.0], t)[3].size == t.size
    assert built == []
    t[-1] = 1.0
    with pytest.raises(ValueError, match=r"t must lie in the open interval \(1/2, 1\), got 1.0"):
        param_axes([1.0], [0.0], [0.0], t)
    assert built == [(1.0, 0.0, 0.0, 1.0)]


def test_points_are_built_as_they_are_read(monkeypatch):
    built = []
    monkeypatch.setattr(classop, "ClassParams", lambda *p: built.append(p) or ClassParams(*p))
    grid = classop.param_points(*GOOD)
    assert built == []
    # the points of a per-point loop, in order, bit for bit
    loop = [ClassParams(*point) for point in itertools.product(*GOOD)]
    assert len(grid) == len(loop) == 4 * 3 * 5 * 3
    assert [[v.hex() for v in p] for p in grid] == [[v.hex() for v in p] for p in loop]
    assert len(built) == len(loop)
    assert (grid[-1], grid[1:4], grid[::60]) == (loop[-1], loop[1:4], loop[::60])
    with pytest.raises(IndexError):
        grid[len(loop)]
    # np.asarray reads the rows, read-only, as it reads a list of ClassParams
    rows = np.asarray(grid, dtype=float)
    assert rows.tolist() == np.asarray(loop, dtype=float).tolist()
    assert not rows.flags.writeable
    assert len(built) == len(loop) + 1 + 3 + 3
