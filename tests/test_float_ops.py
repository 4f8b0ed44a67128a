"""The kernel's float namespace gives numpy's results bit for bit.

``bounds_from_denominator`` runs on ``_FloatOps`` for Python floats and on
numpy for arrays, so each call of the namespace must agree with numpy's on
every IEEE class of input: signed zeros, infinities, nan, subnormals and
ordinary values.  Each nan compares equal to any nan; every other result
compares by its bits, so the sign of a zero or an infinity counts.
"""

import itertools
import math

import numpy as np
import pytest

from chebbounds.bounds import _FloatOps, closed_form

VALUES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
          2.2250738585072014e-308 / 3.0, 1.0, -2.5, 0.6, 1e300, -1e-300, 4.0]
PAIRS = list(itertools.product(VALUES, VALUES))


def same(x, y) -> bool:
    return (math.isnan(x) and math.isnan(y)) or float(x).hex() == float(y).hex()


def numpy_results(name, *columns):
    with np.errstate(all="ignore"):
        return getattr(np, name)(*(np.array(column) for column in columns)).tolist()


@pytest.mark.parametrize("name", ["divide", "maximum"])
def test_binary_calls_match_numpy(name):
    a, b = zip(*PAIRS)
    mismatched = [(x, y, got, want) for x, y, want in zip(a, b, numpy_results(name, a, b))
                  if not same(got := getattr(_FloatOps, name)(x, y), want)]
    assert mismatched == []


def test_sqrt_matches_numpy():
    mismatched = [(x, got, want) for x, want in zip(VALUES, numpy_results("sqrt", VALUES))
                  if not same(got := _FloatOps.sqrt(x), want)]
    assert mismatched == []


@pytest.mark.parametrize("cond", [True, False])
def test_where_matches_numpy(cond):
    a, b = zip(*PAIRS)
    want = np.where(cond, np.array(a), np.array(b)).tolist()
    assert all(same(_FloatOps.where(cond, x, y), w) for x, y, w in zip(a, b, want))


def test_errstate_is_a_null_context():
    with _FloatOps.errstate(divide="ignore", invalid="ignore") as state:
        assert state is None


def test_floats_in_give_python_floats_out():
    # a singular point: every quotient by d is taken at d = 0
    cf = closed_form(2.0, 0.0, 0.0, math.sqrt(0.5), (0.0, 1.0, 3.0))
    values = [cf.a2, cf.a3, *(getattr(fs, key) for fs in cf.fs
                              for key in ("bound", "threshold_m"))]
    assert all(type(value) is float for value in values)
    assert cf.singular is True and cf.a2 == math.inf
