"""closed_form hands on the parameter factors it built its bounds from."""

import numpy as np
import pytest

from chebbounds.bounds import AS_PRINTED, CORRECTED, closed_form
from chebbounds.classop import ParamFactors, param_factors


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).ravel().tolist()


def _columns():
    rng = np.random.default_rng(13)
    lam, mu, delta = 1.0 + 3.0 * rng.random(200), 3.0 * rng.random(200), 2.0 * rng.random(200)
    t = 0.501 + 0.498 * rng.random(200)
    return lam, mu, delta, t


@pytest.mark.parametrize("variant", [CORRECTED, AS_PRINTED])
def test_factors_equal_param_factors_for_arrays(variant):
    lam, mu, delta, t = _columns()
    got = closed_form(lam, mu, delta, t, (0.0, 2.0), variant).factors
    want = param_factors(lam, mu, delta)
    assert isinstance(got, ParamFactors)
    for name in ParamFactors._fields:
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name


@pytest.mark.parametrize("point", [(1.0, 1.0, 0.0, 0.6), (2.0, 0.0, 0.0, 0.5 ** 0.5),
                                   (2.5, 1.5, 0.75, 0.9), (1e75, 1e75, 1e75, 0.55)])
def test_factors_equal_param_factors_for_floats(point):
    lam, mu, delta, t = point
    got = closed_form(lam, mu, delta, t).factors
    want = param_factors(lam, mu, delta)
    for name in ParamFactors._fields:
        assert isinstance(getattr(got, name), float), name
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
