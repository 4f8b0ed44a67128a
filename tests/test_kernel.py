"""The one-point bound functions and the array kernel agree bit for bit."""

import math

import numpy as np
import pytest

from chebbounds.bounds import (
    AS_PRINTED,
    CORRECTED,
    FLAT,
    SLOPED,
    bound_a2,
    bound_a3,
    bound_report,
    closed_form,
    fekete_szego_bound,
)
from chebbounds.classop import ClassParams


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def _points() -> list[ClassParams]:
    rng = np.random.default_rng(20181109)
    pts = []
    for _ in range(300):
        lam, mu, delta = 1.0 + 3.0 * rng.random(), 3.0 * rng.random(), 2.0 * rng.random()
        t = 0.5 + 0.5 * rng.random()
        # the pinned slices of the printed corollaries
        if rng.random() < 0.2:
            lam = 1.0
        if rng.random() < 0.2:
            mu = 0.0
        if rng.random() < 0.2:
            delta = 0.0
        pts.append(ClassParams(lam, mu, delta, min(max(t, 0.501), 0.999)))
    pts.append(ClassParams(2.0, 0.0, 0.0, math.sqrt(0.5)))       # d == 0 exactly
    pts.append(ClassParams(1.0, 1.0, 0.0, 0.6))
    return pts


POINTS = _points()


def _columns():
    return [np.array([getattr(p, name) for p in POINTS]) for name in ("lam", "mu", "delta", "t")]


def test_point_set_covers_slices_and_singular_point():
    assert any(p.lam == 1.0 for p in POINTS)
    assert any(p.mu == 0.0 for p in POINTS)
    assert any(p.delta == 0.0 for p in POINTS)
    assert closed_form(*_columns()).singular.sum() >= 1


def test_coefficient_bounds_bit_identical():
    cf = closed_form(*_columns())
    reports = [bound_report(p) for p in POINTS]
    assert _bits(cf.a2) == _bits([bound_a2(p) for p in POINTS])
    assert _bits(cf.a3) == _bits([bound_a3(p) for p in POINTS])
    assert _bits(cf.a2) == _bits([r.a2_bound for r in reports])
    assert _bits(cf.a3) == _bits([r.a3_bound for r in reports])
    assert _bits(cf.A) == _bits([r.A for r in reports])
    assert _bits(cf.factors.quad_sum_factor) == _bits([r.B for r in reports])
    assert _bits(np.abs(cf.d)) == _bits([r.denom for r in reports])
    assert cf.singular.tolist() == [r.singular for r in reports]


@pytest.mark.parametrize("variant", [CORRECTED, AS_PRINTED])
def test_fekete_szego_bit_identical(variant):
    cols = _columns()
    m = closed_form(*cols, (1.0,), variant).fs[0].threshold_m
    etas = {
        "one": 1.0,
        "flat": 1.0 + 0.5 * m,
        "left": 1.0 - 2.0 * m - 0.25,
        "right": 1.0 + 2.0 * m + 0.25,
        "at 1 + M": 1.0 + m,
        "at 1 - M": 1.0 - m,
    }
    cf = closed_form(*cols, tuple(etas.values()), variant)
    branches = set()
    for (name, eta), fs in zip(etas.items(), cf.fs):
        eta_i = np.broadcast_to(eta, m.shape).tolist()
        reports = [fekete_szego_bound(p, e, variant) for p, e in zip(POINTS, eta_i)]
        assert _bits(fs.bound) == _bits([r.bound for r in reports]), name
        assert _bits(fs.threshold_m) == _bits([r.threshold_m for r in reports]), name
        got = [FLAT if flat else SLOPED for flat in fs.flat.tolist()]
        assert got == [r.branch for r in reports], name
        branches |= {(name, b) for b in got}
    for name in ("one", "flat"):
        assert (name, FLAT) in branches
    for name in ("left", "right"):
        assert (name, SLOPED) in branches
