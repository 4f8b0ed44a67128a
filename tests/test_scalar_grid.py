"""The one-point bound functions equal a row of the array closed form bit
for bit, over the whole parameter domain: t next to 1/2 and 1, lambda,
mu and delta up to PARAM_MAX and |eta| up to the same limit."""

import math

import numpy as np
import pytest

from chebbounds.bounds import AS_PRINTED, CORRECTED, bound_report, closed_form, fekete_szego_bound
from chebbounds.classop import PARAM_MAX, ClassParams

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

T_LOW = math.nextafter(0.5, 1.0)
T_HIGH = math.nextafter(1.0, 0.0)

points = st.tuples(
    st.floats(1.0, PARAM_MAX),
    st.floats(0.0, PARAM_MAX),
    st.floats(0.0, PARAM_MAX),
    st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
)
# the whole accepted eta range, |eta| <= PARAM_MAX (classop.check_eta)
etas = st.floats(-PARAM_MAX, PARAM_MAX)


def bits(x) -> str:
    return float(x).hex()


@hypothesis.settings(database=None, max_examples=200, deadline=None)
@hypothesis.given(
    st.lists(points, min_size=1, max_size=6),
    st.lists(etas, min_size=1, max_size=3),
    st.sampled_from([CORRECTED, AS_PRINTED]),
)
@hypothesis.example([(1.0, 0.0, 0.0, T_LOW), (PARAM_MAX, PARAM_MAX, PARAM_MAX, T_HIGH),
                     (2.0, 0.0, 0.0, math.sqrt(0.5))], [1.0, 0.0, 2.0], CORRECTED)
@hypothesis.example([(PARAM_MAX, 0.0, PARAM_MAX, T_LOW), (1.0, PARAM_MAX, 0.0, T_HIGH)],
                    [-1e290, 1e290], AS_PRINTED)
@hypothesis.example([(1.0, 0.0, 0.0, 0.875), (1.0, 0.0, 0.0, T_LOW)],
                    [-PARAM_MAX, PARAM_MAX], CORRECTED)
def test_scalar_path_equals_grid_row(grid, eta_list, variant):
    lam, mu, delta, t = (np.array(axis) for axis in zip(*grid))
    cf = closed_form(lam, mu, delta, t, eta_list, variant)
    for i, point in enumerate(grid):
        p = ClassParams(*point)
        rep = bound_report(p)
        assert [bits(rep.a2_bound), bits(rep.a3_bound), bits(rep.A), bits(rep.B),
                bits(rep.denom), rep.singular] == [
            bits(cf.a2[i]), bits(cf.a3[i]), bits(cf.A[i]), bits(cf.factors.quad_sum_factor[i]),
            bits(abs(cf.d[i])), bool(cf.singular[i])]
        for eta, fs in zip(eta_list, cf.fs):
            fr = fekete_szego_bound(p, eta, variant)
            assert [bits(fr.bound), fr.branch == "flat", bits(fr.threshold_m)] == [
                bits(fs.bound[i]), bool(fs.flat[i]), bits(fs.threshold_m[i])]
            # an accepted eta keeps both branches finite on a regular point
            if abs(eta) <= PARAM_MAX and not rep.singular:
                assert math.isfinite(fr.bound)
