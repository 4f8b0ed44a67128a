"""The full-system sups equal their exact values over the whole domain, not
only on the benchmark grid of test_oracle_exact: lambda, mu and delta up to
PARAM_MAX, t next to 1/2, next to 1 and within a relative 1e-15 to 1e-5 of
the zero of d, |eta| up to PARAM_MAX.  The capped rule's injected vertices
attain the exact supremum everywhere, so the search needs no random sample."""

import math

import pytest

import test_oracle_exact
from chebbounds.classop import PARAM_MAX, ClassParams
from chebbounds.oracle import FULL_SYSTEM, OracleConfig, sweep_verify
from test_oracle_exact import exact_sups
from test_oracle_verdict import _on_d_zero

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from test_oracle_prune import T  # noqa: E402  (needs hypothesis)


@st.composite
def points(draw) -> ClassParams:
    lam, mu, delta = (draw(st.floats(low, PARAM_MAX)) for low in (1.0, 0.0, 0.0))
    t = draw(T)
    near = draw(st.none() | st.floats(1e-15, 1e-5) | st.floats(-1e-5, -1e-15))
    if near is not None and (on := _on_d_zero(lam, mu, delta)) is not None:
        t = on * (1.0 + near)
        t = t if 0.5 < t < 1.0 else on
    return ClassParams(lam, mu, delta, t)


@hypothesis.settings(database=None, max_examples=600, deadline=None)
@hypothesis.given(p=points(), eta=st.floats(-PARAM_MAX, PARAM_MAX))
# R = 2, where d is large against t A, and R small, next to d = 0
@hypothesis.example(p=ClassParams(100.0, 0.0, 0.0, 0.95), eta=-3.0)
@hypothesis.example(p=ClassParams(2.0, 0.0, 0.0, math.sqrt(0.5) * (1.0 + 1e-9)), eta=2.0)
def test_full_system_sup_is_exact_anywhere(p, eta):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(test_oracle_exact, "ETAS", [eta])
        exact = exact_sups(p)
    hypothesis.assume(exact is not None)           # a singular point: the free rule
    results = sweep_verify([p], [eta], OracleConfig(FULL_SYSTEM, 1, seed=0))
    # |a2|, then |a3| (fs at 0) and fs at eta
    for res, ref in zip(results, exact, strict=True):
        assert abs(res.sup_value - ref) <= 1e-12 * ref, (res.quantity, res.sup_value, ref)
