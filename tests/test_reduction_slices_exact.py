"""Exact proof of the reduction slices.  Each slice of ``reductions`` spells
out its own d, scale A and flat denominator; at its pins (mu = 1 and
delta = 0 for lambda, delta = 0 for mu, mu = 1 for delta) each must equal
the theorem's, from ``bounds._theorem_factors``, as a polynomial identity in
the free parameters and t.  So a slice reduces to the theorem exactly, not
only on the 1148 points that ``verify`` compares."""

import pytest

sp = pytest.importorskip("sympy")

from chebbounds import bounds, reductions  # noqa: E402

LAM, MU, DELTA, T = sp.symbols("lam mu delta t", positive=True)

# slice -> its pins
PINS = {
    "lambda": (reductions._slice_lambda, {MU: 1, DELTA: 0}),
    "mu": (reductions._slice_mu, {DELTA: 0}),
    "delta": (reductions._slice_delta, {MU: 1}),
}


def _exact(expr):
    """The expression with its float constants as rationals."""
    return sp.nsimplify(sp.sympify(expr), rational=True)


@pytest.mark.parametrize("name", list(PINS))
def test_slice_equals_the_theorem_at_its_pins(name):
    slice_fn, pins = PINS[name]
    point = [pins.get(s, s) for s in (LAM, MU, DELTA, T)]
    d, scale, flat_den = slice_fn(*point)
    f, a, theorem_d, _ = bounds._theorem_factors(*point)
    for label, ours, theirs in (("d", d, theorem_d), ("A", scale, a),
                                ("flat denominator", flat_den, f.fs_flat_denom)):
        assert sp.cancel(_exact(ours) - _exact(theirs)) == 0, label
        # plain products, whatever the theorem's xi = (2 lam + mu) / (2 lam + 1)
        assert _exact(ours).is_polynomial(LAM, MU, DELTA, T), label
