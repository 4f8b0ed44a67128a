"""verify's inverse-series suite runs its 100 draws as one batch through the
series core that ``series`` runs one complex number at a time.  Its line
must equal the one the scalar path gives, and the batch must keep every
coefficient bit of the scalar inverse and composition."""

import math

import numpy as np
import pytest

from chebbounds import verify
from chebbounds.cli import _DEFAULT_ORDER as DEFAULT_ORDER
from chebbounds.powerseries import (
    NormalizedSeries,
    _compose,
    _inverse,
    invert_compositional,
)


def scalar_suite(seed):
    """The suite through NormalizedSeries, one draw at a time: its result,
    and per draw the inverse's and the composition's coefficients."""
    rng = np.random.default_rng(seed)
    worst_coeff = worst_resid = 0.0
    inverses, residuals = [], []
    for _ in range(100):
        a2, a3, a4 = (0.2 * math.sqrt(rng.random()) * np.exp(2j * math.pi * rng.random())
                      for _ in range(3))
        f = NormalizedSeries.from_tail([a2, a3, a4], order=DEFAULT_ORDER)
        g = invert_compositional(f)
        residual = _compose(g.coeffs, f.coeffs)
        expected = {2: -a2, 3: 2.0 * a2 * a2 - a3, 4: -(5.0 * (a2 * a2 * a2) - 5.0 * a2 * a3 + a4)}
        worst_coeff = max(worst_coeff, max(abs(g.coeffs[k] - v) for k, v in expected.items()))
        worst_resid = max(worst_resid, max(abs(c - (1.0 if k == 1 else 0.0))
                                           for k, c in enumerate(residual)))
        inverses.append(g.coeffs)
        residuals.append(residual)
    ok = worst_coeff <= 1e-12 and worst_resid <= 1e-12
    line = (f"inverse-series fixtures: 100 draws, coefficient dev {worst_coeff:.3e}, "
            f"compose residual {worst_resid:.3e}")
    return (ok, [line]), inverses, residuals


def batch_series(seed):
    """The suite's draws as one object array of Python complex per coefficient of f."""
    u = np.random.default_rng(seed).random((100, 3, 2))
    phase = np.exp(1j * ((2.0 * math.pi) * u[..., 1])).astype(object)
    tail = [(0.2 * np.sqrt(u[:, k, 0])).astype(object) * phase[:, k] for k in range(3)]
    return [0j, 1.0 + 0j, *tail] + [0j] * (DEFAULT_ORDER - 4)


def bits(c):
    return c.real.hex(), c.imag.hex()


@pytest.mark.parametrize("first", range(0, 1000, 250))
def test_batched_line_equals_the_scalar_line(first):
    for seed in range(first, first + 250):
        assert verify._suite_inverse(seed, DEFAULT_ORDER) == scalar_suite(seed)[0], seed


@pytest.mark.parametrize("seed", range(40))
def test_batch_keeps_every_coefficient_bit(seed):
    _, inverses, residuals = scalar_suite(seed)
    f = batch_series(seed)
    g = _inverse(f)
    for name, batch, scalar in (("inverse", g, inverses), ("compose", _compose(g, f), residuals)):
        for k, c in enumerate(batch):
            # a constant term may stay one Python complex number
            got = [bits(complex(x)) for x in np.broadcast_to(np.asarray(c, dtype=object), 100)]
            assert got == [bits(s[k]) for s in scalar], (name, k)
