"""Oracle results pinned bit for bit: sup, sample counts and witness of
every search rule, both modes.  Also checks that the results do not depend
on which searches ran before (seed, sample count and rule change between
calls) or on the route, standalone ``empirical_sup`` or ``sweep_verify``,
and that no search builds a random generator."""

import math

import numpy as np
import pytest

from chebbounds.classop import ClassParams
from chebbounds.oracle import (
    A2,
    A3,
    FULL_SYSTEM,
    PROOF_SET,
    OracleConfig,
    empirical_sup,
    fs_quantity,
    sweep_verify,
)

POINTS = {"P0": ClassParams(1.0, 1.0, 0.0, 0.6),
          "P_SING": ClassParams(2.0, 0.0, 0.0, math.sqrt(0.5))}
QUANTITIES = {q.label: q for q in [A2, A3] + [fs_quantity(eta) for eta in (0.0, 1.0, 2.5)]}

# (point, mode, quantity) -> (sup_value.hex(), n_samples, n_infeasible,
# repr(witness)) at n_samples=400, seed=5
PINS = {
    ('P0', 'proof-set', 'a2'): (
        '0x1.a4a6a2f74c6abp-1', 425, 0,
        'Witness(schwarz=SchwarzPair(c1=(1.3693063937629153+0j), c2=(1+0j), d1=(-1.3693063937629153-0j), d2=(1+0j), admissible=False), a2=(0.8215838362577491+0j), a3=(0.6749999999999999+0j))',
    ),
    ('P0', 'proof-set', 'a3'): (
        '0x1.851eb851eb852p-1', 1025, 0,
        'Witness(schwarz=SchwarzPair(c1=(1+0j), c2=(1+0j), d1=(1+0j), d2=(-1+0j), admissible=True), a2=(0.6+0j), a3=(0.76+0j))',
    ),
    ('P0', 'proof-set', 'fs@0'): (
        '0x1.5999999999999p-1', 425, 0,
        'Witness(schwarz=SchwarzPair(c1=(1.3693063937629153+0j), c2=(1+0j), d1=(-1.3693063937629153-0j), d2=(1+0j), admissible=False), a2=(0.8215838362577491+0j), a3=(0.6749999999999999+0j))',
    ),
    ('P0', 'proof-set', 'fs@1'): (
        '0x1.9999999999999p-2', 425, 0,
        'Witness(schwarz=SchwarzPair(c1=0j, c2=(1+0j), d1=(-0-0j), d2=(-1+0j), admissible=True), a2=0j, a3=(0.39999999999999997+0j))',
    ),
    ('P0', 'proof-set', 'fs@2.5'): (
        '0x1.0333333333333p+0', 425, 0,
        'Witness(schwarz=SchwarzPair(c1=(1.3693063937629153+0j), c2=(1+0j), d1=(-1.3693063937629153-0j), d2=(1+0j), admissible=False), a2=(0.8215838362577491+0j), a3=(0.6749999999999999+0j))',
    ),
    ('P0', 'full-system', 'a2'): (
        '0x1.3333333333333p-1', 433, 0,
        'Witness(schwarz=SchwarzPair(c1=(1+0j), c2=(0.5333333333333333+0j), d1=(-1-0j), d2=(0.5333333333333333+0j), admissible=True), a2=(0.6+0j), a3=(0.36+0j))',
    ),
    ('P0', 'full-system', 'a3'): (
        '0x1.17e4b17e4b17ep-1', 433, 0,
        'Witness(schwarz=SchwarzPair(c1=(1+0j), c2=(1+0j), d1=(-1-0j), d2=(0.0666666666666666+0j), admissible=True), a2=(0.6+0j), a3=(0.5466666666666666+0j))',
    ),
    ('P0', 'full-system', 'fs@0'): (
        '0x1.17e4b17e4b17ep-1', 433, 0,
        'Witness(schwarz=SchwarzPair(c1=(1+0j), c2=(1+0j), d1=(-1-0j), d2=(0.0666666666666666+0j), admissible=True), a2=(0.6+0j), a3=(0.5466666666666666+0j))',
    ),
    ('P0', 'full-system', 'fs@1'): (
        '0x1.9999999999999p-2', 433, 0,
        'Witness(schwarz=SchwarzPair(c1=0j, c2=(1+0j), d1=(-0-0j), d2=(-1+0j), admissible=True), a2=0j, a3=(0.39999999999999997+0j))',
    ),
    ('P0', 'full-system', 'fs@2.5'): (
        '0x1.740da740da741p-1', 433, 0,
        'Witness(schwarz=SchwarzPair(c1=(1+0j), c2=(0.0666666666666666+0j), d1=(-1-0j), d2=(1+0j), admissible=True), a2=(0.6+0j), a3=(0.1733333333333333+0j))',
    ),
    ('P_SING', 'proof-set', 'a2'): (
        'inf', 0, 0,
        'None',
    ),
    ('P_SING', 'proof-set', 'a3'): (
        '0x1.b504f333f9de8p-1', 1025, 0,
        'Witness(schwarz=SchwarzPair(c1=(1+0j), c2=(1+0j), d1=(1+0j), d2=(-1+0j), admissible=True), a2=(0.7071067811865476+0j), a3=(0.853553390593274+0j))',
    ),
    ('P_SING', 'proof-set', 'fs@0'): (
        'inf', 0, 0,
        'None',
    ),
    ('P_SING', 'proof-set', 'fs@1'): (
        '0x1.6a09e667f3bcdp-2', 425, 0,
        'Witness(schwarz=SchwarzPair(c1=0j, c2=(1+0j), d1=(-0-0j), d2=(-1+0j), admissible=True), a2=0j, a3=(0.3535533905932738+0j))',
    ),
    ('P_SING', 'proof-set', 'fs@2.5'): (
        'inf', 0, 0,
        'None',
    ),
    ('P_SING', 'full-system', 'a2'): (
        '0x1.6a09e667f3bcdp-1', 425, 0,
        'Witness(schwarz=SchwarzPair(c1=(1+0j), c2=0j, d1=(-1-0j), d2=(-0-0j), admissible=True), a2=(0.7071067811865476+0j), a3=(0.5000000000000001+0j))',
    ),
    ('P_SING', 'full-system', 'a3'): (
        '0x1.b504f333f9de8p-1', 425, 0,
        'Witness(schwarz=SchwarzPair(c1=(1+0j), c2=(1+0j), d1=(-1-0j), d2=(-1-0j), admissible=True), a2=(0.7071067811865476+0j), a3=(0.853553390593274+0j))',
    ),
    ('P_SING', 'full-system', 'fs@0'): (
        '0x1.b504f333f9de8p-1', 425, 0,
        'Witness(schwarz=SchwarzPair(c1=(1+0j), c2=(1+0j), d1=(-1-0j), d2=(-1-0j), admissible=True), a2=(0.7071067811865476+0j), a3=(0.853553390593274+0j))',
    ),
    ('P_SING', 'full-system', 'fs@1'): (
        '0x1.6a09e667f3bcdp-2', 425, 0,
        'Witness(schwarz=SchwarzPair(c1=0j, c2=(1+0j), d1=(-0-0j), d2=(-1-0j), admissible=True), a2=0j, a3=(0.3535533905932738+0j))',
    ),
    ('P_SING', 'full-system', 'fs@2.5'): (
        '0x1.1a827999fcef4p+0', 425, 0,
        'Witness(schwarz=SchwarzPair(c1=1j, c2=(1+0j), d1=(-0-1j), d2=(-1-0j), admissible=True), a2=0.7071067811865476j, a3=(-0.14644660940672632+0j))',
    ),
}

# full-system |a2| at P0, whose sup is an injected maximizer's at every seed and
# whose sample count follows n: (seed, n_samples) -> (sup_value.hex(), n_samples,
# n_infeasible)
ALTERNATING = {
    (5, 400): ('0x1.3333333333333p-1', 433, 0),
    (6, 400): ('0x1.3333333333333p-1', 433, 0),
    (5, 401): ('0x1.3333333333333p-1', 434, 0),
}


def pinned(res):
    return (res.sup_value.hex(), res.n_samples, res.n_infeasible, repr(res.witness))


# the key's last slot: True runs the search alone; False runs the same search
# just before, which must not change it
@pytest.mark.parametrize("key", [(*k, cleared) for k in PINS for cleared in (True, False)],
                         ids=lambda k: "-".join(map(str, k)))
def test_result_pinned(key):
    point, mode, label, alone = key
    quantity, p = QUANTITIES[label], POINTS[point]
    cfg = OracleConfig(mode=mode, n_samples=400, seed=5)
    if not alone:
        empirical_sup(quantity, p, cfg)
    assert pinned(empirical_sup(quantity, p, cfg)) == PINS[(point, mode, label)]


def test_alternating_seeds_and_sample_counts():
    def search(seed, n):
        return empirical_sup(
            A2, POINTS["P0"], OracleConfig(mode=FULL_SYSTEM, n_samples=n, seed=seed)
        )

    first = search(5, 400)
    for seed, n in [(6, 400), (5, 400), (5, 401), (5, 400)]:
        res = search(seed, n)
        assert pinned(res)[:3] == ALTERNATING[(seed, n)]
        if (seed, n) == (5, 400):
            assert res == first
    assert pinned(first)[:3] == ALTERNATING[(5, 400)]


@pytest.mark.parametrize("mode", [PROOF_SET, FULL_SYSTEM])
def test_standalone_equals_sweep_entry(mode):
    grid = list(POINTS.values())
    etas = [0.0, 1.0, 2.5]
    cfg = OracleConfig(mode=mode, n_samples=300, seed=9)
    # a standalone search first, with another seed's draws in between
    before = empirical_sup(A3, POINTS["P0"], cfg)
    empirical_sup(A2, POINTS["P0"], OracleConfig(mode=mode, n_samples=300, seed=10))
    results = sweep_verify(grid, etas, cfg)
    assert results[1] == before
    quantities = [A2, A3] + [fs_quantity(eta) for eta in etas]
    standalone = [empirical_sup(q, p, cfg) for p in reversed(grid) for q in quantities]
    assert results == standalone[len(quantities):] + standalone[:len(quantities)]


# rule -> (a search of the rule at another point or quantity, the PINS key of
# a search of the rule that follows it)
WARM = {
    "summed": ((A2, ClassParams(2.0, 1.5, 0.5, 0.8)), ("P0", "full-system", "a2")),
    "summed-fs": ((A2, ClassParams(3.0, 0.0, 1.0, 0.9)), ("P0", "full-system", "fs@2.5")),
    "free": ((A3, POINTS["P_SING"]), ("P_SING", "full-system", "a2")),
}


@pytest.mark.parametrize("warm, key", list(WARM.values()), ids=list(WARM))
def test_search_builds_no_generator_once_drawn(monkeypatch, warm, key):
    point, mode, label = key
    cfg = OracleConfig(mode=mode, n_samples=400, seed=5)

    def no_generator(*args, **kwargs):
        raise AssertionError("a search built a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    empirical_sup(*warm, cfg)
    assert pinned(empirical_sup(QUANTITIES[label], POINTS[point], cfg)) == PINS[key]


@pytest.mark.parametrize("label", ["a2", "a3", "fs@2.5"])
def test_free_rule_at_singular_points_is_seed_independent(label):
    # the free rule's a2 disk has radius u1/lin, 2t/2 at P_SING and 2t/3 at
    # lambda = 3; its extremes are injected, so seeds 5 and 6 give the same
    # sup and witness, and the |a2| sup is that radius bit for bit
    for p in (POINTS["P_SING"], ClassParams(3.0, 0.0, 0.0, math.sqrt(0.375))):
        five, six = (empirical_sup(QUANTITIES[label], p,
                                   OracleConfig(mode=FULL_SYSTEM, n_samples=400, seed=seed))
                     for seed in (5, 6))
        assert five.sup_value.hex() == six.sup_value.hex() and five.witness == six.witness
        assert math.isfinite(five.sup_value) and five.n_samples == six.n_samples == 425
        if label == "a2":
            assert five.sup_value.hex() == (2.0 * p.t / p.factors.op_linear_factor).hex()

