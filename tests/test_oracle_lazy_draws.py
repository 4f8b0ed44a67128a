"""A rule draws its random samples only where the bound on their scores over
the closed unit polydisk exceeds a point's injected sup by more than a
relative 1e-12, and there scans them only where the bound at the drawn
reach does not fall below that sup, as before.  Lazy or not, a search must
give a full scan's results bit for bit; a point that needs the draws must
give the pinned results; and neither the default verify grid nor the
verify-full one may draw at all.  Where the drawn reach is at most
1 - 4.01e-12, every point that the closed-disk bound settles, the bound at
the reach prunes too, so the results are those of a search that always
draws."""

import itertools
import math

import numpy as np
import pytest

from chebbounds import oracle
from chebbounds.classop import PARAM_MAX, ClassParams
from chebbounds.oracle import (A2, A3, FULL_SYSTEM, PROOF_SET, OracleConfig, fs_quantity,
                               sweep_verify)
from test_oracle_digest import GRIDS, digest, grid_of
from test_oracle_draws import pinned
from test_oracle_prune import T

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# the prune's factor, and a drawn reach up to which settling equals pruning
SLACK = 1.0 + 1e-12
REACH = 1.0 - 4.01e-12


def full_scan(monkeypatch):
    """From now on every point draws and scans every sample."""
    monkeypatch.setattr(oracle, "_score_bound",
                        lambda quantity, case, reach: np.full(case.u1.shape, np.inf))


POINT = dict(lam=st.floats(1.0, PARAM_MAX), mu=st.floats(0.0, PARAM_MAX),
             delta=st.floats(0.0, PARAM_MAX), t=T, eta=st.floats(-PARAM_MAX, PARAM_MAX))


@hypothesis.settings(database=None, max_examples=150, deadline=None)
@hypothesis.given(**POINT, seed=st.integers(0, 2**64))
# a singular point: the pinned, linear and free rules
@hypothesis.example(lam=2.0, mu=0.0, delta=0.0, t=math.sqrt(0.5), eta=-3.0, seed=5)
def test_lazy_search_equals_a_full_scan(lam, mu, delta, t, eta, seed):
    grid = [ClassParams(lam, mu, delta, t), ClassParams(1.0, 1.0, 0.0, 0.6)]
    for mode in (PROOF_SET, FULL_SYSTEM):
        cfg = OracleConfig(mode=mode, n_samples=200, seed=seed)
        lazy = [pinned(r) for r in sweep_verify(grid, [eta, 1.0], cfg)]
        with pytest.MonkeyPatch.context() as patch:
            full_scan(patch)
            assert lazy == [pinned(r) for r in sweep_verify(grid, [eta, 1.0], cfg)], mode


@hypothesis.settings(database=None, max_examples=200, deadline=None)
@hypothesis.given(**POINT)
@hypothesis.example(lam=2.0, mu=0.0, delta=0.0, t=math.sqrt(0.5), eta=-3.0)
def test_a_settled_point_is_pruned_at_the_reach(lam, mu, delta, t, eta):
    # a sup barely settled by the closed-disk bound, the least one with
    # bound(1) <= sup * SLACK, still lies above bound(REACH) * SLACK
    cf, consts = oracle._grid_cases([ClassParams(lam, mu, delta, t)], [eta])
    for mode, quantity in itertools.product((PROOF_SET, FULL_SYSTEM),
                                            (A2, A3, fs_quantity(eta), fs_quantity(1.0))):
        rule = oracle._rule(quantity, mode, bool(cf.singular[0]))
        if rule is None:
            continue
        case = oracle._Case(oracle._RULE_TABLE[rule], *(c[:1] for c in consts))
        closed = float(oracle._score_bound(quantity, case, 1.0)[0])
        if not (closed >= np.finfo(float).tiny and math.isfinite(closed * SLACK)):
            continue
        sup = closed / SLACK
        while sup * SLACK < closed:
            sup = math.nextafter(sup, math.inf)
        while math.nextafter(sup, 0.0) * SLACK >= closed:
            sup = math.nextafter(sup, 0.0)
        reached = float(oracle._score_bound(quantity, case, REACH)[0])
        assert reached * SLACK < sup, (mode, quantity, rule)


def _count_draws(monkeypatch):
    """The rule columns of every _search_rule call, and of every _draws call."""
    searched, drawn = [], []
    search_rule, draws = oracle._search_rule, oracle._draws

    def searching(rule, *args):
        searched.append(rule.columns)
        return search_rule(rule, *args)

    def drawing(names, *args):
        drawn.append(names)
        return draws(names, *args)

    monkeypatch.setattr(oracle, "_search_rule", searching)
    monkeypatch.setattr(oracle, "_draws", drawing)
    return searched, drawn


@pytest.mark.parametrize("name", list(GRIDS))
def test_one_unsettled_point_draws_once_per_rule(monkeypatch, name):
    ranges, mode, samples, pin = GRIDS[name]
    score_bound = oracle._score_bound

    def failing_at_the_first_point(quantity, case, reach):
        bound = score_bound(quantity, case, reach)
        if reach == 1.0:
            bound = np.where(np.arange(bound.size) == 0, np.inf, bound)
        return bound

    monkeypatch.setattr(oracle, "_score_bound", failing_at_the_first_point)
    searched, drawn = _count_draws(monkeypatch)
    cfg = OracleConfig(mode=mode, n_samples=samples, seed=5)
    assert digest(sweep_verify(grid_of(ranges), [0.0, 1.0, 2.0], cfg)) == pin
    assert searched and drawn == searched


@pytest.mark.parametrize("name", list(GRIDS))
def test_verify_grids_never_draw(monkeypatch, name):
    ranges, mode, samples, pin = GRIDS[name]
    before = oracle._draws.cache_info()
    cfg = OracleConfig(mode=mode, n_samples=samples, seed=5)
    assert digest(sweep_verify(grid_of(ranges), [0.0, 1.0, 2.0], cfg)) == pin
    assert oracle._draws.cache_info() == before
    searched, drawn = _count_draws(monkeypatch)
    sweep_verify(grid_of(ranges), [0.0, 1.0, 2.0], cfg._replace(seed=6))
    assert searched and drawn == []
