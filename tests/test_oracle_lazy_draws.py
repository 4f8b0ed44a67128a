"""A rule draws its random samples only where the bound on their scores over
the closed unit polydisk exceeds a point's injected sup by more than a
relative 1e-12, and scans them at every such point.  Lazy or not, a search
must give a full scan's results bit for bit; a point that needs the draws
must give the pinned results; and neither the default verify grid nor the
verify-full one may draw at all."""

import math

import numpy as np
import pytest

from chebbounds import oracle
from chebbounds.classop import PARAM_MAX, ClassParams
from chebbounds.oracle import FULL_SYSTEM, PROOF_SET, OracleConfig, sweep_verify
from test_oracle_digest import GRIDS, digest, grid_of
from test_oracle_draws import pinned
from test_oracle_prune import T

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def full_scan(monkeypatch):
    """From now on every point draws and scans every sample."""
    monkeypatch.setattr(oracle, "_score_bound",
                        lambda quantity, case: np.full(case.u1.shape, np.inf))


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

    def failing_at_the_first_point(quantity, case):
        bound = score_bound(quantity, case)
        return np.where(np.arange(bound.size) == 0, np.inf, bound)

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
