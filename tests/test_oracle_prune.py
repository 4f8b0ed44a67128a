"""Every rule scores its injected columns only, and a result is settled
where a bound on the score over the closed unit polydisk stays within a
relative 1e-12 of their sup.  The bound must hold for any point of the
polydisk; with every bound at inf, which once forced a full scan of random
samples, every searched result reads unsettled and keeps the pinned fields;
and neither the default verify grid nor the verify-full one scores more
than the injected columns."""

import itertools
import math

import numpy as np
import pytest

from chebbounds import oracle
from chebbounds.classop import PARAM_MAX, ClassParams
from chebbounds.oracle import (A2, A3, FULL_SYSTEM, PROOF_SET, SKIPPED, UNSETTLED, OracleConfig,
                               fs_quantity, sweep_verify)
from test_oracle_digest import CHUNKS, GRIDS, digest, grid_of
from test_oracle_draws import pinned

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# t next to either end of (1/2, 1), or anywhere in it
T = st.one_of(st.floats(0.5, 0.5 + 1e-6, exclude_min=True),
              st.floats(1.0 - 1e-6, 1.0, exclude_max=True),
              st.floats(0.5, 1.0, exclude_min=True, exclude_max=True))


def _disk(names, seed, n=200) -> dict[str, np.ndarray]:
    """n points of the closed unit polydisk over the columns ``names``: the
    extremes, then uniform in (modulus^2, argument) per column."""
    rng = np.random.default_rng(seed)
    return {name: np.concatenate([extremes, np.sqrt(rng.random(n))
                                  * np.exp(2j * math.pi * rng.random(n))])
            for name, extremes in oracle._extremes(names).items()}


@hypothesis.settings(database=None, max_examples=200, deadline=None)
@hypothesis.given(lam=st.floats(1.0, PARAM_MAX), mu=st.floats(0.0, PARAM_MAX),
                  delta=st.floats(0.0, PARAM_MAX), t=T, eta=st.floats(-PARAM_MAX, PARAM_MAX),
                  seed=st.integers(0, 2**32 - 1))
# a singular point: the pinned rule for fs at eta = 1, the linear one for |a3|,
# and the free rule for every quantity of the full system
@hypothesis.example(lam=2.0, mu=0.0, delta=0.0, t=math.sqrt(0.5), eta=-3.0, seed=5)
def test_no_sample_scores_above_the_closed_disk_bound(lam, mu, delta, t, eta, seed):
    # the bound reads the case constants only, never a closed-form column, so
    # it is the same for either threshold variant
    cf, consts = oracle._grid_cases([ClassParams(lam, mu, delta, t)], [eta])
    for mode, quantity in itertools.product((PROOF_SET, FULL_SYSTEM),
                                            (A2, A3, fs_quantity(eta), fs_quantity(1.0))):
        rule = oracle._rule(quantity, mode, bool(cf.singular[0]))
        if rule is None:
            continue
        row = oracle._RULE_TABLE[rule]
        case = oracle._Case(row, *(c[:, None] for c in consts))
        a2sq, r = oracle._evaluate(case, row.terms(_disk(row.columns, seed)))
        scores = oracle._scores(quantity, a2sq, r)[0]
        bound = oracle._score_bound(quantity, case)[0]
        assert np.all(scores <= bound * (1.0 + 1e-12)), (quantity, rule)


def _sampled_widths(monkeypatch) -> list[int]:
    """The sample counts of every sampling-pass evaluation from now on."""
    widths, evaluate = [], oracle._evaluate

    def spy(case, terms):
        # columns, or points x columns, of c2 - d2; _score_bound and a witness pass scalars
        if np.ndim(terms[1]):
            widths.append(np.shape(terms[1])[-1])
        return evaluate(case, terms)

    monkeypatch.setattr(oracle, "_evaluate", spy)
    return widths


@pytest.mark.parametrize("chunk", list(CHUNKS))
@pytest.mark.parametrize("name", list(GRIDS))
def test_full_scan_gives_the_pinned_results(monkeypatch, name, chunk):
    ranges, mode, samples, pin = GRIDS[name]
    monkeypatch.setattr(oracle, "CHUNK_ELEMENTS", CHUNKS[chunk](samples))
    cfg = OracleConfig(mode=mode, n_samples=samples, seed=5)
    settled = sweep_verify(grid_of(ranges), [0.0, 1.0, 2.0], cfg)
    assert digest(settled) == pin
    monkeypatch.setattr(oracle, "_score_bound",
                        lambda quantity, case: np.full(case.u1.shape, np.inf))
    widths = _sampled_widths(monkeypatch)
    results = sweep_verify(grid_of(ranges), [0.0, 1.0, 2.0], cfg)
    assert [pinned(r) for r in results] == [pinned(r) for r in settled]
    assert [r.verdict for r in results] == [
        SKIPPED if r.verdict == SKIPPED else UNSETTLED for r in settled]
    assert set(widths) <= INJECTED[name], sorted(set(widths))   # no random sample


# grid -> its injected widths: 25 extremes of (c2, d2) or (c2, a2), 625 of (c1, d1,
# c2, d2), and 25 + 8 for the capped rule's vertices
INJECTED = {"verify": {25, 625}, "verify-full": {25, 33}}


@pytest.mark.parametrize("name", list(INJECTED))
def test_default_verify_grid_prunes_every_point(monkeypatch, name):
    ranges, mode, samples, pin = GRIDS[name]
    widths = _sampled_widths(monkeypatch)
    cfg = OracleConfig(mode=mode, n_samples=samples, seed=5)
    assert digest(sweep_verify(grid_of(ranges), [0.0, 1.0, 2.0], cfg)) == pin
    # no random sample
    assert widths and set(widths) <= INJECTED[name], sorted(set(widths))
