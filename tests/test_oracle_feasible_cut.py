"""The full-system search scores only feasible points.  The capped rule's
pair (c2, d2) in the bidisk stands for c2' = (R/2 s + w) / 2 and d2' =
(R/2 s - w) / 2, with s = c2 + d2, w = c2 - d2 and R = min(2, |d| / (t A)), so
|c2'|, |d2'| <= 1 and |c2' + d2'| <= R, which is |c1| <= 1.  Every candidate
that the search scores must map to such a point, the verify-full grid must
score no random capped column, and |a3| and fs@0, the same scores there,
share one search."""

import math

import numpy as np
import pytest

from chebbounds import oracle
from chebbounds.classop import ADMISSIBLE_TOL, PARAM_MAX, ClassParams
from chebbounds.oracle import A2, A3, FULL_SYSTEM, OracleConfig, fs_quantity, sweep_verify
from test_oracle_digest import GRIDS, digest, grid_of

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from test_oracle_prune import T  # noqa: E402  (needs hypothesis)

SAMPLES = 200
POINT = st.tuples(st.floats(1.0, PARAM_MAX), st.floats(0.0, PARAM_MAX), st.floats(0.0, PARAM_MAX), T)


def _capped_candidates(monkeypatch):
    """The largest |c2'|, |d2'| and |c1| of every batch of capped candidates
    that the search scores from now on, each as one array."""
    found, evaluate = [], oracle._evaluate

    def spy(case, terms):
        a2sq, r = evaluate(case, terms)
        # columns or points x columns; _score_bound and a witness pass scalars
        if case.rule is oracle._RULE_TABLE["capped"] and np.ndim(terms[0]):
            q, w = terms
            s = case.half_cap * q
            found.append(np.stack([np.abs(s + w) / 2.0, np.abs(s - w) / 2.0,
                                   case.lin * np.sqrt(np.abs(a2sq)) / case.u1]).max(axis=(1, 2)))
        return a2sq, r

    monkeypatch.setattr(oracle, "_evaluate", spy)
    return found


@hypothesis.settings(database=None, max_examples=200, deadline=None)
@hypothesis.given(points=st.lists(POINT, min_size=1, max_size=4),
                  eta=st.floats(-PARAM_MAX, PARAM_MAX), seed=st.integers(0, 2**32 - 1),
                  chunk=st.sampled_from([1, 3 * (SAMPLES + 33), oracle.CHUNK_ELEMENTS]))
# near-singular: |d| / A about 1e-6, so R is about 1e-6 / t
@hypothesis.example(points=[(2.0, 0.0, 0.0, math.sqrt(0.5 * (1.0 - 1e-6)))], eta=2.0, seed=5,
                    chunk=oracle.CHUNK_ELEMENTS)
# |d| / (t A) is about 2.7: R = 2, and the drawn pairs are the feasible ones
@hypothesis.example(points=[(100.0, 0.0, 0.0, 0.95)], eta=-3.0, seed=5, chunk=oracle.CHUNK_ELEMENTS)
# R is 1 + 2e-16, next to a point with R = 2 and one with a smaller R; then one
# point per chunk
@hypothesis.example(points=[(1.5, 0.5, 0.25, 0.5667134600704243), (1.0, 0.0, 0.0, 0.6),
                            (1.5, 0.5, 0.25, 0.9)], eta=0.5, seed=11, chunk=oracle.CHUNK_ELEMENTS)
@hypothesis.example(points=[(1.5, 0.5, 0.25, 0.5667134600704243), (1.0, 0.0, 0.0, 0.6),
                            (1.5, 0.5, 0.25, 0.9)], eta=0.5, seed=11, chunk=1)
def test_capped_candidates_are_feasible_and_pruning_changes_nothing(points, eta, seed, chunk):
    grid = [ClassParams(*point) for point in points]
    cfg = OracleConfig(FULL_SYSTEM, SAMPLES, seed)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(oracle, "CHUNK_ELEMENTS", chunk)
        found = _capped_candidates(monkeypatch)
        results = sweep_verify(grid, [eta, 0.0, 1.0], cfg)
    if not all(oracle._grid_cases(grid)[0].singular):
        assert found
    assert all(np.all(most <= 1.0 + ADMISSIBLE_TOL) for most in found), found
    for r in results:
        assert r.n_infeasible == 0
        assert r.witness is None or r.witness.schwarz.admissible, r


def test_verify_full_sampling_scores_no_random_capped_column(monkeypatch):
    ranges, mode, samples, pin = GRIDS["verify-full"]
    widths, quantities = [], []
    evaluate, scores = oracle._evaluate, oracle._scores

    def evaluate_spy(case, terms):
        # points x columns; _score_bound and a witness pass scalars
        if case.rule is oracle._RULE_TABLE["capped"] and np.ndim(terms[0]) == 2:
            widths.append(np.shape(terms[0])[1])
        return evaluate(case, terms)

    def scores_spy(quantity, *args):
        quantities.append(quantity)
        return scores(quantity, *args)

    monkeypatch.setattr(oracle, "_evaluate", evaluate_spy)
    monkeypatch.setattr(oracle, "_scores", scores_spy)
    results = sweep_verify(grid_of(ranges), [0.0, 1.0, 2.0], OracleConfig(mode, samples, 5))
    assert digest(results) == pin
    # the 25 shared extremes and 8 maximizers of each point; no random column
    assert widths and set(widths) == {25 + 8}, sorted(set(widths))
    # fs@0 rides on |a3|'s search
    assert set(quantities) == {A2, A3, fs_quantity(1.0), fs_quantity(2.0)}


@pytest.mark.parametrize("seed", [5, 11])
def test_full_system_fs_at_zero_is_the_a3_result(seed):
    ranges, mode, samples, _ = GRIDS["verify-full"]
    results = sweep_verify(grid_of(ranges), [0.0, 1.0, 2.0], OracleConfig(mode, samples, seed))
    for a3, fs0 in zip(results[1::5], results[2::5]):
        assert (fs0.quantity, a3.quantity) == (fs_quantity(0.0), A3)
        assert (fs0.sup_value.hex(), repr(fs0.witness), fs0.n_infeasible) == \
            (a3.sup_value.hex(), repr(a3.witness), a3.n_infeasible)
