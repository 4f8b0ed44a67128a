"""The full-system sampling pass of the summed rule scores, per chunk of
points, only the draw columns whose |c2 + d2| is under the |c1| <= 1 cap of
the chunk's widest point; the others are infeasible there and only counted.
Every result must equal a scan that scores all columns and masks the
infeasible ones, the cut must leave out most of the verify-full grid's
samples, and |a3| and fs@0, the same scores there, share one search."""

import math
from unittest import mock

import numpy as np
import pytest

from chebbounds import oracle
from chebbounds.classop import PARAM_MAX, ClassParams
from chebbounds.oracle import A2, A3, FULL_SYSTEM, OracleConfig, fs_quantity, sweep_verify
from test_oracle_digest import GRIDS, digest, grid_of

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from test_oracle_prune import T  # noqa: E402  (needs hypothesis)

SAMPLES = 200
POINT = st.tuples(st.floats(1.0, PARAM_MAX), st.floats(0.0, PARAM_MAX), st.floats(0.0, PARAM_MAX), T)


def _reference(p: ClassParams, quantities, seed: int):
    """(sup, witness, n_infeasible) per quantity at p from a scan of every
    draw column, each scored and masked to -inf where |c1| > 1."""
    _, consts = oracle._grid_cases([p])
    case = oracle._Case("capped", *(c[:, None] for c in consts))
    cols = oracle._draws(("c2", "d2"), seed, SAMPLES).cols
    a2sq, r = oracle._evaluate(case, oracle._terms(cols))
    feasible = (case.a * np.abs(a2sq) <= case.u1 * case.u1)[0]
    at = oracle._Case("capped", *(float(c[0]) for c in consts))
    found = []
    for q in quantities:
        if q.kind == "a2":
            value = np.sqrt(np.abs(a2sq))
        elif q.kind == "a3":
            value = np.abs(a2sq + r)
        else:
            value = np.abs((1.0 - q.eta) * a2sq + r)
        vals = np.where(feasible, value[0], -np.inf)
        j = int(np.argmax(vals))
        witness = oracle._witness(at, {name: col[j].item() for name, col in cols.items()})
        found.append((float(vals[j]), witness, int(np.count_nonzero(~feasible))))
    return found


@hypothesis.settings(database=None, max_examples=200, deadline=None)
@hypothesis.given(points=st.lists(POINT, min_size=1, max_size=4),
                  eta=st.floats(-PARAM_MAX, PARAM_MAX), seed=st.integers(0, 2**32 - 1),
                  chunk=st.sampled_from([1, 3 * (SAMPLES + 25), oracle.CHUNK_ELEMENTS]))
# near-singular: |d| / A about 1e-6 caps |c2 + d2| near 1e-6, so little but the
# q = 0 extremes is scored
@hypothesis.example(points=[(2.0, 0.0, 0.0, math.sqrt(0.5 * (1.0 - 1e-6)))], eta=2.0, seed=5,
                    chunk=oracle.CHUNK_ELEMENTS)
# a cap of about 2.7, above every |c2 + d2|: all columns are scored
@hypothesis.example(points=[(100.0, 0.0, 0.0, 0.95)], eta=-3.0, seed=5, chunk=oracle.CHUNK_ELEMENTS)
# the cap is 1 + 2e-16, so the |c2 + d2| = 1 extremes are feasible by a hair,
# next to a wider and a narrower point; then one point per chunk
@hypothesis.example(points=[(1.5, 0.5, 0.25, 0.5667134600704243), (1.0, 0.0, 0.0, 0.6),
                            (1.5, 0.5, 0.25, 0.9)], eta=0.5, seed=11, chunk=oracle.CHUNK_ELEMENTS)
@hypothesis.example(points=[(1.5, 0.5, 0.25, 0.5667134600704243), (1.0, 0.0, 0.0, 0.6),
                            (1.5, 0.5, 0.25, 0.9)], eta=0.5, seed=11, chunk=1)
def test_cut_scan_equals_the_full_scan(points, eta, seed, chunk):
    grid = [ClassParams(*point) for point in points]
    quantities = [A2, A3, fs_quantity(eta), fs_quantity(0.0), fs_quantity(1.0)]
    cfg = OracleConfig(FULL_SYSTEM, SAMPLES, seed, grid_refine=False)
    with mock.patch.object(oracle, "CHUNK_ELEMENTS", chunk):
        results = sweep_verify(grid, [eta, 0.0, 1.0], cfg)
    singular = oracle._grid_cases(grid)[0].singular
    for i, p in enumerate(grid):
        if singular[i]:
            continue                     # the free rule: no cut
        got = results[len(quantities) * i:len(quantities) * (i + 1)]
        for r, (sup, witness, n_infeasible) in zip(got, _reference(p, quantities, seed)):
            assert (r.sup_value.hex(), repr(r.witness), r.n_infeasible) == \
                (sup.hex(), repr(witness), n_infeasible), (p, r.quantity)


def _spies(monkeypatch):
    """The sampling pass's scored (point, column) elements and the quantities
    that _scores runs for, from now on."""
    elements, quantities = [], []
    evaluate, scores = oracle._evaluate, oracle._scores

    def evaluate_spy(case, terms):
        # the summed rule's columns are 1-d, the free rule's points x columns;
        # refinement candidates are points x batch, and a witness is scalar
        if np.ndim(terms[0]) == 1:
            elements.append(case.u1.shape[0] * np.size(terms[0]))
        elif np.ndim(terms[0]) == 2 and np.shape(terms[0])[1] > oracle._REFINE_BATCH:
            elements.append(np.size(terms[0]))
        return evaluate(case, terms)

    def scores_spy(quantity, *args):
        quantities.append(quantity)
        return scores(quantity, *args)

    monkeypatch.setattr(oracle, "_evaluate", evaluate_spy)
    monkeypatch.setattr(oracle, "_scores", scores_spy)
    return elements, quantities


def test_verify_full_sampling_scores_a_third_and_fs_at_zero_not_at_all(monkeypatch):
    ranges, mode, samples, pin = GRIDS["verify-full"]
    elements, quantities = _spies(monkeypatch)
    grid = grid_of(ranges)
    results = sweep_verify(grid, [0.0, 1.0, 2.0], OracleConfig(mode, samples, 5))
    assert digest(results) == pin
    assert sum(elements) <= 0.35 * len(grid) * (samples + 25), sum(elements)
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
