"""The oracle draws no random sample.  A result is settled where the bound on
its score over the closed unit polydisk stays within a relative 1e-12 of its
injected sup; elsewhere it reads ``unsettled``, every other field as it was,
and ``verify`` fails and names it.  Neither the default verify grid nor the
verify-full one may leave a result unsettled."""

import numpy as np
import pytest

from chebbounds import cli, oracle
from chebbounds.oracle import UNSETTLED, OracleConfig, OracleResult, sweep_verify, verdict_indices
from chebbounds.text import fmt
from test_oracle_digest import GRIDS, digest, grid_of

ETAS = [0.0, 1.0, 2.0]


def every_bound_at_inf(monkeypatch):
    """From now on no searched result is settled."""
    monkeypatch.setattr(oracle, "_score_bound",
                        lambda quantity, case: np.full(case.u1.shape, np.inf))


def _fields(res) -> list:
    return [getattr(res, name) for name in OracleResult._fields if name != "verdict"]


@pytest.mark.parametrize("name", list(GRIDS))
def test_one_unsettled_point_fails_verify(monkeypatch, capsys, name):
    ranges, mode, samples, pin = GRIDS[name]
    cfg = OracleConfig(mode=mode, n_samples=samples, seed=5)
    settled = sweep_verify(grid_of(ranges), ETAS, cfg)
    assert digest(settled) == pin
    score_bound = oracle._score_bound

    def unsettled_at_the_first_point(quantity, case):
        bound = score_bound(quantity, case)
        return np.where(np.arange(bound.size) == 0, np.inf, bound)

    monkeypatch.setattr(oracle, "_score_bound", unsettled_at_the_first_point)
    results = sweep_verify(grid_of(ranges), ETAS, cfg)
    # a rule searches the regular points, then the singular ones: the first of
    # each that a rule searches, unless its closed form is unbounded
    first = {int(np.flatnonzero(results.singular == flag)[0])
             for flag in (False, True) if np.any(results.singular == flag)}
    named = []
    for i, (was, now) in enumerate(zip(settled, results)):
        assert _fields(now) == _fields(was), i
        if i // (2 + len(ETAS)) in first and was.verdict != oracle.SKIPPED:
            named.append(i)
        else:
            assert now.verdict == was.verdict, i
    assert named and verdict_indices(results, UNSETTLED) == named

    argv = ["verify", "--lambda", ranges[0], "--mu", ranges[1], "--delta", ranges[2],
            "--t", ranges[3], "--mode", mode, "--samples", str(samples), "--seed", "5"]
    assert cli.main(argv) == cli.EXIT_VERIFY
    out = capsys.readouterr().out
    assert "[FAIL] oracle soundness" in out
    res = results[named[0]]
    p = res.params
    assert (f"  unsettled: {res.quantity.label} at lambda={fmt(p.lam)} mu={fmt(p.mu)} "
            f"delta={fmt(p.delta)} t={fmt(p.t)}: sup={fmt(res.sup_value)} "
            f"bound={fmt(res.closed_form_bound)}\n") in out
    assert out.count("  unsettled: ") == len(named)


@pytest.mark.parametrize("name", list(GRIDS))
def test_verify_grids_never_draw(monkeypatch, name):
    ranges, mode, samples, pin = GRIDS[name]

    def no_generator(*args, **kwargs):
        raise AssertionError("a search built a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    cfg = OracleConfig(mode=mode, n_samples=samples, seed=5)
    results = sweep_verify(grid_of(ranges), ETAS, cfg)
    assert digest(results) == pin
    assert verdict_indices(results, UNSETTLED) == []
