"""An OracleResult builds its witness on first read and keeps it: a search
builds none, reading every witness builds each searched one once, and a
witness read late, after other searches have replaced the cached draws,
is the one an immediate read gives.  The witness stays one of the record's
fields, so it still takes part in ``repr`` and ``==``."""

import math

import numpy as np
import pytest

from chebbounds import cli, oracle
from chebbounds.classop import ClassParams, param_points
from chebbounds.oracle import (
    A2,
    FULL_SYSTEM,
    PROOF_SET,
    SKIPPED,
    OracleConfig,
    OracleResult,
    Witness,
    empirical_sup,
    sweep_verify,
)

ETAS = [0.0, 1.0, 2.0]
FIELDS = ["quantity", "params", "mode", "sup_value", "witness", "n_samples", "n_infeasible",
          "seed", "closed_form_bound", "verdict"]
POINTS = [ClassParams(1.0, 1.0, 0.0, 0.6), ClassParams(2.0, 0.0, 0.0, math.sqrt(0.5))]


def grid_of(*ranges):
    return param_points(*(np.linspace(*cli.parse_range(text)) for text in ranges))


@pytest.fixture
def built(monkeypatch):
    """The arguments of every oracle._witness call from here on."""
    calls = []
    real = oracle._witness

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(oracle, "_witness", counted)
    return calls


def test_full_system_search_builds_witnesses_only_when_read(built):
    grid = grid_of("1:3:5", "0:2:5", "0:1:5", "0.55:0.95:9")
    results = sweep_verify(grid, ETAS, OracleConfig(FULL_SYSTEM, 1000, 5))
    assert len(results) == 5 * len(grid)
    assert built == []
    # the full system searches every quantity at every point
    first = [r.witness for r in results]
    assert len(built) == len(results)
    assert all(isinstance(w, Witness) for w in first)
    second = [r.witness for r in results]
    assert len(built) == len(results)
    assert all(a is b for a, b in zip(first, second))


def test_unsearched_result_has_no_witness(built):
    res = empirical_sup(A2, POINTS[1], OracleConfig(PROOF_SET, 200, 5))
    assert res.verdict == SKIPPED and res.witness is None
    results = sweep_verify(grid_of("1:3:3", "0:2:3", "0:1:3", "0.55:0.95:3"), ETAS,
                           OracleConfig(PROOF_SET, 200, 5))
    unsearched = [r for r in results if r.sup_value == math.inf]
    assert unsearched and all(r.verdict == SKIPPED for r in unsearched)
    assert all(r.witness is None for r in unsearched)
    assert built == []
    [r.witness for r in results]
    assert len(built) == len(results) - len(unsearched)


def test_late_read_equals_immediate_read():
    cfg = OracleConfig(FULL_SYSTEM, 400, 5)
    now = [repr(r.witness) for r in sweep_verify(POINTS, ETAS, cfg)]
    late = sweep_verify(POINTS, ETAS, cfg)
    # searches of other modes, sample counts and seeds in between
    for mode, n, seed in [(PROOF_SET, 400, 6), (FULL_SYSTEM, 401, 5), (FULL_SYSTEM, 300, 7)]:
        sweep_verify(POINTS, ETAS, OracleConfig(mode, n, seed))
    assert [repr(r.witness) for r in late] == now


def replace(res, **changes):
    """A new OracleResult with the fields of ``res``, but for ``changes``."""
    return OracleResult(*(changes.get(name, getattr(res, name)) for name in OracleResult._fields))


def test_witness_is_a_field():
    res = empirical_sup(A2, POINTS[0], OracleConfig(FULL_SYSTEM, 200, 5))
    assert list(OracleResult._fields) == FIELDS
    assert "witness=Witness(" in repr(res)
    other = empirical_sup(A2, POINTS[0], OracleConfig(PROOF_SET, 200, 5)).witness
    assert other != res.witness
    assert replace(res, witness=other) != res
    assert replace(res, witness=res.witness) == res
    with pytest.raises(AttributeError):
        res.witness = other
