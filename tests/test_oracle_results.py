"""A search returns its results as one columnar record, an
``oracle.OracleResults``: an ``OracleResult`` is built on first read of its
index and then kept.  A passing ``verify`` builds none; a failing one builds
only the violations it prints.  The record reads like a list of its items:
indices, negative indices, slices, ``len`` and ``==``."""

import math
from collections.abc import Sequence

import numpy as np
import pytest

from chebbounds import classop, cli, oracle
from chebbounds.classop import ClassParams, param_points
from chebbounds.oracle import (
    FULL_SYSTEM,
    PROOF_SET,
    SKIPPED,
    VIOLATION,
    WITHIN_BOUND,
    OracleConfig,
    OracleResult,
    OracleResults,
    sweep_verify,
    verdict_indices,
    violations,
)

ETAS = [0.0, 1.0, 2.0]
RANGES = ("1:3:5", "0:2:5", "0:1:5", "0.55:0.95:9")
# verify's full-system benchmark call: 1125 points, 1000 samples
VERIFY_FULL = ["verify", "--seed", "5", "--mode", "full-system", "--samples", "1000",
               *(arg for flag, text in zip(("--lambda", "--mu", "--delta", "--t"), RANGES)
                 for arg in (flag, text))]
# a small grid with a singular point (lambda = 2, mu = delta = 0, t^2 = 1/2), where the
# proof set leaves |a2| unsearched and its closed form is unbounded
SMALL = [ClassParams(1.0, 1.0, 0.0, 0.6), ClassParams(2.0, 0.0, 0.0, math.sqrt(0.5)),
         ClassParams(3.0, 2.0, 1.0, 0.9)]


def grid_of(ranges):
    return param_points(*(np.linspace(*cli.parse_range(text)) for text in ranges))


@pytest.fixture
def built(monkeypatch):
    """The verdict of every OracleResult built from here on."""
    verdicts = []
    init = OracleResult.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        verdicts.append(self.verdict)

    monkeypatch.setattr(OracleResult, "__init__", counted)
    return verdicts


def test_passing_verify_builds_no_result(capsys, built):
    assert cli.main(VERIFY_FULL) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert ("oracle soundness (full-system): 1125 points x 5 quantities, 5616 checked, "
            "9 skipped (unbounded closed form), 0 violations\n") in out
    assert "verify: PASS" in out
    assert built == []


def test_passing_verify_builds_no_grid_point(monkeypatch, capsys):
    built = []
    monkeypatch.setattr(classop, "ClassParams", lambda *p: built.append(p) or ClassParams(*p))
    assert cli.main(VERIFY_FULL) == cli.EXIT_OK
    assert "1125 points x 5 quantities" in capsys.readouterr().out
    assert built == []


def test_failing_verify_builds_only_the_violations(monkeypatch, capsys, built):
    # every result whose sup exceeds its bound less 1 is now a violation
    monkeypatch.setattr(oracle, "VERDICT_TOL", -1.0)
    argv = ["verify", "--seed", "5", "--mode", "full-system", "--samples", "200",
            "--lambda", "1:3:3", "--mu", "0:2:3", "--delta", "0:1:3", "--t", "0.55:0.95:3"]
    assert cli.main(argv) == cli.EXIT_VERIFY
    out = capsys.readouterr().out
    n = len(built)
    assert n and built == [VIOLATION] * n
    assert f", {n} violations\n" in out
    assert out.count("\n  violation: ") == out.count("\n    witness: ") == n
    # the same search read in full finds the same violations
    expected = [r for r in list(sweep_verify(grid_of(argv[8::2]), ETAS,
                                             OracleConfig(FULL_SYSTEM, 200, 5)))
                if r.verdict == VIOLATION]
    assert len(expected) == n
    assert all(f"  violation: {r.quantity.label} at " in out for r in expected)


@pytest.mark.parametrize("mode", [PROOF_SET, FULL_SYSTEM])
def test_record_reads_like_the_list_of_its_items(mode):
    cfg = OracleConfig(mode, 300, 5)
    results = sweep_verify(SMALL, ETAS, cfg)
    items = list(sweep_verify(SMALL, ETAS, cfg))
    n = len(items)
    assert isinstance(results, (OracleResults, Sequence)) and len(results) == n == 15
    for i in [0, 1, 4, 5, n - 1, -1, -5, -n]:
        assert results[i] == items[i]
    for part in [slice(None), slice(3, 11), slice(None, None, 5), slice(-7, None),
                 slice(None, None, -3), slice(10, 2), slice(-100, 100)]:
        assert results[part] == items[part]
    for bad in [n, -n - 1]:
        with pytest.raises(IndexError):
            results[bad]
    with pytest.raises(TypeError):
        results[1.0]
    assert results == items and items == results and results == tuple(items)
    assert results == sweep_verify(SMALL, ETAS, cfg)
    assert results != items[:-1] and results != items[::-1] and results != 15
    assert results == [r for r in results]


# tolerances that give each mode all three verdicts on SMALL: two proof-set sups
# exceed their bounds by an ulp, and full-system sups reach 0.66 to 1 of theirs;
# no slack in ulps, so that the verdict is sup <= bound + tol
@pytest.mark.parametrize("mode, tol", [(PROOF_SET, 0.0), (FULL_SYSTEM, -0.05)])
def test_verdicts_come_from_the_codes(monkeypatch, mode, tol):
    monkeypatch.setattr(oracle, "VERDICT_TOL", tol)
    monkeypatch.setattr(oracle, "VERDICT_ULPS", 0)
    cfg = OracleConfig(mode, 300, 5)
    results = sweep_verify(SMALL, ETAS, cfg)
    items = list(sweep_verify(SMALL, ETAS, cfg))
    # the verdict rule: an unsearched result keeps sup inf
    assert [r.verdict for r in items] == [
        SKIPPED if math.isinf(r.sup_value) or math.isinf(r.closed_form_bound)
        else WITHIN_BOUND if r.sup_value <= r.closed_form_bound + tol else VIOLATION
        for r in items]
    assert {r.verdict for r in items} == {WITHIN_BOUND, VIOLATION, SKIPPED}
    for verdict in (WITHIN_BOUND, VIOLATION, SKIPPED):
        assert verdict_indices(results, verdict) == verdict_indices(items, verdict)
    assert violations(results) == violations(items)


def test_each_result_is_built_once(built):
    results = sweep_verify(SMALL, ETAS, OracleConfig(PROOF_SET, 300, 5))
    first = [results[i] for i in range(len(results))]
    assert len(built) == len(results)
    assert all(results[i] is first[i] for i in range(len(results)))
    assert all(a is b for a, b in zip(results[-len(results):], first))
    assert len(built) == len(results)
