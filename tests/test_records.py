"""The records that the commands build: ClassParams, SchwarzPair,
BoundReport, FeketeSzegoReport and the two series classes, and verify's
OracleConfig, Quantity, Witness, OracleResult and ReductionResult.

They are ``NamedTuple``s and ``__slots__`` classes, so that no command
imports ``dataclasses``.  Each keeps its field names in order, its repr,
its immutability, and equality and hash by value; ClassParams and Quantity
check their values however they are built, and a series compares by its
coefficients within its own class.
"""

import math
import pickle

import pytest

from chebbounds.bounds import BoundReport, FeketeSzegoReport, bound_report, fekete_szego_bound
from chebbounds.classop import FULL_SYSTEM, PROOF_SET, ClassParams, SchwarzPair
from chebbounds.oracle import (
    A2,
    WITHIN_BOUND,
    OracleConfig,
    OracleResult,
    Quantity,
    Witness,
    fs_quantity,
)
from chebbounds.powerseries import NormalizedSeries, TruncatedSeries
from chebbounds.reductions import ReductionResult, reduction_check

P = ClassParams(1.0, 0.0, 0.0, 0.6)


def records():
    """name -> (record, an equal record built anew, its repr)."""
    pair = SchwarzPair.from_coeffs(0.5, 0.25j, -0.5, 0)
    series = TruncatedSeries.make([1, 2], order=2)
    normalized = NormalizedSeries.from_tail([0.5], order=2)
    witness = Witness(pair, 0.5j, 0.25 + 0j)
    result = (A2, P, PROOF_SET, 0.5, witness, 30, 0, 5, 1.25, WITHIN_BOUND)
    pair_text = "SchwarzPair(c1=(0.5+0j), c2=0.25j, d1=(-0.5+0j), d2=0j, admissible=True)"
    return {
        "ClassParams": (P, ClassParams(1, 0, -0.0, 0.6),
                        "ClassParams(lam=1.0, mu=0.0, delta=0.0, t=0.6)"),
        "SchwarzPair": (pair, SchwarzPair((0.5 + 0j), 0.25j, (-0.5 + 0j), 0j, True),
                        "SchwarzPair(c1=(0.5+0j), c2=0.25j, d1=(-0.5+0j), d2=0j, "
                        "admissible=True)"),
        "BoundReport": (bound_report(P), bound_report(ClassParams(1, 0, 0, 0.6)),
                        "BoundReport(params=ClassParams(lam=1.0, mu=0.0, delta=0.0, t=0.6), "
                        "a2_bound=1.3145341380123985, a3_bound=2.04, A=1.0, B=2.0, denom=1.0, "
                        "singular=False)"),
        "FeketeSzegoReport": (fekete_szego_bound(P, 2.0), fekete_szego_bound(P, 2),
                              "FeketeSzegoReport(params=ClassParams(lam=1.0, mu=0.0, "
                              "delta=0.0, t=0.6), eta=2.0, bound=1.728, branch='sloped', "
                              "threshold_m=0.3472222222222222, m_variant='corrected')"),
        "TruncatedSeries": (series, TruncatedSeries((1, 2.0, 0j)),
                            "TruncatedSeries(coeffs=((1+0j), (2+0j), 0j))"),
        "NormalizedSeries": (normalized, NormalizedSeries((0, 1, 0.5)),
                             "NormalizedSeries(coeffs=(0j, (1+0j), (0.5+0j)))"),
        "OracleConfig": (OracleConfig(FULL_SYSTEM, 200, 5),
                         OracleConfig(mode=FULL_SYSTEM, n_samples=200, seed=5),
                         "OracleConfig(mode='full-system', n_samples=200, seed=5)"),
        "Quantity": (fs_quantity(2.0), Quantity("fs", 2), "Quantity(kind='fs', eta=2.0)"),
        "Witness": (witness, Witness(SchwarzPair.from_coeffs(0.5, 0.25j, -0.5, 0), 0.5j, 0.25),
                    f"Witness(schwarz={pair_text}, a2=0.5j, a3=(0.25+0j))"),
        # a witness built on first read equals one given
        "OracleResult": (OracleResult(*result),
                         OracleResult(*result[:4], lambda: Witness(pair, 0.5j, 0.25), *result[5:]),
                         "OracleResult(quantity=Quantity(kind='a2', eta=None), "
                         "params=ClassParams(lam=1.0, mu=0.0, delta=0.0, t=0.6), "
                         f"mode='proof-set', sup_value=0.5, witness=Witness(schwarz={pair_text}, "
                         "a2=0.5j, a3=(0.25+0j)), n_samples=30, n_infeasible=0, seed=5, "
                         "closed_form_bound=1.25, verdict='within-bound')"),
        "ReductionResult": (reduction_check("coef-basic"),
                            ReductionResult("coef-basic", 81, 0.0, True),
                            "ReductionResult(corollary='coef-basic', n_points=81, "
                            "max_deviation=0.0, passed=True)"),
    }


FIELDS = {
    ClassParams: ("lam", "mu", "delta", "t"),
    SchwarzPair: ("c1", "c2", "d1", "d2", "admissible"),
    BoundReport: ("params", "a2_bound", "a3_bound", "A", "B", "denom", "singular"),
    FeketeSzegoReport: ("params", "eta", "bound", "branch", "threshold_m", "m_variant"),
    OracleConfig: ("mode", "n_samples", "seed"),
    Quantity: ("kind", "eta"),
    Witness: ("schwarz", "a2", "a3"),
    OracleResult: ("quantity", "params", "mode", "sup_value", "witness", "n_samples",
                   "n_infeasible", "seed", "closed_form_bound", "verdict"),
    ReductionResult: ("corollary", "n_points", "max_deviation", "passed"),
}


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_tuple_records_keep_their_fields_in_order(cls):
    assert cls._fields == FIELDS[cls]


def test_series_keep_their_one_field():
    for cls, coeffs in ((TruncatedSeries, (1, 2)), (NormalizedSeries, (0, 1, 3))):
        assert cls(coeffs=coeffs).coeffs == tuple(map(complex, coeffs))


@pytest.mark.parametrize("name", list(records()))
def test_repr(name):
    record, _, text = records()[name]
    assert repr(record) == text


@pytest.mark.parametrize("name", list(records()))
def test_fields_cannot_be_assigned(name):
    record, _, _ = records()[name]
    field = getattr(type(record), "_fields", ("coeffs",))[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", list(records()))
def test_equal_values_give_equal_records_and_hashes(name):
    record, again, _ = records()[name]
    assert record is not again
    assert record == again
    assert hash(record) == hash(again)
    assert len({record, again}) == 1


def test_class_params_check_their_values_however_built():
    assert P == (1.0, 0.0, 0.0, 0.6)
    lam, mu, delta, t = P
    assert (lam, t) == (1.0, 0.6)
    assert pickle.loads(pickle.dumps(P)) == P
    assert P._replace(lam=2) == ClassParams(2.0, 0.0, 0.0, 0.6)
    with pytest.raises(ValueError, match="lambda must be >= 1, got 0.5"):
        P._replace(lam=0.5)
    with pytest.raises(ValueError, match=r"t must lie in the open interval \(1/2, 1\), got 0.5"):
        ClassParams(lam=1, mu=0, delta=0, t=0.5)
    # a pickle carries the values, not the checked record: loading checks them again
    unchecked = tuple.__new__(ClassParams, (1.0, -1.0, 0.0, 0.6))
    with pytest.raises(ValueError, match="mu must be >= 0, got -1.0"):
        pickle.loads(pickle.dumps(unchecked))


def test_quantity_checks_its_values_however_built():
    q = fs_quantity(2)
    assert q == ("fs", 2.0) and q.label == "fs@2"
    assert math.copysign(1.0, Quantity("fs", -0.0).eta) == 1.0
    assert pickle.loads(pickle.dumps(q)) == q
    assert q._replace(eta=1) == fs_quantity(1.0)
    with pytest.raises(ValueError, match="a2 quantity takes no eta"):
        q._replace(kind="a2")
    with pytest.raises(ValueError, match="eta must be finite, got nan"):
        q._replace(eta=math.nan)
    with pytest.raises(ValueError, match="fs quantity needs an eta value"):
        Quantity._make(("fs", None))
    # a pickle carries the values, not the checked record: loading checks them again
    unchecked = tuple.__new__(Quantity, ("a4", None))
    with pytest.raises(ValueError, match="unknown quantity kind 'a4'"):
        pickle.loads(pickle.dumps(unchecked))


def test_series_equality_follows_coeffs():
    s = TruncatedSeries.make([1, 2], order=2)
    assert s == TruncatedSeries((1, 2, 0))
    assert s != TruncatedSeries((1, 2, 1e-300))
    assert s != TruncatedSeries((1, 2))
    assert s != s.coeffs
    # each class equals only its own kind, as the dataclasses did
    f = NormalizedSeries.from_tail([0.5], order=2)
    assert f != TruncatedSeries(f.coeffs)
    assert pickle.loads(pickle.dumps(f)) == f


@pytest.mark.parametrize("coeffs, message", [
    ((1, 1, 0), r"must start \(0, 1, ...\), got \(\(1\+0j\), \(1\+0j\), ...\)"),
    ((0, 2, 0), r"must start \(0, 1, ...\), got \(0j, \(2\+0j\), ...\)"),
    ((0,), "a normalized series needs order >= 1"),
    ((), "a series needs at least its constant coefficient"),
])
def test_normalized_series_reject_a_bad_head(coeffs, message):
    with pytest.raises(ValueError, match=message):
        NormalizedSeries(coeffs)
