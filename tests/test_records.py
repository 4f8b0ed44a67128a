"""The records that every command builds: ClassParams, SchwarzPair,
BoundReport, FeketeSzegoReport and the two series classes.

They are ``NamedTuple``s and ``__slots__`` classes, so that importing
``chebbounds.cli`` imports no ``dataclasses``.  Each keeps its field names
in order, its repr, its immutability, and equality and hash by value;
ClassParams checks its values however it is built, and a series compares
by its coefficients within its own class.
"""

import pickle

import pytest

from chebbounds.bounds import BoundReport, FeketeSzegoReport, bound_report, fekete_szego_bound
from chebbounds.classop import ClassParams, SchwarzPair
from chebbounds.powerseries import NormalizedSeries, TruncatedSeries

P = ClassParams(1.0, 0.0, 0.0, 0.6)


def records():
    """name -> (record, an equal record built anew, its repr)."""
    pair = SchwarzPair.from_coeffs(0.5, 0.25j, -0.5, 0)
    series = TruncatedSeries.make([1, 2], order=2)
    normalized = NormalizedSeries.from_tail([0.5], order=2)
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
                              "threshold_m=0.3472222222222222, h_eta=-0.72, "
                              "m_variant='corrected')"),
        "TruncatedSeries": (series, TruncatedSeries((1, 2.0, 0j)),
                            "TruncatedSeries(coeffs=((1+0j), (2+0j), 0j))"),
        "NormalizedSeries": (normalized, NormalizedSeries((0, 1, 0.5)),
                             "NormalizedSeries(coeffs=(0j, (1+0j), (0.5+0j)))"),
    }


FIELDS = {
    ClassParams: ("lam", "mu", "delta", "t"),
    SchwarzPair: ("c1", "c2", "d1", "d2", "admissible"),
    BoundReport: ("params", "a2_bound", "a3_bound", "A", "B", "denom", "singular"),
    FeketeSzegoReport: ("params", "eta", "bound", "branch", "threshold_m", "h_eta",
                        "m_variant"),
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
