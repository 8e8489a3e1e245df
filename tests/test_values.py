"""The value contract of the package's data types (errors.FrozenValue):
repr, equality within one type, hashing, and immutability."""

from fractions import Fraction

import pytest

from forcing_lab import (
    Certificate,
    ClopenPlaneSet,
    ClopenSet,
    Condition,
    ExtendStats,
    IntervalSpec,
    Slalom,
    TaggedWeight,
    ValidationReport,
    Violation,
    WeightFunction,
)
from forcing_lab.acceptance import CriterionResult
from forcing_lab.poset import ClauseViolation


@pytest.mark.parametrize("value, text", [
    (ClopenSet(["01", "00"]), "ClopenSet(generators=frozenset({'0'}))"),
    (ClopenPlaneSet.from_rects([("0", "1")]),
     "ClopenPlaneSet(resolution=(1, 1), rects=frozenset({('0', '1')}))"),
    (TaggedWeight(Fraction(1, 2), WeightFunction.full()),
     "TaggedWeight(eps=Fraction(1, 2), phi=WeightFunction(resolution=(0, 0), "
     "table={('', ''): Fraction(1, 1)}))"),
    (Condition(0, {"": ""}), "Condition(m=0, h={'': ''}, u=())"),
    (IntervalSpec(0, Fraction(1, 3)), "IntervalSpec(left=Fraction(0, 1), right=Fraction(1, 3))"),
    (Certificate(Fraction(1, 4), Fraction(0)),
     "Certificate(inside=Fraction(1, 4), score_f=Fraction(0, 1))"),
    (ValidationReport(True, ()), "ValidationReport(ok=True, violations=(), scores=())"),
    (Slalom((frozenset({1}),)), "Slalom(slots=(frozenset({1}),))"),
    (ExtendStats(1, 1, {}, [], (), {}), "ExtendStats(pinned_m_prime=1, m_prime=1, retries={}, "
                                        "exhaustive_stems=[], scores=(), chosen={})"),
])
def test_repr_names_every_field(value, text):
    assert repr(value) == text


def test_equality_holds_within_one_type_only():
    assert Violation("edge", "x") == Violation("edge", "x")
    assert Violation("edge", "x") != Violation("edge", "y")
    assert Violation("edge", "x") != ClauseViolation("edge", "x")
    assert ClauseViolation("edge", "x") != Violation("edge", "x")
    assert ClopenSet(["0"]).__eq__(frozenset({"0"})) is NotImplemented
    assert ClopenSet(["00", "01"]) == ClopenSet(["0"])  # fields after canonicalizing
    assert hash(ClopenSet(["00", "01"])) == hash(ClopenSet(["0"]))
    assert len({Violation("edge", "x"), Violation("edge", "x"), ClauseViolation("edge", "x")}) == 2


@pytest.mark.parametrize("value", [
    Condition(0, {"": ""}), WeightFunction.full(), ExtendStats(1, 1, {}, [], (), {}),
    ClopenPlaneSet.from_rects([("", "")]),
], ids=["Condition", "WeightFunction", "ExtendStats", "ClopenPlaneSet"])
def test_values_with_unhashable_or_set_semantics_do_not_hash(value):
    with pytest.raises(TypeError):
        hash(value)


@pytest.mark.parametrize("value, field", [
    (ClopenSet(["0"]), "generators"), (Condition(0, {"": ""}), "m"),
    (WeightFunction.full(), "table"), (IntervalSpec(0, 1), "left"),
    (CriterionResult("C", True, "", 0.0, None), "passed"),
    (ExtendStats(1, 2, {}, [], (), {"": 1}), "m_prime"),
], ids=["ClopenSet", "Condition", "WeightFunction", "IntervalSpec", "CriterionResult",
        "ExtendStats"])
def test_fields_cannot_be_set_or_deleted(value, field):
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        setattr(value, "extra", None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == before


def test_constructors_take_their_fields_in_order():
    with pytest.raises(TypeError):
        Certificate(Fraction(1))
    with pytest.raises(TypeError):
        Violation("edge", "x", "extra")
    with pytest.raises(TypeError):
        ExtendStats(1, 2)
    assert Condition(1, {"": "", "0": "", "1": ""}).u == ()
