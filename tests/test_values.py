"""The value contract of the package's data types (errors.FrozenValue):
fields read from the class annotations, repr, equality within one type,
hashing, and immutability."""

from __future__ import annotations

import importlib
from fractions import Fraction
from functools import cached_property

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
from forcing_lab.errors import FrozenValue
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


class _Point(FrozenValue):
    x: int
    y: int
    label: str = "origin"
    scale = 10  # not annotated, so not a field

    @cached_property
    def norm(self) -> int:
        return self.x * self.x + self.y * self.y


def test_a_value_class_takes_its_fields_from_its_annotations():
    point = _Point(1, 2)
    assert _Point._fields == ("x", "y", "label")
    assert (point.label, point.norm, point.scale) == ("origin", 5, 10)
    assert point == _Point(1, 2, "origin") != _Point(1, 2, "other")
    assert hash(point) == hash(_Point(1, 2, "origin"))
    assert repr(point) == "_Point(x=1, y=2, label='origin')"
    with pytest.raises(TypeError, match="takes 3 arguments, got 1"):
        _Point(1)
    with pytest.raises(TypeError, match="takes 3 arguments, got 4"):
        _Point(1, 2, "origin", "extra")


# The fields of every value class of the package, pinned so that a Python
# version that reports class annotations differently fails here instead of
# silently dropping a field from equality, hashing and repr.
FIELDS = {
    "acceptance.CriterionResult": ("name", "passed", "detail", "elapsed", "budget"),
    "cantor.ClopenPlaneSet": ("resolution", "rects"),
    "cantor.ClopenSet": ("generators",),
    "diagram.DiagramAssignment": ("values",),
    "diagram.DiagramVerdict": ("ok", "violations"),
    "diagram.TransferConstraint": ("node", "relation", "bound", "source"),
    "diagram.Violation": ("kind", "detail"),
    "names.FiniteName": ("horizon", "cells"),
    "names.Slalom": ("slots",),
    "poset.CenteredIndex": ("size", "k", "stem", "tags"),
    "poset.Certificate": ("inside", "score_f"),
    "poset.ClauseViolation": ("clause", "detail"),
    "poset.Condition": ("m", "h", "u"),
    "poset.ExtendStats": (
        "pinned_m_prime", "m_prime", "retries", "exhaustive_stems", "scores", "chosen"),
    "poset.ScheduledCover": ("cover", "eps", "at_step"),
    "poset.TaggedWeight": ("eps", "phi"),
    "poset.TraceEntry": ("step", "action", "depth", "certificates"),
    "poset.ValidationReport": ("ok", "violations", "scores"),
    "poset.WeightFunction": ("resolution", "table"),
    "smz.IntervalSpec": ("left", "right"),
    "smz.RapidityVerdict": ("ok", "witness", "counts"),
    "smz.ThinSetVerdict": ("ok", "max_ratio", "witness"),
}


def test_every_value_class_of_the_package_has_its_pinned_fields():
    for module in {name.split(".")[0] for name in FIELDS}:
        importlib.import_module(f"forcing_lab.{module}")
    found = {f"{cls.__module__.removeprefix('forcing_lab.')}.{cls.__qualname__}": cls._fields
             for cls in FrozenValue.__subclasses__() if cls.__module__.startswith("forcing_lab.")}
    assert found == FIELDS
