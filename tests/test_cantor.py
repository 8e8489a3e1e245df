"""Clopen-set algebra: canonical form, exact measure, plane sets."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcing_lab import (
    EMPTY,
    FULL,
    ClopenPlaneSet,
    ClopenSet,
    ResolutionTooCoarse,
    canonicalize,
)
from forcing_lab.cantor import check_bits

bit_strings = st.text(alphabet="01", min_size=0, max_size=6)
gen_lists = st.lists(st.text(alphabet="01", min_size=1, max_size=6), max_size=5)


def leaves(a: ClopenSet, depth: int) -> set[str]:
    # flat oracle: which depth-level cylinders lie inside a
    out = set()
    for s in a.generators:
        assert len(s) <= depth
        for i in range(2 ** (depth - len(s))):
            out.add(s + format(i, f"0{depth - len(s)}b") if len(s) < depth else s)
    return out


def test_check_bits_rejects_junk():
    assert check_bits("0101") == "0101"
    with pytest.raises(ValueError):
        check_bits("012")
    with pytest.raises(ValueError):
        check_bits("ab")
    with pytest.raises(ValueError):
        ClopenSet.from_strings(["0", 1])  # checked before the sort compares it


def test_canonical_merges_siblings():
    assert ClopenSet.from_strings(["00", "01"]).generators == frozenset({"0"})
    assert ClopenSet.from_strings(["0", "1"]) == FULL
    assert ClopenSet.from_strings(["0", "10", "11"]) == FULL


def test_canonical_absorbs_prefixes():
    assert ClopenSet.from_strings(["0", "00"]).generators == frozenset({"0"})
    assert ClopenSet.from_strings(["", "1"]) == FULL
    assert ClopenSet.from_strings([]) == EMPTY


def test_constructor_canonicalizes():
    assert ClopenSet(frozenset({"00", "01"})) == ClopenSet.from_strings(["0"])  # siblings
    assert ClopenSet(frozenset({"0", "01"})).generators == {"0"}  # prefix pair
    with pytest.raises(ValueError):
        ClopenSet(frozenset({"2"}))


@settings(max_examples=80, derandomize=True)
@given(gen_lists)
def test_constructor_matches_from_strings(xs):
    assert ClopenSet(frozenset(xs)) == ClopenSet.from_strings(xs)


def test_measure_and_complement():
    a = ClopenSet.from_strings(["0", "10"])
    assert a.measure() == Fraction(3, 4)
    assert a.complement().generators == frozenset({"11"})
    assert EMPTY.measure() == 0 and FULL.measure() == 1
    assert EMPTY.complement() == FULL


def test_operators_match_methods():
    a = ClopenSet.from_strings(["00"])
    b = ClopenSet.from_strings(["0"])
    assert (a | b) == b
    assert (a & b) == a
    assert (b - a).generators == frozenset({"01"})
    assert (~b).generators == frozenset({"1"})


def test_contains_cylinder():
    a = ClopenSet.from_strings(["01"])
    assert a.contains_cylinder("011")
    assert a.contains_cylinder("01")
    assert not a.contains_cylinder("0")
    assert not a.contains_cylinder("1")


def test_canonicalize_helper():
    assert canonicalize(["11", "10"]).generators == frozenset({"1"})


def test_long_generators_stay_iterative():
    a = canonicalize(["0" * 5000, "1"])
    assert a.measure() == Fraction(1, 2) + Fraction(1, 2 ** 5000)
    b = a.complement()
    assert b.generators == frozenset("0" * k + "1" for k in range(1, 5000))
    assert b.complement() == a


@settings(max_examples=80, derandomize=True)
@given(gen_lists, gen_lists)
def test_algebra_matches_leaf_oracle(xs, ys):
    a = ClopenSet.from_strings(xs)
    b = ClopenSet.from_strings(ys)
    la, lb = leaves(a, 6), leaves(b, 6)
    space = {format(i, "06b") for i in range(64)}
    assert leaves(a.union(b), 6) == la | lb
    assert leaves(a.intersect(b), 6) == la & lb
    assert leaves(a.difference(b), 6) == la - lb
    assert leaves(a.complement(), 6) == space - la
    assert a.measure() == Fraction(len(la), 64)


@settings(max_examples=80, derandomize=True)
@given(gen_lists, gen_lists)
def test_inclusion_exclusion(xs, ys):
    a = ClopenSet.from_strings(xs)
    b = ClopenSet.from_strings(ys)
    assert a.union(b).measure() + a.intersect(b).measure() == a.measure() + b.measure()
    assert a.complement().complement() == a


@settings(max_examples=120, derandomize=True)
@given(st.lists(st.text(alphabet="01", max_size=12), max_size=8))
def test_measure_sums_generator_cylinders(xs):
    for a in (ClopenSet.from_strings(xs), EMPTY, FULL):
        assert a.measure() == sum(Fraction(1, 2 ** len(g)) for g in a.generators)


def test_plane_from_rects_expands_to_common_resolution():
    h = ClopenPlaneSet.from_rects([("0", ""), ("1", "1")])
    assert h.resolution == (1, 1)
    assert h.measure() == Fraction(3, 4)


def test_plane_full_and_empty():
    assert ClopenPlaneSet.full((1, 1)).measure() == 1
    assert ClopenPlaneSet.empty((2, 0)).measure() == 0
    assert ClopenPlaneSet.full((0, 0)).rects == frozenset({("", "")})


def test_plane_equality_across_resolutions():
    coarse = ClopenPlaneSet.from_rects([("0", "0")])
    fine = ClopenPlaneSet.from_rects([("00", "0"), ("01", "0")])
    assert coarse == fine
    assert coarse != ClopenPlaneSet.from_rects([("0", "1")])


def test_plane_is_unhashable():
    with pytest.raises(TypeError):
        hash(ClopenPlaneSet.full((0, 0)))


def test_plane_refuses_coarsening():
    h = ClopenPlaneSet.from_rects([("01", "1")])
    with pytest.raises(ResolutionTooCoarse):
        h.at_resolution(1, 1)


def test_plane_boolean_ops():
    g = ClopenPlaneSet.from_rects([("0", "00")])
    f = g.complement()
    assert f.measure() == Fraction(7, 8)
    assert g.union(f) == ClopenPlaneSet.full((1, 2))
    assert g.intersect(f).measure() == 0
    assert f.difference(g) == f


def test_contains_rect_and_overlap():
    f = ClopenPlaneSet.from_rects([("0", "00")]).complement()
    assert f.contains_rect("1", "")  # [1] x everything avoids the cut cell
    assert not f.contains_rect("0", "0")
    assert f.contains_rect("0", "01")
    assert f.rect_overlap_measure("0", "0") == Fraction(1, 8)  # half of [0]x[0]
    assert f.rect_overlap_measure("", "") == Fraction(7, 8)
    assert f.rect_overlap_measure("00", "000") == Fraction(0)


def test_section_x():
    h = ClopenPlaneSet.from_rects([("0", "00"), ("0", "1")])
    assert h.section_x("0") == ClopenSet.from_strings(["00", "1"])
    assert h.section_x("01").measure() == Fraction(3, 4)
    with pytest.raises(ResolutionTooCoarse):
        h.section_x("")


def test_plane_rejects_off_resolution_rect():
    with pytest.raises(ValueError):
        ClopenPlaneSet((1, 1), frozenset({("00", "1")}))
