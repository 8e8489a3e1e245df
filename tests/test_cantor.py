"""Clopen-set algebra: canonical form, exact measure, plane sets."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcing_lab import (
    EMPTY,
    FULL,
    ClopenPlaneSet,
    ClopenSet,
)
from forcing_lab import cantor, oracle
from forcing_lab.cantor import check_bits

bit_strings = st.text(alphabet="01", min_size=0, max_size=6)
gen_lists = st.lists(st.text(alphabet="01", min_size=1, max_size=6), max_size=5)


def test_check_bits_rejects_junk():
    assert check_bits("0101") == "0101"
    with pytest.raises(ValueError):
        check_bits("012")
    with pytest.raises(ValueError):
        check_bits("ab")
    with pytest.raises(ValueError):
        ClopenSet.from_strings(["0", 1])  # checked before the sort compares it


def test_a_bare_string_is_refused():
    # its characters would be one-bit generators: "01" read as the full space
    for build in (ClopenSet, ClopenSet.from_strings):
        with pytest.raises(ValueError, match="^generators must be an iterable of bit strings, "
                                             "not the string '01'$"):
            build("01")


@pytest.mark.parametrize("strings", [
    ["01", "0\u00e9"], ["\udcff"], ["0", 1], ["\uff10"], ["0" * 5000 + "2"],
    ["", "1"] * 3000 + ["x"], ["", "01", "0011"], [],
], ids=["latin", "surrogate", "int", "fullwidth-zero", "long", "late", "bits", "none"])
def test_all_bits_agrees_with_check_bits(strings):
    def each():
        try:
            return all(check_bits(s) is s for s in strings)
        except ValueError:
            return False
    assert cantor._all_bits(strings) == each()


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


def test_long_generators_stay_iterative():
    a = ClopenSet(["0" * 5000, "1"])
    assert a.measure() == Fraction(1, 2) + Fraction(1, 2 ** 5000)
    b = a.complement()
    assert b.generators == frozenset("0" * k + "1" for k in range(1, 5000))
    assert b.complement() == a


@settings(max_examples=80, derandomize=True)
@given(gen_lists, gen_lists)
def test_algebra_matches_leaf_oracle(xs, ys):
    a = ClopenSet.from_strings(xs)
    b = ClopenSet.from_strings(ys)
    la, lb = oracle.bitmap(xs, 6), oracle.bitmap(ys, 6)
    assert oracle.bitmap(a.union(b).generators, 6) == la | lb
    assert oracle.bitmap(a.intersect(b).generators, 6) == la & lb
    assert oracle.bitmap(a.difference(b).generators, 6) == la & ~lb
    assert oracle.bitmap(a.complement().generators, 6) == ((1 << 64) - 1) ^ la
    assert a.measure() == oracle.measure(xs) == Fraction(la.bit_count(), 64)


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


def pairwise_intersect(a: ClopenSet, b: ClopenSet) -> ClopenSet:
    # reference: of each comparable pair of generators, the longer one
    return ClopenSet([t if t.startswith(s) else s
                      for s in a.generators for t in b.generators
                      if t.startswith(s) or s.startswith(t)])


def random_clopen_pair(rng):
    """Up to 30 generators of up to 20 bits each; about half of the second
    set's generators cut or extend one of the first's, so they overlap."""
    def bits(k):
        return "".join(rng.choice("01") for _ in range(k))

    xs = [bits(rng.randint(1, 20)) for _ in range(rng.randint(0, 30))]
    ys = []
    for _ in range(rng.randint(0, 30)):
        if xs and rng.random() < 0.5:
            x = rng.choice(xs)
            ys.append(x[:rng.randint(0, len(x))] if rng.random() < 0.5
                      else (x + bits(rng.randint(0, 20 - len(x))))[:20])
        else:
            ys.append(bits(rng.randint(1, 20)))
    return ClopenSet(xs), ClopenSet(ys)


def test_intersect_and_difference_match_the_pairwise_reference():
    rng = random.Random(20261019)
    proper = 0
    for _ in range(600):
        a, b = random_clopen_pair(rng)
        want = pairwise_intersect(a, b)
        assert a.intersect(b) == want == b.intersect(a), (a, b)
        assert a.difference(b) == pairwise_intersect(a, b.complement()), (a, b)
        # built without the constructor, each result is still canonical
        for result in (a.intersect(b), b.intersect(a), a.difference(b), a.complement()):
            assert result == ClopenSet(result.generators), (a, b)
        proper += not want.is_empty() and want != a and want != b
    assert proper > 200  # most pairs overlap only in part


def test_every_clopen_set_of_depth_at_most_3_matches_the_oracle():
    # small scope: the set whose depth-3 bitmap is i, for each of the 256 i,
    # every ordered pair of them, and every list of 0-3 generators drawn from
    # the 7 strings of length at most 2
    cylinders = [format(j, "03b") for j in range(8)]
    cells = [[c for j, c in enumerate(cylinders) if i >> j & 1] for i in range(256)]
    sets = list(map(ClopenSet, cells))
    for i, a in enumerate(sets):
        assert oracle.bitmap(a.generators, 3) == i
        assert oracle.bitmap(a.complement().generators, 3) == 255 ^ i
        assert a.measure() == oracle.measure(cells[i])
    pairs = 0
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            assert oracle.bitmap(a.union(b).generators, 3) == i | j
            assert oracle.bitmap(a.intersect(b).generators, 3) == i & j
            assert oracle.bitmap(a.difference(b).generators, 3) == i & ~j
            pairs += 1
    short = ["", "0", "1", "00", "01", "10", "11"]
    lists = [[]] + [[g] for g in short]
    lists += [[g, h] for g in short for h in short]
    lists += [[g, h, k] for g in short for h in short for k in short]
    for gens in lists:
        assert ClopenSet(gens).generators == oracle.canonical(gens), gens
    assert (len(sets), pairs, len(lists)) == (256, 65_536, 400)


def test_plane_from_rects_expands_to_common_resolution():
    h = ClopenPlaneSet.from_rects([("0", ""), ("1", "1")])
    assert h.resolution == (1, 1)
    assert h.measure() == Fraction(3, 4)


def test_plane_full_and_empty():
    assert ClopenPlaneSet.from_rects([("", "")], (1, 1)).measure() == 1
    assert ClopenPlaneSet.from_rects([], (2, 0)).measure() == 0
    assert ClopenPlaneSet.from_rects([], (0, 0)).complement().rects == frozenset({("", "")})


def test_plane_equality_across_resolutions():
    coarse = ClopenPlaneSet.from_rects([("0", "0")])
    fine = ClopenPlaneSet.from_rects([("00", "0"), ("01", "0")])
    assert coarse == fine
    assert coarse != ClopenPlaneSet.from_rects([("0", "1")])


def test_plane_is_unhashable():
    with pytest.raises(TypeError):
        hash(ClopenPlaneSet.from_rects([("", "")]))


def test_plane_refuses_coarsening():
    h = ClopenPlaneSet.from_rects([("01", "1")])
    with pytest.raises(ValueError, match="deeper than resolution"):
        ClopenPlaneSet((1, 1), h.rects)


def test_plane_boolean_ops():
    g = ClopenPlaneSet.from_rects([("0", "00")])
    f = g.complement()
    assert f.measure() == Fraction(7, 8)
    assert f.rects | g.rects == ClopenPlaneSet.from_rects([("", "")], (1, 2)).rects
    assert not f.rects & g.rects
    assert f.complement() == g


def test_contains_rect_and_overlap():
    f = ClopenPlaneSet.from_rects([("0", "00")]).complement()
    assert f.contains_rect("1", "")  # [1] x everything avoids the cut cell
    assert not f.contains_rect("0", "0")
    assert f.contains_rect("0", "01")
    assert f.rect_overlap_measure("0", "0") == Fraction(1, 8)  # half of [0]x[0]
    assert f.rect_overlap_measure("", "") == Fraction(7, 8)
    assert f.rect_overlap_measure("00", "000") == Fraction(0)


def test_plane_rejects_off_resolution_rect():
    with pytest.raises(ValueError):
        ClopenPlaneSet((1, 1), frozenset({("00", "1")}))


def test_plane_refuses_oversized_resolution(monkeypatch):
    monkeypatch.setattr(cantor, "_MAX_PLANE_BITS", 4)
    assert ClopenPlaneSet.from_rects([("0", "1")], (2, 2)).complement().measure() == Fraction(3, 4)
    with pytest.raises(ValueError, match="resolution"):
        ClopenPlaneSet.from_rects([("0", "1")], (3, 2))
    with pytest.raises(ValueError, match="resolution"):
        ClopenPlaneSet((3, 2), frozenset())  # refused at construction, even empty
    with pytest.raises(ValueError, match="resolution"):
        ClopenPlaneSet((4, 1), ClopenPlaneSet.from_rects([("0", "1")]).rects)


plane_resolutions = st.tuples(st.integers(0, 4), st.integers(0, 4))


@st.composite
def plane_inputs(draw):
    r1, r2 = draw(plane_resolutions)
    rects = draw(st.lists(st.tuples(st.text("01", max_size=r1), st.text("01", max_size=r2)),
                          max_size=5))
    return (r1, r2), rects


@settings(max_examples=120, derandomize=True)
@given(plane_inputs())
def test_plane_constructor_flattens_like_the_reference(case):
    resolution, rects = case
    f = ClopenPlaneSet(resolution, rects)
    assert f.resolution == resolution
    assert f.rects == oracle.plane_cells(resolution, rects)
    assert f == ClopenPlaneSet.from_rects(rects, resolution)


@settings(max_examples=60, derandomize=True)
@given(plane_inputs(), plane_resolutions)
def test_plane_reflattens_only_to_finer_resolutions(case, extra):
    (r1, r2), rects = case
    f = ClopenPlaneSet((r1, r2), rects)
    finer = ClopenPlaneSet((r1 + extra[0], r2 + extra[1]), f.rects)
    assert finer == f and finer.measure() == f.measure()
    if f.rects and (r1 or r2):
        with pytest.raises(ValueError, match="deeper than resolution"):
            ClopenPlaneSet((max(r1 - 1, 0), max(r2 - 1, 0)), f.rects)


def test_plane_refuses_bad_input_at_construction():
    with pytest.raises(ValueError, match="not a binary string"):
        ClopenPlaneSet((1, 1), [("0", "2")])
    with pytest.raises(ValueError, match="nonnegative"):
        ClopenPlaneSet((-1, 0), [])
    with pytest.raises(ValueError, match="exceeds 16 bits"):
        ClopenPlaneSet((40, 40), frozenset())


@settings(max_examples=150, derandomize=True)
@given(plane_inputs(), st.text("01", max_size=6), st.text("01", max_size=6))
def test_contains_rect_matches_the_enumeration(case, s, t):
    resolution, rects = case
    f = ClopenPlaneSet(resolution, rects)
    cells = oracle.plane_cells(resolution, rects)
    everything = oracle.plane_cells(resolution, [("", "")])
    for g, inside in ((f, cells), (f.complement(), everything - cells)):
        assert g.contains_rect(s, t) == oracle.plane_contains(resolution, inside, s, t)
