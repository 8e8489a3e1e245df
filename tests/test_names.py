"""Names, slaloms, and measure-positive refinement."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcing_lab import (
    EMPTY,
    FULL,
    ClopenSet,
    EmptyCondition,
    HorizonExceeded,
    Slalom,
    SlalomViolation,
    boolean_value,
    make_name,
    refine_condition,
    slalom_extract,
)
from forcing_lab import oracle
from forcing_lab.names import NotAPartition, tail_cutoff


def halves(lo=0, hi=1):
    return [(lo, ClopenSet.from_strings(["0"])), (hi, ClopenSet.from_strings(["1"]))]


def cell_and_rest(label, rest_label, gen):
    cell = ClopenSet.from_strings([gen])
    return [(label, cell), (rest_label, cell.complement())]


def test_make_name_validates_partitions():
    g = make_name([halves(), halves(3, 4)])
    assert g.horizon == 2
    with pytest.raises(NotAPartition):  # overlap
        make_name([[(0, FULL), (1, ClopenSet.from_strings(["1"]))]])
    with pytest.raises(NotAPartition):  # gap
        make_name([[(0, ClopenSet.from_strings(["0"]))]])
    with pytest.raises(NotAPartition):  # duplicate labels
        make_name([[(0, ClopenSet.from_strings(["0"])),
                    (0, ClopenSet.from_strings(["1"]))]])


def partition_verdict(cells):
    """The message the oracle says make_name raises for a coordinate of
    these (label, ClopenSet) cells, or None for a partition."""
    return oracle.partition_problem([(lab, cell.generators) for lab, cell in cells], 0)


def random_partition(rng, max_depth=8):
    """Leaves of a random binary tree of depth <= max_depth, grouped under
    1-6 distinct labels."""
    leaves, stack = [], [""]
    while stack:
        s = stack.pop()
        if len(s) < max_depth and rng.random() < 0.6:
            stack += [s + "0", s + "1"]
        else:
            leaves.append(s)
    count = min(len(leaves), rng.randint(1, 6))
    groups = [[] for _ in range(count)]
    rng.shuffle(leaves)
    for i, leaf in enumerate(leaves):
        groups[i if i < count else rng.randrange(count)].append(leaf)
    labels = rng.sample(range(20), count)
    return [(lab, ClopenSet.from_strings(g)) for lab, g in zip(labels, groups)]


def perturbations(rng, cells):
    """The partition and four ways to break it (or, by chance, not)."""
    yield "intact", cells
    i, j = rng.randrange(len(cells)), rng.randrange(len(cells))
    g = rng.choice(sorted(cells[i][1].generators))

    def with_cell(k, gens):
        out = list(cells)
        out[k] = (cells[k][0], ClopenSet.from_strings(gens))
        return out

    if i != j:
        yield "copied", with_cell(j, cells[j][1].generators | {g})
    deeper = g + "".join(rng.choice("01") for _ in range(rng.randint(1, 3)))
    yield "added-under", with_cell(j, cells[j][1].generators | {deeper})
    yield "dropped", with_cell(i, cells[i][1].generators - {g})
    yield "duplicate-label", cells + [(cells[i][0], EMPTY)]


def test_partition_check_matches_pairwise_reference():
    rng = random.Random(20261018)
    seen = {}
    for _ in range(400):
        for kind, cells in perturbations(rng, random_partition(rng)):
            want = partition_verdict(cells)
            if want is None:
                assert make_name([cells]).horizon == 1
            else:
                with pytest.raises(NotAPartition) as info:
                    make_name([cells])
                assert str(info.value) == want, (kind, cells)
            verdict = "ok" if want is None else want.split()[2]
            seen.setdefault(kind, set()).add(verdict)
    # every perturbation hit the verdict it exists to provoke
    assert "ok" in seen["intact"] and "ok" in seen["added-under"]
    assert "cells" in seen["copied"] and "cells" in seen["added-under"]
    assert "cell" in seen["dropped"] and "duplicate" in seen["duplicate-label"]


def chained_cells(rng):
    """A partition with 3-7 extra cells that each hold a link of one prefix
    chain (now and then one link twice), in shuffled cell order."""
    cells = random_partition(rng)
    chain = "".join(rng.choice("01") for _ in range(rng.randint(5, 12)))
    links = [chain[:k] for k in rng.sample(range(len(chain) + 1), rng.randint(3, 6))]
    if rng.random() < 0.3:
        links.append(rng.choice(links))
    labels = rng.sample(range(20, 60), len(links))
    cells += [(lab, ClopenSet([s])) for lab, s in zip(labels, links)]
    rng.shuffle(cells)
    return cells


def test_chained_overlaps_match_pairwise_reference():
    rng = random.Random(20261019)
    # sorted order meets "" and "0" first; cell order meets "00" and "" first
    fixed = [(7, ClopenSet(["00"])), (3, ClopenSet(["1"])), (5, FULL), (9, ClopenSet(["0"]))]
    assert partition_verdict(fixed) == "coordinate 0: cells 7 and 5 overlap"
    for cells in [fixed, *(chained_cells(rng) for _ in range(300))]:
        want = partition_verdict(cells)
        assert want is not None and "overlap" in want
        with pytest.raises(NotAPartition) as info:
            make_name([cells])
        assert str(info.value) == want, cells


def test_gap_of_two_to_the_minus_twenty_is_refused():
    # the cells 1, 01, ..., 0^19 1 cover all but the cylinder [0^20]
    cells = [(k, ClopenSet(["0" * k + "1"])) for k in range(20)]
    with pytest.raises(NotAPartition) as info:
        make_name([halves(), cells])
    assert str(info.value) == "coordinate 1: cell measures sum to 1048575/1048576, expected 1"
    assert make_name([cells + [(20, ClopenSet(["0" * 20]))]]).horizon == 1


def name_verdict(coords):
    """make_name's result in the oracle's plain form: per coordinate a tuple
    of (label, generators) cells, or the (error type name, message)."""
    try:
        g = make_name(coords)
    except (ValueError, NotAPartition) as exc:
        return type(exc).__name__, str(exc)
    return tuple(tuple((lab, cell.generators) for lab, cell in coord) for coord in g.cells)


@st.composite
def broken_coordinates(draw):
    """A coordinate as (label, generator list) pairs: the leaves of a random
    tree of depth <= 6 dealt to 1-6 labels, so cells hold siblings that
    merge, then left intact, given in a form that is not yet canonical, or
    broken in one of the ways make_name refuses."""
    leaves, stack = [], [""]
    while stack:
        s = stack.pop()
        if len(s) < 6 and draw(st.booleans()):
            stack += [s + "1", s + "0"]
        else:
            leaves.append(s)
    count = draw(st.integers(1, min(6, len(leaves))))
    labels = draw(st.lists(st.integers(0, 30), min_size=count, max_size=count, unique=True))
    owner = draw(st.lists(st.integers(0, count - 1), min_size=len(leaves),
                          max_size=len(leaves)))
    cells = [[leaf for leaf, o in zip(leaves, owner) if o == i] for i in range(count)]
    i, j = draw(st.integers(0, count - 1)), draw(st.integers(0, count - 1))
    g = draw(st.sampled_from(leaves))
    tail = draw(st.text("01", min_size=1, max_size=3))
    kind = draw(st.sampled_from([
        "intact", "repeat", "extension-inside", "overlap", "copied", "chain", "short",
        "dropped", "half-twice", "duplicate-label", "bad-bit", "bad-label", "string-cell"]))
    if kind == "repeat" and cells[i]:
        cells[i].append(cells[i][0])
    elif kind == "extension-inside" and cells[i]:
        cells[i].append(cells[i][-1] + tail)
    elif kind == "overlap":
        cells[j].append(g + tail)
    elif kind == "copied":
        cells[j].append(g)
    elif kind == "chain":  # overlaps several cells deep, in shuffled cell order
        chain = g + tail + tail
        links = sorted(set(draw(st.lists(st.integers(0, len(chain)), min_size=2, max_size=5))))
        cells += [[chain[:k]] for k in links]
        labels += range(40, 40 + len(links))
        order = draw(st.permutations(range(len(cells))))
        cells, labels = [cells[k] for k in order], [labels[k] for k in order]
    elif kind == "short":  # 1, 01, ..., 0^19 1: all but the cylinder [0^20]
        return [(k, ["0" * k + "1"]) for k in range(20)]
    elif kind == "dropped":
        cells = [[h for h in cell if h != g] for cell in cells]
    elif kind == "half-twice":  # the measures still sum to 1, over a gap
        cells = [[h for h in cell if h != g] for cell in cells]
        cells[i].append(g + "0")
        cells[j].append(g + "0")
    elif kind == "duplicate-label":
        cells.append([])
        labels.append(labels[i])
    elif kind == "bad-bit":
        cells[i].append(draw(st.sampled_from(["2", "01x", "0\u00e9", "\uff11"])))
    elif kind == "bad-label":
        labels[i] = draw(st.sampled_from([0.5, 2.5, "3", None]))
    elif kind == "string-cell":
        cells[i] = "".join(cells[i]) or "0"
    return list(zip(labels, cells))


def as_given(coords, form):
    """The cells as make_name is handed them: lists, tuples, one-pass
    iterators, or ClopenSets where a cell is a list of bit strings."""
    def cell(gens):
        if isinstance(gens, str) or form == "list":
            return gens
        if form == "tuple":
            return tuple(gens)
        if form == "iterator":
            return iter(gens)
        return ClopenSet(gens) if not any(set(g) - {"0", "1"} for g in gens) else gens
    return [[(lab, cell(gens)) for lab, gens in coord] for coord in coords]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.lists(broken_coordinates(), max_size=4),
       st.sampled_from(["list", "tuple", "iterator", "ClopenSet"]))
def test_make_name_matches_the_per_cell_reference(coords, form):
    assert name_verdict(as_given(coords, form)) == oracle.name(coords)


@pytest.mark.parametrize("coords, message", [
    # chained overlap four cells deep, the first pair named in cell order
    ([[(1, ["1"]), (2, ["0"]), (3, ["01"]), (4, ["011"]), (5, ["0110"])]],
     "coordinate 0: cells 2 and 3 overlap"),
    ([[(0, ["0", "1"])], [(k, ["0" * k + "1"]) for k in range(20)]],
     "coordinate 1: cell measures sum to 1048575/1048576, expected 1"),
    # a partition error in coordinate 0 and a bad bit in coordinate 2: the
    # bits of the whole name are checked first
    ([[(0, ["0"]), (1, ["0"])], [(0, [""])], [(0, ["1"]), (1, ["0", "2"])]],
     "not a binary string: '2'"),
    ([[(0, ["0"]), (1, ["1"])], [(0, ["01", "00"]), (1.0, ["1"])]],
     "coordinate 1: label 1.0 is not an int"),
    # the measures sum to 1, but two cells overlap and [1] is uncovered
    ([[(0, ["0"]), (1, ["00", "01"])]], "coordinate 0: cells 0 and 1 overlap"),
], ids=["chain", "short", "late-bad-bit", "float-label", "overlap-over-a-gap"])
def test_make_name_refusals_match_the_reference(coords, message):
    want = oracle.name(coords)
    assert want[1] == message
    assert name_verdict(coords) == want


def test_make_name_refuses_labels_that_are_not_ints():
    # int() would truncate them: 0.9 next to 0 read as a duplicate label,
    # 2.5 as the label 2
    with pytest.raises(ValueError, match=r"^coordinate 0: label 0\.9 is not an int$"):
        make_name([[(0.9, ["0"]), (0, ["1"])]])
    with pytest.raises(ValueError, match=r"^coordinate 1: label 2\.5 is not an int$"):
        make_name([halves(), [(2.5, FULL)]])
    assert make_name([[(True, FULL)]]).cells == (((1, FULL),),)  # an int subclass, as int


def test_make_name_refuses_a_bare_string_cell():
    with pytest.raises(ValueError, match="^generators must be an iterable of bit strings, "
                                         "not the string '01'$"):
        make_name([[(0, "01"), (1, ["1", "00"])]])


def test_make_name_canonicalizes_given_generators_and_keeps_clopen_sets():
    # siblings merge, cascading; an extension is absorbed and a repeat
    # dropped; a ClopenSet cell, canonical already, is kept as the same value
    right = ClopenSet(["1"])
    assert right.mass == (1, 2)
    g = make_name([[(0, ["000", "001", "01"]), (1, ["10"]), (2, ["11"])],
                   [(0, ["000", "001", "01", "011"]), (1, ["10", "10"]), (2, ("11",))],
                   [(0, iter(["01", "00"])), (1, right)]])
    assert g.coordinate(0) == g.coordinate(1) == (
        (0, ClopenSet(["0"])), (1, ClopenSet(["10"])), (2, ClopenSet(["11"])))
    assert g.coordinate(2) == ((0, ClopenSet(["0"])), (1, right))
    assert g.coordinate(2)[1][1] is right


def test_slalom_extract_matches_a_fraction_threshold_reference():
    rng = random.Random(2028)
    heavy = 0
    for _ in range(60):
        horizon = rng.randint(1, 12)
        g = make_name([random_partition(rng, max_depth=rng.randint(2, 10))
                       for _ in range(horizon)])
        # reference: each cell's measure summed from its generators afresh
        want = tuple(
            frozenset(lab for lab, cell in g.coordinate(n)
                      if sum(Fraction(1, 2 ** len(s)) for s in cell.generators)
                      > Fraction(1, (n + 1) ** 2))
            for n in range(horizon))
        assert slalom_extract(g).slots == want
        heavy += sum(map(len, want))
    assert heavy > 100


def test_boolean_value():
    g = make_name([halves()])
    assert boolean_value(g, 0, 0) == ClopenSet.from_strings(["0"])
    assert boolean_value(g, 0, 99) == EMPTY
    with pytest.raises(HorizonExceeded):
        g.coordinate(1)


def test_slalom_extract_threshold_is_strict():
    # at n=3 the threshold is 1/16: a cell of exactly 1/16 stays out
    g = make_name([halves(), halves(), halves(), cell_and_rest(5, 6, "0000")])
    s = slalom_extract(g)
    assert s.slots[0] == frozenset()  # threshold 1 at n=0
    assert s.slots[1] == {0, 1}
    assert s.slots[3] == {6}
    assert all(len(s.slots[n]) < (n + 1) ** 2 for n in range(4))
    with pytest.raises(ValueError, match="^slot 0 holds 2 labels, cap is 1$"):
        Slalom((frozenset({1, 2}),))


def test_refine_exact_measure():
    # three pairwise disjoint value cells of measures 1/16, 1/32, 1/64
    g = make_name([
        halves(), halves(), halves(),
        cell_and_rest(0, 7, "0000"),
        cell_and_rest(0, 7, "00010"),
        cell_and_rest(0, 7, "000110"),
    ])
    f = [99, 99, 99, 0, 0, 0]
    q, n = refine_condition(FULL, g, f, start=1)
    assert n == 3
    assert q.measure() == Fraction(57, 64)
    for k in range(n, 6):
        assert q.intersect(boolean_value(g, k, f[k])).is_empty()


def test_refine_cutoff_scales_with_measure():
    g = make_name([halves() for _ in range(8)])
    p = ClopenSet.from_strings(["00"])  # measure 1/4
    q, n = refine_condition(p, g, [99] * 8, start=1)
    # least n above 1 with 1/(n-1) < 1/4 is 6
    assert n == 6
    assert q == p  # absent labels have empty value cells


def linear_cutoff(mu, start):
    # reference: the linear search tail_cutoff replaced, about 1/mu steps
    n = max(start, 1) + 1
    while Fraction(1, n - 1) >= mu:
        n += 1
    return n


def test_tail_cutoff_matches_linear_search():
    measures = {Fraction(p, q) for q in range(1, 65) for p in range(1, q + 1)}
    for mu in measures:
        for start in range(71):
            assert tail_cutoff(mu, start) == linear_cutoff(mu, start), (mu, start)


def test_refine_rejects_slalom_values():
    g = make_name([halves(), halves()])
    with pytest.raises(SlalomViolation) as info:
        refine_condition(FULL, g, [99, 1], start=1)
    assert info.value.coordinate == 1
    assert info.value.label == 1


def test_refine_start_shields_early_coordinates():
    g = make_name([halves(), halves(), halves()])
    q, n = refine_condition(FULL, g, [0, 99, 99], start=1)  # f(0) heavy but shielded
    assert n == 3
    assert q == FULL


def test_refine_requires_positive_measure():
    g = make_name([halves()])
    with pytest.raises(EmptyCondition):
        refine_condition(EMPTY, g, [0], start=0)


def test_refine_requires_full_length_function():
    g = make_name([halves(), halves()])
    with pytest.raises(ValueError):
        refine_condition(FULL, g, [0], start=0)

