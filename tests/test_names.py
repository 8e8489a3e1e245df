"""Names, slaloms, and measure-positive refinement."""

import random
from fractions import Fraction

import pytest

from forcing_lab import (
    EMPTY,
    FULL,
    ClopenSet,
    EmptyCondition,
    SlalomViolation,
    boolean_value,
    eventually_different,
    heavy_values,
    infinitely_equal_hits,
    make_name,
    refine_condition,
    slalom_extract,
)
from forcing_lab.names import NonpositiveThreshold, NotAPartition, tail_cutoff


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


def pairwise_verdict(cells, where):
    # reference: the pairwise check the sorted pass replaced; the message
    # make_name should raise, or None for a partition
    labels = [lab for lab, _ in cells]
    if len(labels) != len(set(labels)):
        return f"coordinate {where}: duplicate labels"
    total = Fraction(0)
    for i, (_, a) in enumerate(cells):
        total += sum(Fraction(1, 2 ** len(g)) for g in a.generators)
        for j in range(i + 1, len(cells)):
            if not a.intersect(cells[j][1]).is_empty():
                return f"coordinate {where}: cells {labels[i]!r} and {labels[j]!r} overlap"
    if total != 1:
        return f"coordinate {where}: cell measures sum to {total}, expected 1"
    return None


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
            want = pairwise_verdict(cells, 0)
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


def test_boolean_value():
    g = make_name([halves()])
    assert boolean_value(g, 0, 0) == ClopenSet.from_strings(["0"])
    assert boolean_value(g, 0, 99) == EMPTY


def test_slalom_extract_threshold_is_strict():
    # at n=3 the threshold is 1/16: a cell of exactly 1/16 stays out
    g = make_name([halves(), halves(), halves(), cell_and_rest(5, 6, "0000")])
    s = slalom_extract(g)
    assert s.slots[0] == frozenset()  # threshold 1 at n=0
    assert s.slots[1] == {0, 1}
    assert s.slots[3] == {6}
    assert all(len(s.slots[n]) < (n + 1) ** 2 for n in range(4))


def test_heavy_values():
    assert heavy_values(halves(), Fraction(1, 3)) == {0, 1}
    assert heavy_values(halves(), Fraction(1, 2)) == set()
    with pytest.raises(NonpositiveThreshold):
        heavy_values(halves(), Fraction(0))


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


def test_eventually_different():
    assert eventually_different([1, 2, 3], [4, 5, 6])
    assert not eventually_different([1, 2, 3], [9, 2, 9])
    assert eventually_different([1, 2, 3], [1, 9, 9], start=1)


def test_infinitely_equal_hits():
    g = make_name([halves(), halves(), halves()])
    s = slalom_extract(g)
    assert infinitely_equal_hits([0, 0, 0], s) == {1, 2}  # slot 0 is empty
    assert infinitely_equal_hits([9, 9, 9], s) == set()
