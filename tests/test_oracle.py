"""The oracle module: it imports the standard library alone, and its models
are pinned to hand-computed values, so that an oracle edited to agree with
a bug fails here."""

import ast
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from forcing_lab import oracle


@pytest.mark.installed
def test_the_oracle_imports_the_standard_library_alone():
    # read from the forcing_lab this test imported, installed or from src/
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import of {node.module!r}"
            modules.append(node.module)
    roots = {module.split(".")[0] for module in modules}
    assert "forcing_lab" not in roots
    assert roots <= sys.stdlib_module_names, sorted(roots - sys.stdlib_module_names)


# 1/4 on [0] x [0] and 1/8 on [1] x [1]
WEIGHT = {"resolution": [1, 1], "table": [["0", "0", "1/4"], ["1", "1", "1/8"]]}
FULL = {"resolution": [0, 0], "table": [["", "", "1"]]}


@pytest.mark.parametrize("weight, s, t, want", [
    (WEIGHT, "", "", Fraction(3, 8)),
    (WEIGHT, "0", "", Fraction(1, 4)),
    (WEIGHT, "", "1", Fraction(1, 8)),
    (WEIGHT, "1", "0", 0),
    (WEIGHT, "01", "0", Fraction(1, 8)),  # one halving past the x-resolution
    (WEIGHT, "11", "11", Fraction(1, 32)),  # one in each coordinate
    (FULL, "01", "1", Fraction(1, 8)),
])
def test_weight_at_is_pinned(weight, s, t, want):
    assert oracle.weight_at(weight, s, t) == want


@pytest.mark.parametrize("tops, weight, want", [
    ({"0": "0", "1": "1"}, WEIGHT, Fraction(3, 4)),  # 2·1/4 + 2·1/8
    ({"": "0"}, WEIGHT, Fraction(1, 2)),  # a top above the x-resolution
    ({"00": "0", "01": "0", "10": "1", "11": "10"}, WEIGHT, Fraction(3, 4)),
    ({"0": "", "1": "01"}, FULL, 1),  # the full weight scores 1
])
def test_stem_score_is_pinned(tops, weight, want):
    assert oracle.stem_score(tops, weight) == want


OLD = {"": "", "0": "1", "1": ""}
GROWN = {**OLD, "00": "10", "01": "11", "10": "0", "11": "1"}


@pytest.mark.parametrize("h, m, want", [
    (GROWN, 2, []),
    ({**GROWN, "11": ""}, 2, ["top '11' is not its base plus one bit"]),
    ({**GROWN, "01": "01"}, 2, ["top '01' is not its base plus one bit"]),
    ({**GROWN, "0": "0"}, 2, ["old stem value changed at '0'",
                              "top '00' is not its base plus one bit"]),
    (OLD, 1, ["depth 1 did not grow past 1"]),
])
def test_growth_problems_are_pinned(h, m, want):
    assert oracle.growth_problems(h, 1, m, OLD.items()) == want


def test_plane_models_are_pinned():
    left = oracle.plane_cells((1, 2), [("0", "")])
    assert left == {("0", "00"), ("0", "01"), ("0", "10"), ("0", "11")}
    assert oracle.plane_cells((1, 1), [("0", "1"), ("", "1")]) == {("0", "1"), ("1", "1")}
    assert oracle.plane_contains((1, 2), left, "01", "1")  # cut to the resolution
    assert oracle.plane_contains((1, 2), left, "0", "")
    assert not oracle.plane_contains((1, 2), left, "", "0")
    upper = oracle.cell_weight((1, 1), {("1", "1"), ("0", "1")})
    assert upper == {"resolution": [1, 1], "table": [["0", "1", "1/4"], ["1", "1", "1/4"]]}
    assert oracle.weight_at(upper, "", "") == Fraction(1, 2)


def test_line_models_are_pinned():
    assert oracle.bitmap(["01"], 2) == 0b0010
    assert oracle.bitmap(["1"], 2) == 0b1100
    assert oracle.bitmap([""], 3) == 0xFF
    assert oracle.bitmap([], 2) == 0
    assert oracle.measure(["0", "10"]) == Fraction(3, 4)
    assert oracle.measure(["0", "00"]) == Fraction(1, 2)
    assert oracle.measure([]) == 0


def test_canonical_form_is_pinned():
    # an extension drops, then siblings merge, cascading to the whole space
    assert oracle.canonical(["000", "001", "01", "011", "1"]) == frozenset({""})
    assert oracle.canonical(["10", "10", "100"]) == frozenset({"10"})


@pytest.mark.parametrize("coords, want", [
    ([[(0, ["0"]), (1, ["10", "11"])]], (((0, frozenset({"0"})), (1, frozenset({"1"}))),)),
    ([[(0, ["0"]), (1, ["01"])]], ("NotAPartition", "coordinate 0: cells 0 and 1 overlap")),
    ([[(0, [""])], [(0, ["0"])]],
     ("NotAPartition", "coordinate 1: cell measures sum to 1/2, expected 1")),
    ([[(0, ["0"]), (0, ["1"])]], ("NotAPartition", "coordinate 0: duplicate labels")),
    ([[(0, ["0", "2"]), (1, "01")]], ("ValueError", (
        "generators must be an iterable of bit strings, not the string '01'"))),
    ([[(0, [""]), (1, [])], [(0, ["0", "2"])]], ("ValueError", "not a binary string: '2'")),
    ([[(0, [""])], [(0.5, [""])]], ("ValueError", "coordinate 1: label 0.5 is not an int")),
], ids=["name", "overlap", "short", "duplicate", "string-cell", "bad-bit", "bad-label"])
def test_names_and_refusals_are_pinned(coords, want):
    assert oracle.name(coords) == want


def test_diagram_rule_is_pinned():
    traits = {lo for edge in oracle.DIAGRAM_EDGES for lo in edge}
    assert len(oracle.DIAGRAM_EDGES) == 13 and len(traits) == 10
    low = dict.fromkeys(traits, 1)
    assert oracle.diagram_consistent(low)
    assert not oracle.diagram_consistent({**low, "b": 2})  # b above d
    # every edge holds, but cof_meager is not max(d, non_meager)
    assert not oracle.diagram_consistent({**low, "cof_meager": 2, "cof_null": 2})


# (top, attempt, e) of a depth-7 extension with seed 7 by 1, 2 and 4 levels
# (candidates of 2, 4 and 16 bits, read from 1, 1 and 2 bytes); the tops of
# depth 7 in key order are the binary numerals, so top s has index int(s, 2)
PINNED_CANDIDATES = {
    1: [("0000000", 0, 2), ("0000001", 0, 3), ("0101010", 2, 2), ("1010011", 3, 2)],
    2: [("0000001", 0, 9), ("0000010", 0, 15), ("1001100", 4, 5), ("1010100", 5, 12)],
    4: [("0000000", 0, 19971), ("0000001", 0, 19215), ("0100001", 1, 47416),
        ("0101000", 3, 27825)],
}


@pytest.mark.parametrize("levels", [1, 2, 4])
def test_candidate_stream_is_pinned(levels):
    for s, attempt, e in PINNED_CANDIDATES[levels]:
        assert oracle.candidate(7, 7, 7 + levels, int(s, 2), s, attempt) == e
