"""Round trips, decodes of literal documents and wire-shape checks for the
JSON codecs."""

import json
import random
import tracemalloc
from fractions import Fraction as Rational

import pytest
from hypothesis import given
from hypothesis import strategies as st

from forcing_lab import (
    Certificate,
    ClopenPlaneSet,
    ClopenSet,
    Condition,
    IntervalSpec,
    Slalom,
    TraceEntry,
    WeightFunction,
    attach_weight,
    extend_detailed,
    make_name,
    phi_from_clopen,
    trivial_condition,
)
from forcing_lab import jsonio
from forcing_lab.diagram import NODES, CardinalLabel, DiagramAssignment
from forcing_lab.errors import UsageError
from forcing_lab.jsonio import (
    assignment_from_json,
    certificate_to_json,
    clopen_from_json,
    clopen_to_json,
    condition_from_json,
    condition_to_json,
    interval_from_json,
    interval_to_json,
    name_from_json,
    plane_from_json,
    rational_from_json,
    rational_to_json,
    rationals_to_json,
    slalom_to_json,
    trace_to_json,
    weight_from_json,
    weight_to_json,
)


def written(tree) -> str:
    """The JSON text that jsonio.write passes to its sink for tree."""
    pieces: list[str] = []
    jsonio.write(tree, pieces.append)
    return "".join(pieces)


def parsed(tree):
    """The JSON that jsonio.write writes of tree, read back."""
    return json.loads(written(tree))


JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner), max_leaves=20)


@given(JSON_TREES)
def test_write_writes_what_json_dumps_writes(tree):
    # dicts are walked key by key, anything else (no array here passes 512 items) in one dumps call
    assert written(tree) == json.dumps(tree, sort_keys=True, separators=(",", ":"))


def counted(dumps_calls):
    """json.dumps, counting its calls in dumps_calls[0]."""
    def dumps(*args, **kwargs):
        dumps_calls[0] += 1
        return json.dumps(*args, **kwargs)
    return dumps


@pytest.mark.parametrize("n", [0, 1, 512, 513, 3 * 512 + 7])
def test_long_arrays_are_written_in_slices_byte_for_byte(n):
    # an array of more than 512 items takes one dumps call per 512 of them
    pairs = [[format(i, "b"), str(i % 3)] for i in range(n)]
    tree = {"pairs": pairs, "tuples": [tuple(pair) for pair in pairs],
            "dicts": [{"pair": pair, "at": {"i": i, "z": None}} for i, pair in enumerate(pairs)],
            "outer": tuple(pairs)}
    assert written(tree) == json.dumps(tree, sort_keys=True, separators=(",", ":"))
    for array in tree.values():
        calls, pieces = [0], []
        jsonio.write(array, pieces.append, counted(calls))
        assert "".join(pieces) == json.dumps(array, sort_keys=True, separators=(",", ":"))
        assert calls[0] == (1 if n <= 512 else -(-n // 512))


@pytest.mark.parametrize("n", [0, 1, 513])
def test_items_are_written_sorted_in_slices_byte_for_byte(n):
    # keys in key order and their values, as an extension's tops and
    # retries; with no values (no weights) the array is empty
    rng = random.Random(n)
    d = {format(i, "b"): rng.randrange(64) for i in rng.sample(range(4 * n), n)}
    keys = sorted(d)
    calls, pieces = [0], []
    jsonio.write_pairs(keys, [d[key] for key in keys], pieces.append, counted(calls))
    assert "".join(pieces) == json.dumps(sorted(d.items()), separators=(",", ":"))
    assert calls[0] == -(-n // 512)
    pieces = []
    jsonio.write_pairs(keys, [], pieces.append)
    assert "".join(pieces) == "[]"


def test_a_decoded_condition_keeps_the_decoded_pairs():
    # its base is the decoded [key, value] lists, sorted apart from the wire
    # list, which the inputs echo writes as it came; pairs() gives tuples
    wire = {"m": 1, "h": [["1", "1"], ["", ""], ["0", "0"]],
            "u": [{"eps": "1/2", "phi": {"resolution": [0, 0], "table": [["", "", "1/1"]]}}]}
    given = [list(pair) for pair in wire["h"]]
    p = condition_from_json(wire)
    assert [id(pair) for pair in p._base[1]] == [id(wire["h"][i]) for i in (1, 2, 0)]
    assert wire["h"] == given
    assert p.pairs() == [("", ""), ("0", "0"), ("1", "1")]
    assert p.tops() == ["0", "1"] and p == Condition(1, dict(given), p.u)


def test_rational_wire_form():
    assert rational_to_json(Rational(3, 8)) == "3/8"
    assert rational_to_json(Rational(2)) == "2/1"
    assert rational_from_json("3/8") == Rational(3, 8)
    assert rational_from_json(5) == Rational(5)
    assert rational_from_json("7") == Rational(7)
    with pytest.raises(ValueError):
        rational_from_json(0.5)
    with pytest.raises(ValueError):
        rational_from_json("three halves")


@pytest.mark.parametrize("text, want", [
    ("8.0", 8), ("8e0", 8), ("-0.0", 0), ("1e22", 10 ** 22),
    ("9007199254740993.0", 2 ** 53 + 1), ("2.5", 2.5),
    pytest.param("1e400", 10 ** 400, id="1e400-10**400"),
    ("-2.50e1", -25), ("0.0125e4", 125), ("1E+2", 100), ("-0e-5", 0),
    pytest.param("0." + "0" * 5000 + "1e5001", 1, id="a-long-one"),
])
def test_read_number_reads_integral_numbers_as_ints(text, want):
    # read exactly from the digits and the exponent, never through a double
    got = json.loads(f"[{text}]", parse_float=jsonio.read_number)[0]
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("text, message", [
    ("1e-400", "scenario number 1e-400 is not an integer"),
    ("2.0000000000000001", "scenario number 2.0000000000000001 is not an integer"),
    ("1" * 400 + ".5", f"scenario number {'1' * 20}...{'1' * 10}.5 is not an integer"),
    ("1e4300", "scenario has an integer of more than 4300 digits, the limit"),
    ("1e5000", "scenario has an integer of more than 4300 digits, the limit"),
    ("1e1000000000", "scenario has an integer of more than 4300 digits, the limit"),
    ("1e-1000000000", "scenario number 1e-1000000000 is not an integer"),
], ids=["tiny", "near-two", "infinite", "4301-digits", "1e5000", "huge", "tinier"])
def test_read_number_refuses_what_no_field_takes(text, message):
    # a literal whose double is integral or infinite but whose value is not
    # an integer, and an integer past 4,300 digits, whichever the exponent's sign
    with pytest.raises(UsageError) as info:
        json.loads(f"[{text}]", parse_float=jsonio.read_number)
    assert str(info.value) == message


def test_rationals_list():
    assert rationals_to_json([Rational(1, 2), Rational(0)]) == ["1/2", "0/1"]


def test_clopen_round_trip_sorted():
    a = ClopenSet.from_strings(["10", "0"])
    wire = clopen_to_json(a)
    assert wire == sorted(wire)
    assert clopen_from_json(wire) == a
    assert clopen_from_json([]) == ClopenSet.from_strings([])


def test_plane_decode_pads_resolution():
    h = ClopenPlaneSet.from_rects([("0", "00"), ("10", "1")])
    wire = {"resolution": [2, 2], "rects": [["0", "00"], ["10", "1"]]}
    assert plane_from_json(wire).resolution == (2, 2)
    assert plane_from_json(wire) == h
    # the wire resolution pads rectangles shorter than it
    padded = plane_from_json({"resolution": [3, 2], "rects": [["0", "00"], ["10", "1"]]})
    assert padded.resolution == (3, 2)
    assert padded == h


def test_name_decode_checks_horizon():
    half = ClopenSet.from_strings(["0"])
    g = make_name([[(0, half), (1, half.complement())]] * 2)
    coord = [{"label": 0, "cells": ["0"]}, {"label": 1, "cells": ["1"]}]
    assert name_from_json({"horizon": 2, "coords": [coord, coord]}) == g
    with pytest.raises(ValueError):
        name_from_json({"horizon": 3, "coords": [coord, coord]})


def test_slalom_wire_form():
    s = Slalom((frozenset(), frozenset({2, 0})))
    assert slalom_to_json(s) == {"slots": [[], [0, 2]]}


def test_weight_round_trip():
    phi = WeightFunction(
        (1, 1), {("0", "0"): Rational(1, 4), ("0", "1"): Rational(1, 8),
                 ("1", "0"): Rational(1, 4), ("1", "1"): Rational(1, 4)})
    wire = weight_to_json(phi)
    assert wire["table"] == sorted(wire["table"])
    assert weight_from_json(wire) == phi


def test_weight_decode_parses_each_value_text_once(monkeypatch):
    # the complement of one cell at (8, 8): 65,535 rows, all "1/65536"
    phi = phi_from_clopen(ClopenPlaneSet.from_rects([("0" * 8, "0" * 8)]).complement())
    wire = json.loads(json.dumps(weight_to_json(phi)))
    parsed = []

    def counting(text):
        parsed.append(text)
        return rational_from_json(text)

    monkeypatch.setattr(jsonio, "rational_from_json", counting)
    assert weight_from_json(wire) == phi
    assert parsed == ["1/65536"]
    # only texts are shared: 1.0 equals 1 but is still refused
    with pytest.raises(ValueError, match="'p/q' text"):
        weight_from_json({"resolution": [1, 0], "table": [["0", "", 1], ["1", "", 1.0]]})


def test_condition_round_trip():
    p = attach_weight(trivial_condition(), Rational(1, 2), WeightFunction.full())
    wire = parsed(condition_to_json(p))
    assert wire["m"] == 0
    assert wire["h"] == [["", ""]]
    assert wire["u"][0]["eps"] == "1/2"
    assert condition_from_json(wire) == p
    with pytest.raises(KeyError):
        condition_from_json({"m": 0, "h": [["", ""]]})  # "u" is mandatory


def write_peak(q) -> int:
    """The traced peak of writing q's wire form, as the CLI writes it, to a
    sink that keeps nothing."""
    tree = condition_to_json(q)
    jsonio.write(tree, len)  # fills the chunk templates, which are kept
    tracemalloc.start()
    try:
        jsonio.write(tree, len)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def pinned(depth):
    """The trivial stem extended to depth, its one full weight tagged to pin it deeper."""
    p = attach_weight(trivial_condition(), Rational(255, 256), WeightFunction.full())
    return extend_detailed(p, 1, max_new_levels=depth)[0]


def test_writing_a_depth_16_stem_peaks_under_a_megabyte():
    # 131,071 keys written from the layers, 3.1 MB of text, with h never
    # built: one piece and one chunk template at a time
    q = pinned(16)
    peak = write_peak(q)
    assert q.m == 16 and "h" not in vars(q)
    assert peak < 2 ** 20, f"{peak / 1024:.0f} KB"


def test_writing_a_deeper_stem_holds_no_more():
    # 16 times the keys: only the pattern's own bytes, one bit per key, grow
    # (copied once, to be read in blocks); the bound leaves room for two copies
    shallow, deep = write_peak(pinned(14)), write_peak(pinned(18))
    assert deep < 100 * 1024, f"{deep / 1024:.0f} KB"
    assert deep - shallow < 2 * 2 ** 18 // 8 + 8 * 1024, (
        f"{deep / 1024:.0f} KB against {shallow / 1024:.0f} KB")


def test_writing_a_given_stem_holds_a_bounded_piece():
    # a given complete depth-14 stem grown one level: 65,535 pairs, 1.5 MB of
    # text, written in pieces of a bounded run of tops.  The writer before
    # bulk pieces peaked at 2.6 KB with pieces of at most 70 bytes; a piece
    # here holds at most _PIECE (512) pairs of growth and the pairs between,
    # about 6 KB, and the peak may hold three of them.  Joining the whole
    # stem holds 1.5 MB at once
    grown = pinned(14)
    given = Condition(14, dict(grown.pairs()), grown.u)
    q = extend_detailed(given, 3, max_new_levels=1)[0]
    tree, largest = condition_to_json(q), [0]

    def sink(piece):
        largest[0] = max(largest[0], len(piece))

    jsonio.write(tree, sink)  # fills the templates once
    tracemalloc.start()
    try:
        jsonio.write(tree, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    piece = 16 * 1024
    assert largest[0] <= piece, largest
    assert peak < 3 * 1024 + 3 * piece, f"{peak / 1024:.0f} KB"


def test_certificate_and_trace_shapes():
    cert = Certificate(Rational(0), Rational(7, 8))
    assert certificate_to_json(1, cert) == {
        "index": 1, "inside": "0/1", "scoreF": "7/8"}
    entry = TraceEntry(0, "attach", 3, ((0, cert),))
    assert trace_to_json([entry]) == [{
        "step": 0, "action": "attach", "depth": 3,
        "certificates": [{"index": 0, "inside": "0/1", "scoreF": "7/8"}],
    }]


def test_interval_round_trip():
    iv = IntervalSpec(Rational(1, 4), Rational(3, 8))
    assert interval_to_json(iv) == ["1/4", "3/8"]
    assert interval_from_json(["1/4", "3/8"]) == iv


def test_assignment_decode_refuses_bad_label():
    a = DiagramAssignment({n: CardinalLabel.ALEPH1 for n in NODES})
    wire = {n: "aleph1" for n in NODES}
    assert assignment_from_json(wire) == a
    wire["b"] = "alephomega"
    with pytest.raises(ValueError):
        assignment_from_json(wire)


def test_wire_forms_are_json_serializable_and_stable():
    p = attach_weight(trivial_condition(), Rational(1, 2), WeightFunction.full())
    once = json.dumps(parsed(condition_to_json(p)), sort_keys=True)
    again = json.dumps(parsed(condition_to_json(p)), sort_keys=True)
    assert once == again
