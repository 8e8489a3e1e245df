"""Round trips, decodes of literal documents and wire-shape checks for the
JSON codecs."""

import json
import struct
import sys
import tracemalloc
from fractions import Fraction as Rational

import pytest

from forcing_lab import (
    Certificate,
    ClopenPlaneSet,
    ClopenSet,
    IntervalSpec,
    Slalom,
    TraceEntry,
    WeightFunction,
    attach_weight,
    extend_detailed,
    make_name,
    trivial_condition,
)
from forcing_lab.diagram import NODES, CardinalLabel, DiagramAssignment
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


def test_condition_round_trip():
    p = attach_weight(trivial_condition(), Rational(1, 2), WeightFunction.full())
    wire = condition_to_json(p)
    assert wire["m"] == 0
    assert wire["h"] == [("", "")]
    assert wire["u"][0]["eps"] == "1/2"
    assert condition_from_json(wire) == p
    with pytest.raises(KeyError):
        condition_from_json({"m": 0, "h": [["", ""]]})  # "u" is mandatory


def test_encoding_a_grown_stem_makes_one_pair_per_key():
    # the sorted pairs are the wire pairs, with no second object per key,
    # whatever the Python's object sizes; the stem is large enough that the
    # pairs the tuple free list hands out untraced do not hide a second object
    p = attach_weight(trivial_condition(), Rational(127, 128), WeightFunction.full())
    q, _ = extend_detailed(p, 1, max_new_levels=12)
    assert len(q.h) == 2 ** 13 - 1
    per_key = 1.25 * (sys.getsizeof(("", "")) + struct.calcsize("P"))
    tracemalloc.start()
    try:
        wire = condition_to_json(q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(wire["h"]) == len(q.h)
    assert peak <= per_key * len(q.h), f"{peak / len(q.h):.1f} B per key"


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
    once = json.dumps(condition_to_json(p), sort_keys=True)
    again = json.dumps(condition_to_json(p), sort_keys=True)
    assert once == again
