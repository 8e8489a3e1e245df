"""JSON wire formats of the values the command line reads and writes.

Conventions: rationals travel as "p/q" strings, binary strings as 0/1
text, and every collection is emitted in sorted order so that serialized
documents are byte-stable across runs.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from operator import itemgetter
from typing import Mapping, Sequence

from .cantor import ClopenPlaneSet, ClopenSet
from .diagram import CardinalLabel, DiagramAssignment
from .names import FiniteName, Slalom, make_name
from .poset import (
    Certificate,
    Condition,
    TaggedWeight,
    TraceEntry,
    WeightFunction,
)
from .smz import IntervalSpec


def _refuse_repeats(built: Mapping, entries: Sequence, key, what: str) -> None:
    """Raise ValueError naming a key that entries repeat; built is the dict
    made from them, so a repeat shows as a shorter dict."""
    if len(built) != len(entries):
        repeated = next(k for k, n in Counter(map(key, entries)).items() if n > 1)
        raise ValueError(f"repeated {what} {repeated!r}")


def rational_to_json(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def rational_from_json(text) -> Fraction:
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise ValueError(f"rational must be 'p/q' text, got {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"rational {text!r} has a zero denominator") from None


def clopen_to_json(a: ClopenSet) -> list[str]:
    return sorted(a.generators)


def clopen_from_json(data: Sequence[str]) -> ClopenSet:
    return ClopenSet.from_strings(data)


def plane_from_json(data: Mapping) -> ClopenPlaneSet:
    r1, r2 = data["resolution"]
    rects = [(s, t) for s, t in data["rects"]]
    return ClopenPlaneSet.from_rects(rects, min_resolution=(int(r1), int(r2)))


def name_from_json(data: Mapping) -> FiniteName:
    coords = [
        [(entry["label"], clopen_from_json(entry["cells"])) for entry in coord]
        for coord in data["coords"]
    ]
    g = make_name(coords)
    if g.horizon != int(data["horizon"]):
        raise ValueError(
            f"horizon field {data['horizon']} does not match {g.horizon} coordinates")
    return g


def slalom_to_json(s: Slalom) -> dict:
    return {"slots": [sorted(slot) for slot in s.slots]}


def weight_to_json(phi: WeightFunction) -> dict:
    # one text per value object: a table built from a plane set or a uniform
    # weight shares one value, so it is formatted once, not once per key
    distinct = {id(v): v for v in phi.table.values()}
    text = {i: rational_to_json(v) for i, v in distinct.items()}
    return {
        "resolution": list(phi.resolution),
        "table": [(s, t, text[id(v)]) for (s, t), v in sorted(phi.table.items())],
    }


def weight_from_json(data: Mapping) -> WeightFunction:
    r1, r2 = data["resolution"]
    table = {(s, t): rational_from_json(v) for s, t, v in data["table"]}
    _refuse_repeats(table, data["table"], itemgetter(0, 1), "weight table key")
    return WeightFunction((int(r1), int(r2)), table)


def condition_to_json(p: Condition) -> dict:
    # the (key, value) pairs stay tuples, which json writes as arrays, so a
    # stem costs one pair per key; report.schema.json does not look inside
    # report bodies, where the compiled check would count only lists as arrays
    return {
        "m": p.m,
        "h": sorted(p.h.items()),
        "u": [
            {"eps": rational_to_json(tw.eps), "phi": weight_to_json(tw.phi)}
            for tw in p.u
        ],
    }


def condition_from_json(data: Mapping) -> Condition:
    h = {s: v for s, v in data["h"]}
    _refuse_repeats(h, data["h"], itemgetter(0), "stem key")
    u = tuple(
        TaggedWeight(rational_from_json(entry["eps"]), weight_from_json(entry["phi"]))
        for entry in data["u"]
    )
    return Condition(int(data["m"]), h, u)


def certificate_to_json(index: int, cert: Certificate) -> dict:
    return {
        "index": index,
        "inside": rational_to_json(cert.inside),
        "scoreF": rational_to_json(cert.score_f),
    }


def trace_to_json(trace: Sequence[TraceEntry]) -> list[dict]:
    return [
        {
            "step": entry.step,
            "action": entry.action,
            "depth": entry.depth,
            "certificates": [
                certificate_to_json(i, cert) for i, cert in entry.certificates
            ],
        }
        for entry in trace
    ]


def interval_to_json(iv: IntervalSpec) -> list[str]:
    return [rational_to_json(iv.left), rational_to_json(iv.right)]


def interval_from_json(data: Sequence) -> IntervalSpec:
    left, right = data
    return IntervalSpec(rational_from_json(left), rational_from_json(right))


def rationals_to_json(xs: Sequence[Fraction]) -> list[str]:
    return [rational_to_json(x) for x in xs]


def assignment_from_json(data: Mapping) -> DiagramAssignment:
    return DiagramAssignment(
        {node: CardinalLabel.from_text(data[node]) for node in data})
