"""JSON wire formats of the values the command line reads and writes.

Conventions: rationals travel as "p/q" strings, binary strings as 0/1
text, and serialized documents are byte-stable across runs.  Object keys,
set members (a clopen set's generators, a slalom slot's values) and map
entries (a stem's pairs, a weight's table) are emitted in sorted order.  A
sequence keeps its own order: a condition's weights and a trace entry's
certificates come in the order their weights or covers were attached (by
step, then by schedule position), not sorted by index.  Scenario numbers
are parsed by `read_number`: an integral one such as 8.0 or 8e0 is the int
8, read exactly from its digits, as the schema counts it, so every integer
and rational field takes it and no decoder converts.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from collections.abc import Mapping, Sequence
from fractions import Fraction
from operator import itemgetter

from .cantor import ClopenPlaneSet, ClopenSet
from .diagram import CardinalLabel, DiagramAssignment
from .errors import UsageError
from .names import FiniteName, Slalom, make_name
from .poset import (
    Certificate,
    Condition,
    TaggedWeight,
    TraceEntry,
    WeightFunction,
    stem_text,
)
from .smz import IntervalSpec


def _refuse_repeats(built: Mapping, entries: Sequence, key, what: str) -> None:
    """Raise ValueError naming a key that entries repeat; built is the dict
    made from them, so a repeat shows as a shorter dict."""
    if len(built) != len(entries):
        repeated = next(k for k, n in Counter(map(key, entries)).items() if n > 1)
        raise ValueError(f"repeated {what} {repeated!r}")


# the most digits of an integral number, as of a rational part
_MAX_DIGITS = 4300


def read_number(text: str) -> int | float:
    """`parse_float` for json.loads, which hands it each number literal with a
    fraction or an exponent.  An integral value is read exactly from the
    literal's digits and exponent, as an int.  Any other value is the float
    it reads as, which no field takes, so the schema refuses it in its own
    words; but a literal that reads as an integral or infinite float
    (1e-400 as 0.0) raises UsageError naming it.  So does a value whose
    integer part has more than 4,300 digits, counted before any power of
    ten is built, whatever the exponent's sign."""
    mantissa, _, power = text.lower().partition("e")
    whole, _, fraction = mantissa.partition(".")
    digits = (whole + fraction).lstrip("-0")
    significant = digits.rstrip("0")
    if not significant:
        return 0
    # the value is +-significant * 10^shift, and significant ends in no 0
    shift = int(power or 0) - len(fraction) + len(digits) - len(significant)
    if len(significant) + shift > _MAX_DIGITS:
        raise UsageError(f"scenario has an integer of more than {_MAX_DIGITS} digits, the limit")
    if shift < 0:
        x = float(text)
        if x.is_integer() or math.isinf(x):
            raise UsageError(f"scenario number {ends(text)} is not an integer")
        return x
    value = int(significant) * 10 ** shift
    return -value if text.startswith("-") else value


def ends(text: str) -> str:
    """text, or its ends when it is longer than 40 characters."""
    return text if len(text) <= 40 else f"{text[:20]}...{text[-12:]}"


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
    return ClopenSet(data)


def plane_from_json(data: Mapping) -> ClopenPlaneSet:
    rects = [(s, t) for s, t in data["rects"]]
    return ClopenPlaneSet.from_rects(rects, min_resolution=data["resolution"])


def name_from_json(data: Mapping) -> FiniteName:
    # make_name canonicalizes the decoded generator lists itself
    g = make_name([[(entry["label"], entry["cells"]) for entry in coord]
                   for coord in data["coords"]])
    if g.horizon != data["horizon"]:
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
    # one Fraction per distinct value text, so WeightFunction's identity memo
    # converts and range-checks it once; only str values are shared, because
    # a dict keyed by value would hand 1.0 the Fraction parsed for 1
    parsed: dict[str, Fraction] = {}

    def value(v) -> Fraction:
        if not isinstance(v, str):
            return rational_from_json(v)
        if v not in parsed:
            parsed[v] = rational_from_json(v)
        return parsed[v]

    table = {(s, t): value(v) for s, t, v in data["table"]}
    _refuse_repeats(table, data["table"], itemgetter(0, 1), "weight table key")
    return WeightFunction(data["resolution"], table)


def condition_to_json(p: Condition) -> dict:
    # "h" writes the stem's text to the sink (write); report.schema.json never reads it
    return {"m": p.m, "h": lambda sink: stem_text(p, sink), "u": [
        {"eps": rational_to_json(tw.eps), "phi": weight_to_json(tw.phi)} for tw in p.u]}


# The most items of an array written by one dumps call: json's C encoder holds
# its pieces of an array's text, about 8 times the text, until it joins them.
_SLICE = 2 ** 9


def _dumps(tree, dumps) -> str:
    return dumps(tree, sort_keys=True, separators=(",", ":"), check_circular=False)


def write(tree, sink, dumps=json.dumps) -> None:
    """Pass the JSON text of a report tree to sink in pieces, as dumps(tree, sort_keys=True,
    separators=(",", ":")) writes it with each callable value writing its own text to sink
    in its place: a dict (of str keys) key by key, a list or tuple of more than _SLICE items
    one dumps call per _SLICE items (_write_array), any other value in one dumps call,
    unchecked for cycles."""
    if isinstance(tree, dict):
        sink("{")
        for i, key in enumerate(sorted(tree)):
            sink(("," if i else "") + dumps(key) + ":")
            write(tree[key], sink, dumps)
        sink("}")
    elif callable(tree):
        tree(sink)
    elif isinstance(tree, (list, tuple)) and len(tree) > _SLICE:
        _write_array(len(tree), tree.__getitem__, sink, dumps)
    else:
        sink(_dumps(tree, dumps))


def write_pairs(keys: Sequence, values: Sequence, sink, dumps=json.dumps) -> None:
    """Pass to sink the text write writes of list(zip(keys, values)), one
    _SLICE of (key, value) pairs held at a time, not a tuple per item."""
    n = min(len(keys), len(values))
    _write_array(n, lambda cut: list(zip(keys[cut], values[cut])), sink, dumps)


def _write_array(n: int, items, sink, dumps) -> None:
    """Pass to sink the JSON text of an array of n items, one dumps call per
    _SLICE of them: items(slice(i, j)) lists items i to j - 1."""
    for i in range(0, n, _SLICE):
        sink(("," if i else "[") + _dumps(items(slice(i, i + _SLICE)), dumps)[1:-1])
    sink("]" if n else "[]")


def condition_from_json(data: Mapping) -> Condition:
    # the decoded [key, value] lists, sorted, are the condition's base (see
    # Condition), so it makes no tuple per key; the document is read, never changed
    h = dict(data["h"])
    _refuse_repeats(h, data["h"], itemgetter(0), "stem key")
    u = tuple(
        TaggedWeight(rational_from_json(entry["eps"]), weight_from_json(entry["phi"]))
        for entry in data["u"]
    )
    return Condition._of({"m": data["m"], "h": h, "u": u,
                          "_base": (data["m"], sorted(data["h"], key=itemgetter(0)))})


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
