"""Independent checks of forcing-lab envelopes.

Nothing here imports forcing_lab: every check recomputes what it needs
from the scenario the benchmark generated, with exact Fraction arithmetic,
and returns a list of problems (empty when the output is correct).
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import jsonschema


def rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def weight_at(weight: dict, s: str, t: str) -> Fraction:
    """Value of a weight table at the rectangle [s] x [t]: compatible
    entries summed, halved once per bit past the table's resolution."""
    m1, m2 = weight["resolution"]
    acc = Fraction(0)
    for a, b, v in weight["table"]:
        if (a.startswith(s) or s.startswith(a)) and (b.startswith(t) or t.startswith(b)):
            acc += Fraction(v)
    return acc / 2 ** (max(0, len(s) - m1) + max(0, len(t) - m2))


def stem_score(tops: dict, weight: dict) -> Fraction:
    """sum over tops s of 2^|h(s)| * weight(s, h(s)).  Tops are grouped by
    their prefix at the weight's x-resolution, below which the weight only
    halves, so each distinct (prefix, value, depth) is evaluated once."""
    m1 = weight["resolution"][0]
    groups = Counter((s[:m1], v, len(s)) for s, v in tops.items())
    acc = Fraction(0)
    for (row, v, depth), count in groups.items():
        acc += count * 2 ** len(v) * weight_at(weight, row, v) / 2 ** (depth - len(row))
    return acc


# ------------------------------------------------------------ envelope


class Schema:
    """The packaged report schema, read from the source tree."""

    def __init__(self, src: Path):
        path = src / "forcing_lab" / "schemas" / "report.schema.json"
        self.validator = jsonschema.Draft202012Validator(json.loads(path.read_text()))

    def problems(self, envelope) -> list[str]:
        return [f"report schema: {e.message}" for e in self.validator.iter_errors(envelope)][:3]


def check_envelope(command: str, scenario: dict, envelope, schema: Schema) -> list[str]:
    """All checks of one operation's parsed envelope."""
    bad = schema.problems(envelope)
    if bad:
        return bad
    if envelope["ok"] is not True:
        return [f"envelope not ok: {str(envelope.get('error'))[:200]}"]
    if "report" not in envelope:
        return ["envelope has no report"]
    try:
        return CHECKS[command](scenario, envelope["report"])
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]


# ------------------------------------------------------------ stems


def _is_bits(s) -> bool:
    return isinstance(s, str) and not s.strip("01")


def stem_problems(m: int, h_pairs: list, weights: list) -> list[str]:
    """A stem map: full domain to depth m, monotone, and every tagged weight
    scoring above its tag."""
    h = dict(h_pairs)
    if len(h) != len(h_pairs) or len(h) != 2 ** (m + 1) - 1:
        return [f"domain holds {len(h)} keys ({len(h_pairs)} pairs), depth {m} needs {2 ** (m + 1) - 1}"]
    per_level = Counter(len(s) for s in h)
    if any(per_level[k] != 2 ** k for k in range(m + 1)) or not all(map(_is_bits, h)):
        return ["domain is not every bit string of length <= m"]
    if not all(map(_is_bits, h.values())):
        return ["stem value is not a bit string"]
    bad = []
    for s, v in h.items():
        if s and not v.startswith(h[s[:-1]]):
            bad.append(f"not monotone at {s!r}")
            break
    tops = {s: v for s, v in h.items() if len(s) == m}
    for i, tw in enumerate(weights):
        sc = stem_score(tops, tw["phi"])
        if sc <= Fraction(tw["eps"]):
            bad.append(f"weight #{i} scores {rat(sc)}, needs > {tw['eps']}")
    return bad


def growth_problems(h: dict, m0: int, m: int) -> list[str]:
    """One extension from depth m0 to m: every new top is its base (the
    value at its depth-m0 prefix) plus one bit."""
    if m <= m0:
        return [f"depth {m} did not grow past {m0}"]
    for s, v in h.items():
        if len(s) == m:
            base = h[s[:m0]]
            if len(v) != len(base) + 1 or not v.startswith(base):
                return [f"top {s!r} is not its base plus one bit"]
    return []


def check_extend(scenario: dict, report: dict) -> list[str]:
    cond = scenario["condition"]
    out = report["condition"]
    bad = stem_problems(out["m"], out["h"], cond["u"])
    if not bad:
        h = dict(out["h"])
        if any(h[s] != v for s, v in cond["h"]):
            bad.append("an old stem value changed")
        bad += growth_problems(h, cond["m"], out["m"])
    if out["u"] != cond["u"]:
        bad.append("tagged weights changed")
    return bad


def check_generic_run(scenario: dict, report: dict) -> list[str]:
    final = report["final"]
    covers = scenario["covers"]
    bad = stem_problems(final["m"], final["h"], final["u"])
    if len(final["u"]) != len(covers):
        bad.append(f"{len(final['u'])} weights attached for {len(covers)} covers")
    if report["depth"] != final["m"]:
        bad.append("reported depth differs from the final stem depth")
    if not bad:
        h = dict(final["h"])
        m0 = 0
        for entry in report["trace"]:
            if entry["action"] == "extend":
                m = entry["depth"]
                bad += growth_problems(h, m0, m)
                m0 = m
        if m0 != final["m"]:
            bad.append("trace does not end at the final depth")
    seen = set()
    for entry in report["trace"]:
        for cert in entry["certificates"]:
            i = cert["index"]
            seen.add(i)
            floor = 1 - Fraction(covers[i]["eps"])
            if Fraction(cert["scoreF"]) <= floor:
                bad.append(f"step {entry['step']}: cover #{i} scoreF {cert['scoreF']} <= {rat(floor)}")
    if seen != set(range(len(covers))):
        bad.append("some cover has no certificate")
    return bad


# ------------------------------------------------------------ names


def _bitmap(gens, depth: int) -> int:
    """Clopen set as a bitmap over the 2^depth leaves (bit i = leaf i)."""
    out = 0
    for g in gens:
        k = depth - len(g)
        lo = int(g, 2) << k if g else 0
        out |= ((1 << (1 << k)) - 1) << lo
    return out


def _cell_measure(gens) -> Fraction:
    depth = max(map(len, gens), default=0)
    return Fraction(_bitmap(gens, depth).bit_count(), 2 ** depth)


def check_refine(scenario: dict, report: dict) -> list[str]:
    coords = scenario["name"]["coords"]
    f = scenario["function"]
    p = scenario["condition_set"]
    q = report["refined"]
    n = report["cutoff"]
    cells = [c["cells"] for coord in coords for c in coord]
    depth = max((len(g) for gens in [p, q, *cells] for g in gens), default=0)
    bq, bp = _bitmap(q, depth), _bitmap(p, depth)
    bad = []
    if not bq:
        bad.append("refined set has measure 0")
    if bq & ~bp:
        bad.append("refined set leaves the condition set")
    removed = 0
    for k in range(n, len(coords)):
        for cell in coords[k]:
            if cell["label"] == f[k]:
                removed |= _bitmap(cell["cells"], depth)
    if bq & removed:
        bad.append("refined set meets a value cell past the cutoff")
    if bq != bp & ~removed:
        bad.append("refined set is not the condition set minus the value cells")
    if Fraction(report["measure"]) != Fraction(bq.bit_count(), 2 ** depth):
        bad.append("reported measure is wrong")
    return bad


def check_slalom(scenario: dict, report: dict) -> list[str]:
    coords = scenario["name"]["coords"]
    want = []
    for n, coord in enumerate(coords):
        cap = Fraction(1, (n + 1) ** 2)
        want.append(sorted(c["label"] for c in coord if _cell_measure(c["cells"]) > cap))
    bad = []
    if report["slots"] != want:
        bad.append("slots differ from the cell-measure recount")
    if report["caps"] != [(n + 1) ** 2 for n in range(len(coords))]:
        bad.append("caps are wrong")
    if any(len(slot) >= (n + 1) ** 2 for n, slot in enumerate(report["slots"])):
        bad.append("a slot reaches its cap")
    return bad


# ------------------------------------------------------------ the rest


def check_smz(scenario: dict, report: dict) -> list[str]:
    eps = [Fraction(e) for e in scenario["eps"]]
    horizon = scenario["horizon"]
    delta = []
    for n in range(horizon + 1):
        cap = min(eps[: n ** 3 + 1]) / 2
        delta.append(min(cap, delta[-1]) if delta else cap)
    prime = [delta[n + 1 - n % 2] / 2 for n in range(horizon)]
    bad = []
    if report["delta"] != [rat(x) for x in delta[:horizon]]:
        bad.append("delta differs from the recomputation")
    if report["delta_prime"] != [rat(x) for x in prime]:
        bad.append("delta_prime differs from the recomputation")
    if "heavy" in scenario:
        flat = [[rat(Fraction(a)), rat(Fraction(b))] for level in scenario["heavy"]
                for a, b in sorted(level, key=lambda iv: Fraction(iv[0]))]
        if report["flattened"] != flat:
            bad.append("flattened intervals differ from the level-order concatenation")
    return bad


def check_rapid(scenario: dict, report: dict) -> list[str]:
    r, xs, cuts = scenario["rapid"], set(scenario["selection"]), scenario["checkpoints"]
    picked = {r[j] for j in xs}
    counts = [sum(1 for v in picked if v < c) for c in cuts]
    bad = []
    if report["rapidity"]["counts"] != counts:
        bad.append("rapidity counts differ from the recount")
    if report["rapidity"]["ok"] is not True or report["thin"]["ok"] is not True:
        bad.append("a rapid verdict failed")
    return bad


def check_diagram(scenario: dict, report: dict) -> list[str]:
    if report["consistent"] is not True or report["violations"]:
        return ["generated assignment reported inconsistent"]
    return []


CHECKS = {
    "extend": check_extend,
    "generic-run": check_generic_run,
    "refine": check_refine,
    "slalom": check_slalom,
    "smz": check_smz,
    "rapid": check_rapid,
    "diagram": check_diagram,
}
