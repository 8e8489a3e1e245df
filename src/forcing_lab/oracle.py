"""Independent reference models of what forcing-lab computes, written from
the definitions alone in exact arithmetic.  They read plain data: bit
strings, a stem as a dict of (key, value) pairs, and a weight in its wire
form {"resolution": [m1, m2], "table": [[a, b, "p/q"], ...]}.  Only the
standard library is imported, so a check built on this module shares no
code with what it checks, and a script can load the file by its path."""

from __future__ import annotations

import hashlib
from collections import Counter
from fractions import Fraction
from itertools import product


def _extensions(s: str, depth: int) -> list[str]:
    """Every bit string of length depth that extends s, in sorted order."""
    return [s + "".join(bits) for bits in product("01", repeat=depth - len(s))]


def bitmap(gens, depth: int) -> int:
    """The union of the cylinders [g], none deeper than depth, as an integer
    whose bit i is set when the depth-level cylinder numbered i lies inside."""
    out = 0
    for g in gens:
        k = depth - len(g)
        out |= ((1 << (1 << k)) - 1) << (int(g, 2) << k if g else 0)
    return out


def measure(gens) -> Fraction:
    """The measure of the union of the cylinders [g]."""
    depth = max(map(len, gens), default=0)
    return Fraction(bitmap(gens, depth).bit_count(), 2 ** depth)


def plane_cells(resolution, rects) -> set[tuple[str, str]]:
    """The cells at resolution (r1, r2) inside the union of the rectangles [s] x [t]."""
    r1, r2 = resolution
    return {(a, b) for s, t in rects for a in _extensions(s, r1) for b in _extensions(t, r2)}


def plane_contains(resolution, cells, s: str, t: str) -> bool:
    """Whether [s] x [t] lies inside the union of cells at resolution (r1, r2)."""
    r1, r2 = resolution
    return all((a, b) in cells for a in _extensions(s[:r1], r1) for b in _extensions(t[:r2], r2))


def cell_weight(resolution, cells) -> dict:
    """The weight (s, t) -> the measure of [s] x [t] inside the cells, in wire form."""
    share = f"1/{2 ** sum(resolution)}"
    return {"resolution": list(resolution), "table": [[a, b, share] for a, b in sorted(cells)]}


def weight_at(weight: dict, s: str, t: str) -> Fraction:
    """Value of a weight at the rectangle [s] x [t]: compatible table
    entries summed, halved once per bit past the table's resolution."""
    m1, m2 = weight["resolution"]
    acc = Fraction(0)
    for a, b, v in weight["table"]:
        if (a.startswith(s) or s.startswith(a)) and (b.startswith(t) or t.startswith(b)):
            acc += Fraction(v)
    return acc / 2 ** (max(0, len(s) - m1) + max(0, len(t) - m2))


def stem_score(tops: dict, weight: dict) -> Fraction:
    """sum over tops s of 2^|h(s)| * weight(s, h(s)), for tops mapping s to
    h(s).  Below the weight's x-resolution it only halves, so each distinct
    (prefix at that resolution, value, depth) is evaluated once."""
    m1 = weight["resolution"][0]
    groups = Counter((s[:m1], v, len(s)) for s, v in tops.items())
    acc = Fraction(0)
    for (row, v, depth), count in groups.items():
        acc += count * 2 ** len(v) * weight_at(weight, row, v) / 2 ** (depth - len(row))
    return acc


def growth_problems(h: dict, m0: int, m: int, old=()) -> list[str]:
    """What is wrong with h as the extension from depth m0 to m of a stem of
    the (key, value) pairs old: the depth grows, the old values stay, and
    each new top is its base (its depth-m0 prefix's value) plus one bit."""
    if m <= m0:
        return [f"depth {m} did not grow past {m0}"]
    bad = [f"old stem value changed at {s!r}" for s, v in old if h.get(s) != v][:1]
    for s, v in h.items():
        if len(s) == m:
            base = h[s[:m0]]
            if len(v) != len(base) + 1 or not v.startswith(base):
                return bad + [f"top {s!r} is not its base plus one bit"]
    return bad


def candidate(seed: int, m: int, m2: int, t: int, s: str, attempt: int) -> int:
    """Candidate `attempt` of the top s, t-th in key order, extended from
    depth m to m2: 2^(m2-m) bits read little-endian from B bytes of
    SHAKE-256, at offset t*B of "seed|m|m2" for attempt 0, and first in
    "seed|m2|s|attempt" after it."""
    bits = 2 ** (m2 - m)
    size = (bits + 7) // 8
    if attempt:
        block = hashlib.shake_256(f"{seed}|{m2}|{s}|{attempt}".encode()).digest(size)
    else:
        block = hashlib.shake_256(f"{seed}|{m}|{m2}".encode()).digest((t + 1) * size)[t * size:]
    return int.from_bytes(block, "little") % 2 ** bits


def canonical(gens) -> frozenset[str]:
    """Drop each generator that extends another, then merge siblings while any are left."""
    out = {g for g in gens if not any(g != h and g.startswith(h) for h in gens)}
    while pair := next((g for g in out if g.endswith("0") and g[:-1] + "1" in out), None):
        out -= {pair, pair[:-1] + "1"}
        out.add(pair[:-1])
    return frozenset(out)


def partition_problem(cells, where) -> str | None:
    """make_name's words for what keeps the (label, canonical generators)
    cells of coordinate `where` from a partition, the first overlapping
    pair named in cell order; None for a partition."""
    labels = [lab for lab, _ in cells]
    if len(labels) != len(set(labels)):
        return f"coordinate {where}: duplicate labels"
    for i, (_, a) in enumerate(cells):
        for j in range(i + 1, len(cells)):
            if any(s.startswith(t) or t.startswith(s) for s in a for t in cells[j][1]):
                return f"coordinate {where}: cells {labels[i]!r} and {labels[j]!r} overlap"
    total = sum(Fraction(1, 2 ** len(g)) for _, a in cells for g in a)
    return None if total == 1 else f"coordinate {where}: cell measures sum to {total}, expected 1"


def name(coords):
    """The name make_name builds of coords, lists of (label, generator list)
    cells: per coordinate a tuple of (label, canonical generators).  Or the
    (error type name, message) it raises for a bare string cell, then a bad
    bit, anywhere, then per coordinate for a label not an int or a partition."""
    cells = [gens for coord in coords for _, gens in coord]
    bare = next((gens for gens in cells if isinstance(gens, str)), None)
    if bare is not None:
        return "ValueError", ("generators must be an iterable of bit strings, "
                              f"not the string {bare!r}")
    for g in (g for gens in cells for g in gens):
        if not isinstance(g, str) or set(g) - {"0", "1"}:
            return "ValueError", f"not a binary string: {g!r}"
    built = []
    for n, coord in enumerate(coords):
        if bad := [lab for lab, _ in coord if not isinstance(lab, int)]:
            return "ValueError", f"coordinate {n}: label {bad[0]!r} is not an int"
        built.append(tuple((lab, canonical(gens)) for lab, gens in coord))
        if problem := partition_problem(built[-1], n):
            return "NotAPartition", problem
    return tuple(built)


# (lo, hi): the lo trait never exceeds the hi trait; restated apart from diagram.EDGES
DIAGRAM_EDGES = (
    ("add_null", "add_meager"), ("add_null", "cov_null"), ("add_meager", "b"),
    ("add_meager", "cov_meager"), ("cov_null", "non_meager"), ("b", "d"), ("b", "non_meager"),
    ("cov_meager", "d"), ("cov_meager", "non_null"), ("non_meager", "cof_meager"),
    ("d", "cof_meager"), ("non_null", "cof_null"), ("cof_meager", "cof_null"),
)


def diagram_consistent(values: dict) -> bool:
    """Whether ordered levels of the traits keep every edge and the identities
    add_meager = min(b, cov_meager) and cof_meager = max(d, non_meager)."""
    return (all(values[lo] <= values[hi] for lo, hi in DIAGRAM_EDGES)
            and values["add_meager"] == min(values["b"], values["cov_meager"])
            and values["cof_meager"] == max(values["d"], values["non_meager"]))
