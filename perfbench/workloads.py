"""Seeded scenario generator for the forcing-lab benchmark.

Each workload is a list of blocks, each block a list of operations.  Every
block has the same mix of operation kinds and size classes; only the
seeded details differ, so runs with different seeds measure the same
traffic.  The generator is self-contained: it writes scenario documents
in the CLI's wire format and never imports forcing_lab.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from checker import rat, stem_score

WORKLOADS = ("extend-fresh", "extend-deep", "generic-run", "names-mix")


@dataclass(frozen=True)
class Op:
    """One CLI call: `forcing-lab <command> <args> --input <scenario file>`."""

    key: str
    command: str
    args: tuple[str, ...]
    scenario: dict

    @property
    def kind(self) -> str:
        """The command and size class, from a key `b<block>-<index>-<kind>`."""
        return self.key.split("-", 2)[2]


def _strings(k: int) -> list[str]:
    return [format(i, f"0{k}b") for i in range(2 ** k)] if k else [""]


def _bits(rng: random.Random, k: int) -> str:
    return format(rng.getrandbits(k), f"0{k}b") if k else ""


# ------------------------------------------------------------ conditions


def full_weight() -> dict:
    return {"resolution": [0, 0], "table": [["", "", "1/1"]]}


def uniform_weight(c: Fraction, r1: int, r2: int) -> dict:
    cell = rat(c / 2 ** (r1 + r2))
    return {"resolution": [r1, r2],
            "table": [[a, b, cell] for a in _strings(r1) for b in _strings(r2)]}


def cover_complement_weight(rng: random.Random) -> dict:
    """The weight of the complement of one random cell at resolution <= 3."""
    r1, r2 = rng.randint(1, 3), rng.randint(1, 3)
    picked = (_bits(rng, r1), _bits(rng, r2))
    cell = rat(Fraction(1, 2 ** (r1 + r2)))
    return {"resolution": [r1, r2],
            "table": [[a, b, cell] for a in _strings(r1) for b in _strings(r2)
                      if (a, b) != picked]}


def random_weight(rng: random.Random) -> dict:
    kind = rng.choice(["full", "uniform", "cover"])
    if kind == "full":
        return full_weight()
    if kind == "uniform":
        return uniform_weight(Fraction(rng.choice([6, 7, 8]), 8), rng.randint(0, 2), rng.randint(0, 2))
    return cover_complement_weight(rng)


def tagged_weights(rng: random.Random, tops: dict, count: int) -> list[dict]:
    """Weights tagged at a quarter or half of their score on the stem, so
    every generated condition is valid with room to extend."""
    out = []
    for _ in range(count):
        phi = random_weight(rng)
        sc = stem_score(tops, phi)
        if sc < Fraction(1, 2):
            phi, sc = full_weight(), Fraction(1)
        out.append({"eps": rat(sc * rng.choice([Fraction(1, 4), Fraction(1, 2)])), "phi": phi})
    return out


def monotone_stem(rng: random.Random, depth: int, budget: int, grow=None) -> dict:
    """Monotone stem map on every string of length <= depth whose values
    are at most `budget` bits long.  `grow(room)` draws how many bits a
    child adds to its parent's value."""
    grow = grow or (lambda room: rng.randint(0, room))
    h = {"": _bits(rng, rng.randint(0, budget))}
    for level in range(depth):
        for s in _strings(level):
            v = h[s]
            for b in "01":
                h[s + b] = v + _bits(rng, grow(budget - len(v)))
    return h


def pinned_depth(m: int, tops: dict, weights: list[dict]) -> int:
    """The depth extension grows to with no cap: the least m' > m with
    2^-m' < delta^2 / 2n, where delta is the score slack over 2 sigma."""
    slack = min(stem_score(tops, w["phi"]) - Fraction(w["eps"]) for w in weights)
    sigma = sum(2 ** (1 + len(v)) for v in tops.values())
    delta = slack / (2 * sigma)
    threshold = delta * delta / (2 * len(weights))
    m2 = m + 1
    while Fraction(1, 2 ** m2) >= threshold:
        m2 += 1
    return m2


def _condition(m: int, h: dict, u: list[dict]) -> dict:
    return {"m": m, "h": [[s, v] for s, v in sorted(h.items())], "u": u}


_TOP_BUDGET = {0: 3, 1: 2, 2: 1, 3: 0}


def fresh_condition(rng: random.Random, target: int) -> dict:
    """A shallow condition (depth <= 3, 1-3 weights) whose extension is
    pinned at depth `target`; drawn by rejection."""
    while True:
        m = rng.choice([0, 0, 1, 1, 2, 2, 3])
        h = monotone_stem(rng, m, _TOP_BUDGET[m])
        tops = {s: v for s, v in h.items() if len(s) == m}
        u = tagged_weights(rng, tops, rng.randint(1, 3))
        if pinned_depth(m, tops, u) == target:
            return _condition(m, h, u)


def deep_condition(rng: random.Random, m: int, weights: int) -> dict:
    """An arbitrary monotone stem at depth m: each child adds 0-2 bits
    with random probability, so values are not constant per layer."""
    h = monotone_stem(rng, m, 8, grow=lambda room: min(room, rng.choice([0, 0, 0, 1, 1, 2])))
    tops = {s: v for s, v in h.items() if len(s) == m}
    return _condition(m, h, tagged_weights(rng, tops, weights))


# ------------------------------------------------------------ names


def random_partition(rng: random.Random, max_depth: int) -> list[dict]:
    """A labeled clopen partition: random splits down to max_depth, leaves
    grouped under 2-8 labels drawn from 0..49."""
    leaves, stack = [], [""]
    while stack:
        s = stack.pop()
        if len(s) < max_depth and (len(s) < 2 or rng.random() < 0.62):
            stack += [s + "1", s + "0"]
        else:
            leaves.append(s)
    count = min(len(leaves), rng.randint(2, 8))
    labels = rng.sample(range(50), count)
    groups = [[] for _ in range(count)]
    rng.shuffle(leaves)
    for i, leaf in enumerate(leaves):
        groups[i if i < count else rng.randrange(count)].append(leaf)
    return [{"label": lab, "cells": sorted(g)} for lab, g in zip(labels, groups)]


def random_name(rng: random.Random, horizon: int, max_depth: int) -> dict:
    return {"horizon": horizon,
            "coords": [random_partition(rng, max_depth) for _ in range(horizon)]}


def _measure(gens: list[str]) -> Fraction:
    # leaves of one partition are disjoint, so their measures add
    return sum((Fraction(1, 2 ** len(g)) for g in gens), Fraction(0))


def refine_scenario(rng: random.Random, horizon: int) -> dict:
    """A name, a function dodging its slalom (a light label where one
    exists, else a label the coordinate does not use), and a condition set
    of measure at least 1/2."""
    name = random_name(rng, horizon, 10)
    f = []
    for n, coord in enumerate(name["coords"]):
        light = [c["label"] for c in coord if _measure(c["cells"]) <= Fraction(1, (n + 1) ** 2)]
        f.append(rng.choice(light) if light else 50 + rng.randrange(50))
    leaves = _strings(4)
    p = sorted(rng.sample(leaves, rng.randint(8, 14)))
    return {"name": name, "function": f, "condition_set": p, "start": rng.randint(1, 3)}


DIAGRAM_NODES = ("add_null", "cov_null", "non_null", "cof_null", "add_meager", "cov_meager",
                 "non_meager", "cof_meager", "b", "d", "cov_star", "non_star")
_LABELS = ("aleph1", "aleph2", "aleph3", "aleph4", "continuum")


def diagram_scenario(rng: random.Random) -> dict:
    """A consistent single assignment (one label everywhere) or a consistent
    ground/extension pair (the covering trait rises to the starred slot)."""
    low = rng.randrange(len(_LABELS) - 1)
    lab = _LABELS[low]
    if rng.random() < 0.5:
        return {"assignment": {node: lab for node in DIAGRAM_NODES}}
    high = _LABELS[rng.randrange(low + 1, len(_LABELS))]
    ground = {node: lab for node in DIAGRAM_NODES}
    for node in ("b", "d", "non_meager", "cof_meager", "cof_null", "non_null", "cov_star", "non_star"):
        ground[node] = high
    return {"ground": ground, "extension": dict(ground, cov_null=high)}


def smz_scenario(rng: random.Random) -> dict:
    """Tolerances through horizon^3, and heavy interval families on four
    levels whose flattened i-th interval is no longer than eps[i]."""
    horizon = rng.randint(4, 6)
    eps = [Fraction(1, rng.randint(2, 4096)) for _ in range(horizon ** 3 + 1 + rng.randrange(8))]
    heavy, pos = [], 0
    for n in range(4):
        lefts = sorted(rng.sample(range(64), rng.randint(0, min(3, (n + 1) ** 2 - 1))))
        group = []
        for left in (Fraction(x, 64) for x in lefts):
            group.append([rat(left), rat(left + min(eps[pos], 1 - left))])
            pos += 1
        rng.shuffle(group)
        heavy.append(group)
    return {"horizon": horizon, "eps": [rat(e) for e in eps], "heavy": heavy}


def rapid_scenario(rng: random.Random) -> dict:
    """A thin set (at most n points below n^3) with a product window, and a
    selection sparse below every checkpoint."""
    blocks = rng.randint(20, 60)
    cubes = [rng.randrange(k ** 3, (k + 1) ** 3) for k in range(1, 40)]
    r = [rng.randrange(j * j, (j + 1) * (j + 1)) for j in range(blocks)]
    checkpoints = sorted(rng.sample(range(1, 4 * blocks), 6))
    selection = []
    for j in sorted(rng.sample(range(blocks), 8)):
        # sparse: at most n selected indices below checkpoint n
        if all(sum(1 for x in selection if x < c) < n for n, c in enumerate(checkpoints) if j < c):
            selection.append(j)
    return {"set": cubes, "blocks": blocks, "product": {"start": 0, "stop": blocks},
            "selection": selection, "rapid": r, "checkpoints": checkpoints}


# ------------------------------------------------------------ workloads

# Each block below is laid out so that, in a run of the blocks that
# BLOCK_SECONDS gives for 15 seconds, the median and the tail (ten
# samples beyond it) both fall well inside one cost class, not on the
# boundary between two.
#
# Pinned extension depths of one extend-fresh block, drawn from the range
# of the C04 acceptance traffic (most conditions pin at depth 13-15); the
# depth-14 class holds the median and the tail.
FRESH_DEPTHS = (6, 9, 11, 13, 14, 14, 14, 14, 14, 15, 15, 15, 16)
# (input stem depth, --max-new-levels, weights) of one extend-deep block;
# the depth-10 class holds the median and the tail.  The weight count is
# fixed per slot because the search set-up cost grows with it.
DEEP_SHAPES = ((9, 1, 1), (9, 2, 2), (9, 2, 3), (10, 1, 1), (10, 1, 2), (10, 1, 2),
               (10, 1, 2), (10, 1, 3), (11, 2, 2))
# (steps, covers) of one generic-run block; 3 new levels per step, every
# cover at resolution r1 + r2 = 4.  A depth-15 run costs about four
# depth-12 runs, so it is one in nine; the three-cover class holds the
# median and the tail.
RUN_SHAPES = ((4, 1), (4, 2), (4, 2), (4, 3), (4, 3), (4, 3), (4, 3), (4, 3), (5, 1))
# names-mix: four refine and four slalom calls on names of one horizon,
# plus one smz, one rapid and one diagram call.  Eight of eleven
# operations are names calls, which are slower than the others, so the
# median and the tail both fall among them.
NAMES_HORIZON = 160

# Typical operation time of one block, in seconds, on a shared 2-vCPU
# host with Python 3.11.  A run of S seconds is ceil(S / this) blocks,
# fixed before timing starts: both sides of a comparison run the same
# operations, and the tail percentile does not move with the host's speed.
BLOCK_SECONDS = {"extend-fresh": 8.0, "extend-deep": 5.5, "generic-run": 7.0, "names-mix": 6.0}


def block_count(workload: str, seconds: float) -> int:
    return max(1, math.ceil(seconds / BLOCK_SECONDS[workload]))


def _cover(rng: random.Random) -> dict:
    """One rectangle at resolution (1, 3), (2, 2) or (3, 1): measure 1/16."""
    r1 = rng.randint(1, 3)
    return {"resolution": [r1, 4 - r1], "rects": [[_bits(rng, r1), _bits(rng, 4 - r1)]]}


def _block(workload: str, rng: random.Random, b: int) -> list[Op]:
    ops: list[Op] = []

    def add(command: str, scenario: dict, *args: str, tag: str = "") -> None:
        ops.append(Op(f"b{b:02d}-{len(ops):02d}-{command}{tag}", command, args, scenario))

    if workload == "extend-fresh":
        for depth in FRESH_DEPTHS:
            add("extend", {"condition": fresh_condition(rng, depth)},
                "--seed", str(rng.getrandbits(31)), tag=f"-d{depth}")
    elif workload == "extend-deep":
        for m, levels, weights in DEEP_SHAPES:
            add("extend", {"condition": deep_condition(rng, m, weights)},
                "--seed", str(rng.getrandbits(31)), "--max-new-levels", str(levels),
                tag=f"-m{m}+{levels}")
    elif workload == "generic-run":
        for steps, ncov in RUN_SHAPES:
            at = [0] + sorted(rng.sample(range(1, steps), ncov - 1))
            covers = [{"cover": _cover(rng), "eps": rng.choice(["1/2", "5/8", "3/4"]),
                       "at_step": step} for step in at]
            add("generic-run", {"steps": steps, "covers": covers},
                "--seed", str(rng.getrandbits(31)), tag=f"-d{3 * steps}c{ncov}")
    elif workload == "names-mix":
        for _ in range(4):
            add("refine", refine_scenario(rng, NAMES_HORIZON))
            add("slalom", {"name": random_name(rng, NAMES_HORIZON, 10)})
        add("smz", smz_scenario(rng))
        add("rapid", rapid_scenario(rng))
        add("diagram", diagram_scenario(rng))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def build(workload: str, seed: int, count: int = 1) -> list[list[Op]]:
    """`count` blocks of the workload; the same seed gives the same ops."""
    rng = random.Random(f"{workload}|{seed}")
    return [_block(workload, rng, b) for b in range(count)]


def mix(blocks: list[list[Op]]) -> Counter:
    """Operations per command and size class in one block."""
    return Counter(op.kind for op in blocks[0])
