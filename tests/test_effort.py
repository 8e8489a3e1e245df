"""Effort budgets: deterministic work counts of fixed in-process scenarios.

Each scenario is shaped like a benchmark workload and built here from a
fixed seed, as calls that run once the counting starts.  Counting
wrappers count reads of one weight-table row (`_read_row`) and the
table entries those reads cover (`row entries`), passes over
the tops (`_top_groups`), certificates (`_certify`), weights built from
plane sets (`phi_from_clopen`), public `eval_phi`, `check_bits`,
`validate`, `score` and `_sub_seed` calls, and the `contains_rect` and
`complement` calls of plane sets.  They also count the keys of every
stem `extend_detailed` grows (`grown keys`) and the classes of every
census of the tops, counted from `h` or from the accepted bit patterns
(`census classes`).  Every count must stay at or below its budget, which
is the count when the budget was pinned: a change that lowers a count
lowers its budget with it.  The counts are printed, so a run with `-rP`
shows them.
"""

import random
from fractions import Fraction

import pytest

from forcing_lab import (
    ClopenPlaneSet,
    Condition,
    ScheduledCover,
    TaggedWeight,
    WeightFunction,
    extend_detailed,
    generic_run,
    phi_from_clopen,
    refine_condition,
    score,
    slalom_extract,
)
from forcing_lab import cantor, poset
from forcing_lab.jsonio import clopen_from_json, name_from_json

# counter -> the namespaces that bind the counted function, by attribute name
COUNTED = {
    "_read_row": (poset,),
    "_top_groups": (poset,),
    "_certify": (poset,),
    "phi_from_clopen": (poset,),
    "eval_phi": (poset,),
    "check_bits": (cantor, poset),
    "validate": (poset,),
    "score": (poset,),
    "_sub_seed": (poset,),
    "contains_rect": (ClopenPlaneSet,),
    "complement": (ClopenPlaneSet,),
}


def _bits(rng, k):
    return format(rng.getrandbits(k), f"0{k}b") if k else ""


def _stem(rng, m, budget, grow):
    """A monotone stem map of depth m whose values are at most `budget`
    bits long; a child adds grow(room) bits to its parent's value."""
    h = {"": _bits(rng, rng.randint(0, budget))}
    for level in range(m):
        for s in sorted(k for k in h if len(k) == level):
            for b in "01":
                h[s + b] = h[s] + _bits(rng, grow(budget - len(h[s])))
    return h


def _weights(rng, h, count):
    """1-3 full, uniform or cover-complement weights tagged at a quarter or
    half of their score on h, each an equal weight with no memo yet, as a
    decoded scenario has."""
    u = []
    for _ in range(count):
        kind = rng.choice(["full", "uniform", "cover"])
        if kind == "full":
            phi = WeightFunction.full()
        elif kind == "uniform":
            phi = WeightFunction.scaled_uniform(
                Fraction(rng.choice([6, 7, 8]), 8), (rng.randint(0, 2), rng.randint(0, 2)))
        else:
            r1, r2 = rng.randint(1, 3), rng.randint(1, 3)
            cover = ClopenPlaneSet.from_rects([(_bits(rng, r1), _bits(rng, r2))], (r1, r2))
            phi = phi_from_clopen(cover.complement())
        tag = score(h, phi) * rng.choice([Fraction(1, 4), Fraction(1, 2)])
        u.append(TaggedWeight(tag, WeightFunction(phi.resolution, phi.table)))
    return tuple(u)


def extend(*args, **kwargs):
    """extend_detailed as poset binds it at the call, so the counting
    wrapper sees the scenarios' own extensions as well as generic_run's."""
    return poset.extend_detailed(*args, **kwargs)


def generic_runs():
    """Two runs of 4 steps with 3 one-cell covers at r1 + r2 = 4, the first
    at step 0, growing 3 levels a step to depth 12."""
    rng = random.Random(1601)
    runs = []
    for _ in range(2):
        at = [0] + sorted(rng.sample(range(1, 4), 2))
        schedule = []
        for step in at:
            r1 = rng.randint(1, 3)
            cover = ClopenPlaneSet.from_rects([(_bits(rng, r1), _bits(rng, 4 - r1))], (r1, 4 - r1))
            schedule.append(ScheduledCover(cover, Fraction(rng.choice([4, 5, 6]), 8), step))
        runs.append((generic_run, (schedule, 4, rng.getrandbits(31)), {}))
    return runs


def deep_extensions():
    """Monotone stems at depth 9 and 10, values growing 0-2 bits a level up
    to 8 bits, with 1-3 weights, extended by 1 or 2 levels."""
    rng = random.Random(1602)
    runs = []
    for m, levels, count in ((9, 2, 3), (10, 1, 2)):
        h = _stem(rng, m, 8, lambda room: min(room, rng.choice([0, 0, 0, 1, 1, 2])))
        runs.append((extend, (Condition(m, h, _weights(rng, h, count)), rng.getrandbits(31)),
                     {"max_new_levels": levels}))
    return runs


def fresh_extensions():
    """Shallow stems (depth 0-3, short values) with 1-3 weights, extended
    to their pinned depth, which is drawn from 8-11 by rejection."""
    rng = random.Random(1701)
    runs = []
    for target in (8, 9, 10, 11):
        while True:
            m = rng.choice([0, 1, 2, 3])
            h = _stem(rng, m, 3 - m, lambda room: rng.randint(0, room))
            p = Condition(m, h, _weights(rng, h, rng.randint(1, 3)))
            if extend_detailed(p, 0, max_new_levels=1)[1].pinned_m_prime == target:
                break
        p = Condition(m, h, tuple(TaggedWeight(tw.eps, WeightFunction(tw.phi.resolution,
                                                                       tw.phi.table))
                                  for tw in p.u))
        runs.append((extend, (p, rng.getrandbits(31)), {}))
    return runs


def names_calls():
    """Two slalom and two refine calls on names of horizon 24 with cells
    down to depth 8, each decoded from its wire form as the CLI does."""
    rng = random.Random(1702)

    def partition():
        leaves, stack = [], [""]
        while stack:
            s = stack.pop()
            if len(s) < 8 and (len(s) < 2 or rng.random() < 0.62):
                stack += [s + "1", s + "0"]
            else:
                leaves.append(s)
        labels = rng.sample(range(50), min(len(leaves), rng.randint(2, 8)))
        groups = [leaves[i::len(labels)] for i in range(len(labels))]
        return [{"label": lab, "cells": sorted(g)} for lab, g in zip(labels, groups)]

    def name():
        return {"horizon": 24, "coords": [partition() for _ in range(24)]}

    def slalom(doc):
        return slalom_extract(name_from_json(doc))

    def refine(doc, cells, start):
        g = name_from_json(doc)
        f = [next(iter(set(range(50)) - slot)) for slot in slalom_extract(g).slots]
        return refine_condition(clopen_from_json(cells), g, f, start)

    runs = []
    for _ in range(2):
        runs.append((slalom, (name(),), {}))
        cells = sorted(rng.sample([_bits(rng, 4) for _ in range(16)], 8))
        runs.append((refine, (name(), cells, rng.randint(1, 3)), {}))
    return runs


SCENARIOS = {"generic-run": generic_runs, "extend-deep": deep_extensions,
             "extend-fresh": fresh_extensions, "names-mix": names_calls}
BUDGETS = {
    "generic-run": {"_read_row": 97, "_top_groups": 16, "_certify": 28, "phi_from_clopen": 6,
                    "eval_phi": 0, "check_bits": 1568, "validate": 8, "score": 6,
                    "_sub_seed": 1178, "contains_rect": 661, "complement": 6,
                    "row entries": 320, "grown keys": 18712, "census classes": 405},
    "extend-deep": {"_read_row": 11, "_top_groups": 2, "_certify": 0, "phi_from_clopen": 0,
                    "eval_phi": 0, "check_bits": 0, "validate": 2, "score": 0,
                    "_sub_seed": 1536, "contains_rect": 0, "complement": 0,
                    "row entries": 50, "grown keys": 8190, "census classes": 41},
    "extend-fresh": {"_read_row": 27, "_top_groups": 4, "_certify": 0, "phi_from_clopen": 0,
                     "eval_phi": 0, "check_bits": 0, "validate": 4, "score": 0,
                     "_sub_seed": 4, "contains_rect": 0, "complement": 0,
                     "row entries": 77, "grown keys": 7676, "census classes": 4},
    "names-mix": {"_read_row": 0, "_top_groups": 0, "_certify": 0, "phi_from_clopen": 0,
                  "eval_phi": 0, "check_bits": 2946, "validate": 0, "score": 0,
                  "_sub_seed": 0, "contains_rect": 0, "complement": 0,
                  "row entries": 0, "grown keys": 0, "census classes": 0},
}


def count_calls(monkeypatch) -> dict:
    counts = dict.fromkeys([*COUNTED, "row entries", "grown keys", "census classes"], 0)
    for name, namespaces in COUNTED.items():
        real = getattr(namespaces[0], name)

        def counting(*args, real=real, name=name, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        for namespace in namespaces:
            monkeypatch.setattr(namespace, name, counting)
    read_row = poset._read_row

    def reading(phi, s1, t1):
        counts["row entries"] += len(phi._integer_form[1].get(s1, ((), ()))[0])
        return read_row(phi, s1, t1)
    monkeypatch.setattr(poset, "_read_row", reading)
    real_extend = poset.extend_detailed

    def extending(*args, **kwargs):
        q, stats = real_extend(*args, **kwargs)
        counts["grown keys"] += len(q.h)
        return q, stats
    monkeypatch.setattr(poset, "extend_detailed", extending)
    for name in ("_top_groups", "_grown_census"):
        real_census = getattr(poset, name)

        def censusing(*args, real_census=real_census):
            census = real_census(*args)
            counts["census classes"] += len(census)
            return census
        monkeypatch.setattr(poset, name, censusing)
    return counts


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_effort_stays_within_budget(monkeypatch, scenario):
    runs = SCENARIOS[scenario]()  # built before counting starts
    counts = count_calls(monkeypatch)
    for fn, args, kwargs in runs:
        fn(*args, **kwargs)
    for name, count in counts.items():
        print(f"effort {scenario} {name}: {count} (budget {BUDGETS[scenario][name]})")
    assert {n: c for n, c in counts.items() if c > BUDGETS[scenario][n]} == {}
