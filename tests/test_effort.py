"""Effort budgets: deterministic work counts of fixed in-process scenarios.

Each scenario is shaped like a benchmark workload (`refine` like the
refine calls of names-mix, with more subtractions) and built here from a
fixed seed, as calls that run once the counting starts.  Counting
wrappers count reads of one weight-table row (`_read_row`) and the
table entries those reads cover (`row entries`), passes over
the tops (`_top_groups`), certificates (`_certify`), weights built from
plane sets (`phi_from_clopen`), public `eval_phi`, `check_bits`,
`validate` and `score` calls, the `contains_rect` and `complement`
calls of plane sets, the clopen sets canonicalized from given
generators whose bits they check (`_canonical`), the unchecked
canonicalizing passes, one inside each `_canonical` and one for each
cell `names.make_name` is given as generators (`_antichain`), and
the measures computed, of clopen sets and of the cells `make_name`
builds (`cylinder_mass`; a name's coordinate sums its cells' measures).
They also count the keys of every full stem map built from a layered
condition's layers (`materialized keys`, counted in `_stem_map`, the one
function that builds one; extension and runs hand back layered conditions and build
none, so only a reader of `h` pays for the map), the (top, value) pairs
grown from a layer (`grown tops`, counted in `_grown_tops`: extending an
extended condition grows its deepest level once from its last layer, and
census, `validate` and `score` read the last layer as it stands), the classes
of every census of the tops, counted from `h` or from the accepted bit
patterns (`census classes`; every condition, given or extended, keeps
its finest census and the conditions attach_weight makes share it, so
the readers of one stem at no finer cut count it once), and the checks the
searches build, one per weight for each stem class (`check builds`,
counted in `_stem_checks`).
Every count must stay at or below its budget, which is the count when the
budget was pinned: a change that lowers a count lowers its budget with
it.  The counts are printed, so a run with `-rP` shows them.

The texts `_shake` hashes are counted in two parts.  `_shake streams`
counts the texts f"{seed}|{m}|{m'}", one stream per extension with
weights, whose count the scenario alone fixes, so it has a budget.
`_shake draws` counts the texts f"{seed}|{m'}|{s}|{a}", one per candidate
drawn after a top's first, whose count depends on what the seed draws:
it has no budget, and must equal the sum of min(n, _RETRY_CAP - 1) over
every top's retries n in every extension's `ExtendStats.retries`, a list
aligned with the tops, read from the results of `poset.extend_detailed`,
so a run that retries by chance cannot fail the budgets.
"""

import random
from fractions import Fraction

import pytest

from forcing_lab import (
    ClopenPlaneSet,
    ClopenSet,
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
from forcing_lab import cantor, names, poset
from forcing_lab.jsonio import (
    clopen_from_json,
    condition_from_json,
    name_from_json,
    rational_to_json,
    weight_to_json,
)

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
    "contains_rect": (ClopenPlaneSet,),
    "complement": (ClopenPlaneSet,),
    "_canonical": (cantor,),
    "_antichain": (cantor, names),
    "cylinder_mass": (cantor, names),
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
        p = Condition(m, h, _weights(rng, h, count))
        runs.append((_extend, (p, rng.getrandbits(31)), {"max_new_levels": levels}))
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
        runs.append((_extend, (p, rng.getrandbits(31)), {}))
    return runs


def _name(rng, horizon, depth):
    """The wire form of a name whose coordinates split the space down to
    `depth` and deal the leaves to 2-8 labels drawn from 0..49."""
    def partition():
        leaves, stack = [], [""]
        while stack:
            s = stack.pop()
            if len(s) < depth and (len(s) < 2 or rng.random() < 0.62):
                stack += [s + "1", s + "0"]
            else:
                leaves.append(s)
        labels = rng.sample(range(50), min(len(leaves), rng.randint(2, 8)))
        groups = [leaves[i::len(labels)] for i in range(len(labels))]
        return [{"label": lab, "cells": sorted(g)} for lab, g in zip(labels, groups)]

    return {"horizon": horizon, "coords": [partition() for _ in range(horizon)]}


def _extend(p, seed, **kwargs):
    # looked up when called, so count_calls sees the run's statistics
    return poset.extend_detailed(p, seed, **kwargs)


def _slalom(doc):
    return slalom_extract(name_from_json(doc))


def _refine(doc, cells, start):
    g = name_from_json(doc)
    f = [next(iter(set(range(50)) - slot)) for slot in slalom_extract(g).slots]
    return refine_condition(clopen_from_json(cells), g, f, start)


def names_calls():
    """Two slalom and two refine calls on names of horizon 24 with cells
    down to depth 8, each decoded from its wire form as the CLI does."""
    rng = random.Random(1702)
    runs = []
    for _ in range(2):
        runs.append((_slalom, (_name(rng, 24, 8),), {}))
        cells = sorted(rng.sample([_bits(rng, 4) for _ in range(16)], 8))
        runs.append((_refine, (_name(rng, 24, 8), cells, rng.randint(1, 3)), {}))
    return runs


def refine_calls():
    """Two refine calls that subtract 37 of the 40 coordinates of a name
    with cells down to depth 10 from the complement of 200 random 12-bit
    cylinders: the clopen algebra of `refine` in bulk."""
    rng = random.Random(2801)
    runs = []
    for _ in range(2):
        cells = sorted((~ClopenSet(_bits(rng, 12) for _ in range(200))).generators)
        runs.append((_refine, (_name(rng, 40, 10), cells, 1), {}))
    return runs


SCENARIOS = {"generic-run": generic_runs, "extend-deep": deep_extensions,
             "extend-fresh": fresh_extensions, "names-mix": names_calls,
             "refine": refine_calls}
BUDGETS = {
    "generic-run": {"_read_row": 59, "_top_groups": 2, "_certify": 22, "phi_from_clopen": 6,
                    "eval_phi": 0, "check_bits": 1520, "validate": 8, "score": 6,
                    "_shake streams": 8, "contains_rect": 634, "complement": 6,
                    "_canonical": 0, "_antichain": 0, "cylinder_mass": 0, "row entries": 150,
                    "materialized keys": 0, "grown tops": 1168,
                    "census classes": 242, "check builds": 234},
    "extend-deep": {"_read_row": 11, "_top_groups": 2, "_certify": 0, "phi_from_clopen": 0,
                    "eval_phi": 0, "check_bits": 0, "validate": 2, "score": 0,
                    "_shake streams": 2, "contains_rect": 0, "complement": 0,
                    "_canonical": 0, "_antichain": 0, "cylinder_mass": 0, "row entries": 50,
                    "materialized keys": 0, "grown tops": 0,
                    "census classes": 41, "check builds": 38},
    "extend-fresh": {"_read_row": 21, "_top_groups": 4, "_certify": 0, "phi_from_clopen": 0,
                     "eval_phi": 0, "check_bits": 0, "validate": 4, "score": 0,
                     "_shake streams": 4, "contains_rect": 0, "complement": 0,
                     "_canonical": 0, "_antichain": 0, "cylinder_mass": 0, "row entries": 58,
                     "materialized keys": 0, "grown tops": 0,
                     "census classes": 4, "check builds": 7},
    # names-mix: 468 cells in 96 coordinates and 2 condition sets, each
    # canonicalized once; only the condition sets go through _canonical,
    # since make_name checks a name's bits once and canonicalizes its cells
    # unchecked; one measure per cell and per condition set, none per
    # coordinate, though each name's slalom is extracted once or twice
    "names-mix": {"_read_row": 0, "_top_groups": 0, "_certify": 0, "phi_from_clopen": 0,
                  "eval_phi": 0, "check_bits": 0, "validate": 0, "score": 0,
                  "_shake streams": 0, "contains_rect": 0, "complement": 0,
                  "_canonical": 2, "_antichain": 470, "cylinder_mass": 470, "row entries": 0,
                  "materialized keys": 0, "grown tops": 0,
                  "census classes": 0, "check builds": 0},
    # refine: 408 cells in 80 coordinates and 2 condition sets, as above;
    # the 74 differences canonicalize nothing and measure nothing
    "refine": {"_read_row": 0, "_top_groups": 0, "_certify": 0, "phi_from_clopen": 0,
               "eval_phi": 0, "check_bits": 0, "validate": 0, "score": 0,
               "_shake streams": 0, "contains_rect": 0, "complement": 0,
               "_canonical": 2, "_antichain": 410, "cylinder_mass": 410, "row entries": 0,
               "materialized keys": 0, "grown tops": 0,
               "census classes": 0, "check builds": 0},
}


def count_calls(monkeypatch) -> tuple[dict, list]:
    """The counters, which the wrapped functions add to, and the list of the
    ExtendStats of every extension, which poset.extend_detailed fills."""
    counts = dict.fromkeys([*COUNTED, "_shake streams", "_shake draws", "row entries",
                            "materialized keys", "grown tops", "census classes",
                            "check builds"], 0)
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
    stem_map = poset._stem_map

    def materializing(p):
        h = stem_map(p)
        counts["materialized keys"] += len(h)
        return h
    monkeypatch.setattr(poset, "_stem_map", materializing)
    grown_tops = poset._grown_tops

    def growing(*args):
        tops = grown_tops(*args)
        counts["grown tops"] += len(tops)
        return tops
    monkeypatch.setattr(poset, "_grown_tops", growing)
    for name in ("_top_groups", "_grown_census"):
        real_census = getattr(poset, name)

        def censusing(*args, real_census=real_census):
            census = real_census(*args)
            counts["census classes"] += len(census)
            return census
        monkeypatch.setattr(poset, name, censusing)
    stem_checks = poset._stem_checks

    def building(phi_list, *args):
        counts["check builds"] += len(phi_list)
        return stem_checks(phi_list, *args)
    monkeypatch.setattr(poset, "_stem_checks", building)
    shake = poset._shake

    def shaking(text, size):  # a drawn candidate's text names its top and attempt
        counts["_shake draws" if text.count("|") == 3 else "_shake streams"] += 1
        return shake(text, size)
    monkeypatch.setattr(poset, "_shake", shaking)
    extend, extensions = poset.extend_detailed, []

    def extending(*args, **kwargs):
        q, stats = extend(*args, **kwargs)
        extensions.append(stats)
        return q, stats
    monkeypatch.setattr(poset, "extend_detailed", extending)
    return counts, extensions


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_effort_stays_within_budget(monkeypatch, scenario):
    runs = SCENARIOS[scenario]()  # built before counting starts
    counts, extensions = count_calls(monkeypatch)
    for fn, args, kwargs in runs:
        fn(*args, **kwargs)
    draws = counts.pop("_shake draws")
    retried = sum(min(n, poset._RETRY_CAP - 1)
                  for stats in extensions for n in stats.retries)
    for name, count in counts.items():
        print(f"effort {scenario} {name}: {count} (budget {BUDGETS[scenario][name]})")
    print(f"effort {scenario} _shake draws: {draws} (drawn after a top's first: {retried})")
    assert {n: c for n, c in counts.items() if c > BUDGETS[scenario][n]} == {}
    assert draws == retried


def test_a_decoded_and_a_built_extension_merge_as_their_twins():
    # a decoded condition's pairs are the decoded [key, value] lists and its
    # twin built from h has tuples; extended with one seed they have one stem,
    # and merging them equals merging their materialized twins
    rng = random.Random(4401)
    h = _stem(rng, 6, 4, lambda room: min(room, rng.choice([0, 0, 1])))
    u = _weights(rng, h, 2)
    wire = {"m": 6, "h": [[s, v] for s, v in h.items()],
            "u": [{"eps": rational_to_json(tw.eps), "phi": weight_to_json(tw.phi)} for tw in u]}
    q1, stats1 = extend_detailed(condition_from_json(wire), 9, max_new_levels=2)
    q2, stats2 = extend_detailed(Condition(6, h, u), 9, max_new_levels=2)
    assert stats1 == stats2
    assert (type(q1._base[1][0]), type(q2._base[1][0])) == (list, tuple)
    merged = poset.merge_same_stem(q1, q2)
    assert merged.u == q1.u + q2.u and merged._layers is q1._layers
    assert merged == poset.merge_same_stem(Condition(q1.m, q1.h, q1.u), Condition(q2.m, q2.h, q2.u))
