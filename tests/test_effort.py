"""Effort budgets: deterministic work counts of fixed in-process scenarios.

Each scenario is shaped like a benchmark workload and built here from a
fixed seed, as calls that run once the counting starts.  Counting
wrappers on `poset` count weight-table scans (`_scan`), passes over the
tops (`_top_groups`), weights built from plane sets (`phi_from_clopen`)
and public `eval_phi` calls.  Every count must stay at
or below its budget, which is the count when the budget was pinned: a
change that lowers a count lowers its budget with it.  The counts are
printed, so a run with `-rP` shows them.
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
    score,
)
from forcing_lab import poset

COUNTED = ("_scan", "_top_groups", "phi_from_clopen", "eval_phi")


def _bits(rng, k):
    return format(rng.getrandbits(k), f"0{k}b") if k else ""


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
    to 8 bits, with 1-3 full, uniform or cover-complement weights tagged at
    a quarter or half of their score, extended by 1 or 2 levels."""
    rng = random.Random(1602)
    runs = []
    for m, levels, count in ((9, 2, 3), (10, 1, 2)):
        h = {"": _bits(rng, rng.randint(0, 8))}
        for level in range(m):
            for s in sorted(k for k in h if len(k) == level):
                for b in "01":
                    h[s + b] = h[s] + _bits(rng, min(8 - len(h[s]), rng.choice([0, 0, 0, 1, 1, 2])))
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
            # an equal weight with no memo yet, as a decoded scenario has
            u.append(TaggedWeight(tag, WeightFunction(phi.resolution, phi.table)))
        runs.append((extend_detailed, (Condition(m, h, tuple(u)), rng.getrandbits(31)),
                     {"max_new_levels": levels}))
    return runs


SCENARIOS = {"generic-run": generic_runs, "extend-deep": deep_extensions}
BUDGETS = {
    "generic-run": {"_scan": 83, "_top_groups": 16, "phi_from_clopen": 6, "eval_phi": 0},
    "extend-deep": {"_scan": 11, "_top_groups": 2, "phi_from_clopen": 0, "eval_phi": 0},
}


def count_calls(monkeypatch) -> dict:
    counts = dict.fromkeys(COUNTED, 0)
    for name in COUNTED:
        def counting(*args, real=getattr(poset, name), name=name, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(poset, name, counting)
    return counts


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_effort_stays_within_budget(monkeypatch, scenario):
    runs = SCENARIOS[scenario]()  # built before counting starts
    counts = count_calls(monkeypatch)
    for fn, args, kwargs in runs:
        fn(*args, **kwargs)
    for name in COUNTED:
        print(f"effort {scenario} {name}: {counts[name]} (budget {BUDGETS[scenario][name]})")
    assert {n: c for n, c in counts.items() if c > BUDGETS[scenario][n]} == {}
