"""Bundled acceptance suite: eleven checks runnable from tests or the CLI.

Each criterion is a plain function returning (passed, detail); run_all
wraps them with timing.  C01 and C02 check against the bitmap model of
`oracle`, which shares no code with the package, C04 the growth of each
extension against its growth check, and C11 the diagram checker against its
edge rule over every two-level assignment.  The rest use direct arithmetic
or exhaustive enumeration, but C04-C06 still reach the library for part of
their verdict: `validate`, `_stem_checks` and `_certify`.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import product

from . import oracle
from .cantor import EMPTY, FULL, ClopenPlaneSet, ClopenSet, _extensions
from .diagram import (
    NODES,
    CardinalLabel,
    DiagramAssignment,
    check_assignment,
    check_extension_pair,
    random_extension_constraints,
)
from .errors import FrozenValue
from .names import FiniteName, boolean_value, make_name, refine_condition, slalom_extract
from .poset import (
    Condition,
    ScheduledCover,
    TaggedWeight,
    WeightFunction,
    _Verdicts,
    _stem_checks,
    eval_phi,
    extend_detailed,
    generic_run,
    merge_same_stem,
    phi_from_clopen,
    score,
    sigma_centered_index,
    validate,
)
from .smz import (
    IntervalSpec,
    cover_translate,
    flatten_heavy_intervals,
    product_bound,
    rapidity_check,
    thin_set_bound_check,
)

ORACLE_DEPTH = 8
# the most generators of a random set, labels of a random partition's pool,
# and bits of a random cover's resolution in each coordinate
SET_GENERATORS, LABEL_POOL, COVER_RESOLUTION = 6, 12, 3


# ------------------------------------------------------------- generators

def random_clopen(rng: random.Random) -> ClopenSet:
    roll = rng.random()
    if roll < 0.05:
        return EMPTY
    if roll < 0.10:
        return FULL
    gens = [
        "".join(rng.choice("01") for _ in range(rng.randint(1, ORACLE_DEPTH)))
        for _ in range(rng.randint(1, SET_GENERATORS))
    ]
    return ClopenSet(gens)


def random_partition(rng: random.Random, max_depth: int = 4):
    depth = rng.randint(1, max_depth)
    leaves = _extensions("", depth)
    rng.shuffle(leaves)
    count = rng.randint(1, min(6, len(leaves)))
    labels = rng.sample(range(LABEL_POOL), count)
    groups: list[list[str]] = [[] for _ in range(count)]
    for i, leaf in enumerate(leaves):
        groups[i if i < count else rng.randrange(count)].append(leaf)
    return [(lab, ClopenSet(g)) for lab, g in zip(labels, groups)]


def random_name(rng: random.Random, horizon: int, max_depth: int = 4) -> FiniteName:
    return make_name([random_partition(rng, max_depth) for _ in range(horizon)])


def random_monotone_stem(rng: random.Random, depth: int, budget: int) -> dict:
    """Monotone stem map with top-level value lengths at most `budget`."""
    h = {"": "".join(rng.choice("01") for _ in range(rng.randint(0, budget)))}
    for level in range(depth):
        for s in [k for k in list(h) if len(k) == level]:
            room = budget - len(h[s])
            for b in "01":
                extra = rng.randint(0, room) if room > 0 else 0
                h[s + b] = h[s] + "".join(rng.choice("01") for _ in range(extra))
    return h


def random_cover(rng: random.Random, max_rects: int) -> ClopenPlaneSet:
    r1 = rng.randint(1, COVER_RESOLUTION)
    r2 = rng.randint(1, COVER_RESOLUTION)
    cells = [(a, b) for a in _extensions("", r1) for b in _extensions("", r2)]
    picked = rng.sample(cells, rng.randint(1, min(max_rects, len(cells))))
    return ClopenPlaneSet((r1, r2), frozenset(picked))


def random_extension_weight(rng: random.Random, h: dict) -> tuple[Fraction, WeightFunction]:
    kind = rng.choice(["full", "uniform", "cover"])
    if kind == "full":
        phi = WeightFunction.full()
    elif kind == "uniform":
        c = Fraction(rng.choice([6, 7, 8]), 8)
        phi = WeightFunction.scaled_uniform(c, (rng.randint(0, 2), rng.randint(0, 2)))
    else:
        phi = phi_from_clopen(random_cover(rng, max_rects=1).complement())
    sc = score(h, phi)
    if sc < Fraction(1, 2):  # keep the extension depth formula desk-sized
        phi = WeightFunction.full()
        sc = Fraction(1)
    eps = sc * rng.choice([Fraction(1, 4), Fraction(1, 2)])
    return eps, phi


_TOP_BUDGET = {0: 3, 1: 2, 2: 1, 3: 0}


def random_condition(rng: random.Random) -> Condition:
    """Seeded conditions with depth <= 3, at most 3 weights, and slack kept
    wide enough that the pinned extension depth stays materializable."""
    m = rng.choice([0, 0, 1, 1, 2, 2, 3])
    h = random_monotone_stem(rng, m, _TOP_BUDGET[m])
    u = tuple(
        TaggedWeight(*random_extension_weight(rng, h))
        for _ in range(rng.randint(1, 3))
    )
    p = Condition(m, h, u)
    rep = validate(p)
    if not rep.ok:
        raise AssertionError(f"generator built invalid condition: {rep.first}")
    return p


# -------------------------------------------------------------- criteria

def criterion_set_algebra() -> tuple[bool, str]:
    """Exact set algebra matches the depth-8 bitmap oracle on 500 seeded sets."""
    rng = random.Random(101)
    sets = [random_clopen(rng) for _ in range(500)]
    space = (1 << (2 ** ORACLE_DEPTH)) - 1
    checked = 0
    for a, b in zip(sets, sets[1:] + sets[:1]):
        ma, mb = (oracle.bitmap(x.generators, ORACLE_DEPTH) for x in (a, b))
        if a.measure() != oracle.measure(a.generators):
            return False, f"measure mismatch on {sorted(a.generators)}"
        if oracle.bitmap(a.union(b).generators, ORACLE_DEPTH) != ma | mb:
            return False, "union mismatch"
        if oracle.bitmap(a.intersect(b).generators, ORACLE_DEPTH) != ma & mb:
            return False, "intersection mismatch"
        if oracle.bitmap(a.complement().generators, ORACLE_DEPTH) != space ^ ma:
            return False, "complement mismatch"
        if oracle.bitmap(a.difference(b).generators, ORACLE_DEPTH) != ma & ~mb:
            return False, "difference mismatch"
        for result in (a.intersect(b), a.complement(), a.difference(b)):
            if result != ClopenSet(result.generators):
                return False, f"non-canonical result {sorted(result.generators)}"
        if a.union(b).complement() != a.complement().intersect(b.complement()):
            return False, "De Morgan (union) fails"
        if a.intersect(b).complement() != a.complement().union(b.complement()):
            return False, "De Morgan (intersection) fails"
        if a.complement().complement() != a:
            return False, "double complement fails"
        if a.union(b).measure() != a.measure() + b.measure() - a.intersect(b).measure():
            return False, "inclusion-exclusion fails"
        disjoint = a.difference(b)
        if disjoint.union(a.intersect(b)).measure() != a.measure():
            return False, "additivity fails"
        checked += 1
    return True, f"500 sets, {checked} pairs against the bitmap oracle"


def criterion_slalom_bound() -> tuple[bool, str]:
    """Extracted slots stay strictly below (n+1)^2 on 200 seeded names."""
    rng = random.Random(202)
    worst = 0
    for _ in range(200):
        g = random_name(rng, horizon=20)
        s = slalom_extract(g)
        for n in range(20):
            threshold = Fraction(1, (n + 1) ** 2)
            direct = {lab for lab, cell in g.coordinate(n)
                      if oracle.measure(cell.generators) > threshold}
            if direct != s.slots[n]:
                return False, f"slot {n} mismatch with direct threshold count"
            if len(s.slots[n]) >= (n + 1) ** 2:
                return False, f"slot {n} holds {len(s.slots[n])} labels"
            worst = max(worst, len(s.slots[n]))
    return True, f"200 names, horizon 20, largest slot {worst}"


def criterion_refinement() -> tuple[bool, str]:
    """Refinement keeps positive measure and exact disjointness, 100 seeded."""
    rng = random.Random(303)
    for i in range(100):
        horizon = rng.randint(8, 12)
        g = random_name(rng, horizon, max_depth=6)
        slalom = slalom_extract(g)
        f = []
        for k in range(horizon):
            threshold = Fraction(1, (k + 1) ** 2)
            options = [lab for lab, cell in g.coordinate(k)
                       if cell.measure() <= threshold]
            f.append(rng.choice(options) if options else 99)
        leaves = _extensions("", 3)
        p = ClopenSet(rng.sample(leaves, rng.randint(4, 8)))
        start = rng.randint(1, 3)
        q, n = refine_condition(p, g, f, start)
        if q.measure() <= 0:
            return False, f"instance {i}: refined set lost all measure"
        removed = Fraction(0)
        for k in range(n, horizon):
            bv = boolean_value(g, k, f[k])
            removed += bv.measure()
            if not q.intersect(bv).is_empty():
                return False, f"instance {i}: q meets value cell at {k}"
        if q.measure() < p.measure() - removed:
            return False, f"instance {i}: measure dropped past the tail bound"
        if any(f[k] in slalom.slots[k] for k in range(start, horizon)):
            return False, f"instance {i}: generator chose a slalom value"
    return True, "100 refinements, exact disjointness and positive measure"


def criterion_extension() -> tuple[bool, str]:
    """Extension succeeds with valid output, one-bit growth, mean retries <= 4."""
    rng = random.Random(404)
    total_retries = 0
    total_stems = 0
    for i in range(100):
        p = random_condition(rng)
        q, stats = extend_detailed(p, seed=rng.getrandbits(32))
        # the full contract on the materialized stem, not the layered shortcut
        rep = validate(Condition(q.m, q.h, q.u))
        if not rep.ok:
            return False, f"instance {i}: invalid extension: {rep.first.detail}"
        if q.m != stats.pinned_m_prime:
            return False, f"instance {i}: depth {q.m} is not the pinned {stats.pinned_m_prime}"
        problems = oracle.growth_problems(q.h, p.m, q.m, p.h.items())
        if problems:
            return False, f"instance {i}: {problems[0]}"
        if stats.exhaustive_stems:
            return False, f"instance {i}: sampling fell back to exhaustive search"
        total_retries += sum(stats.retries)
        total_stems += len(stats.retries)
    mean = total_retries / total_stems if total_stems else 0.0
    if mean > 4:
        return False, f"mean retries {mean:.2f} exceeds 4"
    return True, f"100 extensions, mean retries {mean:.3f} over {total_stems} stems"


def criterion_tail_oracle() -> tuple[bool, str]:
    """Exhaustive enumeration of bit choices at depth 2 and 3 confirms both
    the violating-fraction bound and the exact second-moment bound."""
    rng = random.Random(505)
    h = {"": ""}
    weights = []
    for _ in range(20):
        kind = rng.choice(["cover", "uniform", "full"])
        if kind == "cover":
            weights.append(phi_from_clopen(
                random_cover(rng, max_rects=2).complement()))
        elif kind == "uniform":
            weights.append(WeightFunction.scaled_uniform(
                Fraction(rng.randint(4, 8), 8), (rng.randint(0, 2), rng.randint(0, 2))))
        else:
            weights.append(WeightFunction.full())
    checked = 0
    for phi in weights:
        total_mass = eval_phi(phi, "", "")
        deltas = [total_mass / 4, Fraction(1, 2), Fraction(1, 3)]
        for m2 in (2, 3):
            for delta in deltas:
                if delta <= 0:
                    continue
                verdicts = _Verdicts(_stem_checks([phi], "", "", 0, m2, delta))
                space = 2 ** (2 ** m2)
                violating = sum(verdicts[e][0] >= 0 for e in range(space))
                bound = min(Fraction(1), Fraction(1, 2 ** m2) / (delta * delta))
                if Fraction(violating, space) > bound:
                    return False, (
                        f"violating fraction {violating}/{space} beats the "
                        f"bound {bound} at depth {m2}, delta {delta}")
                checked += 1
            # exact second moment of the new-top sum under uniform bits
            variance = Fraction(0)
            for t in _extensions("", m2):
                v0 = eval_phi(phi, t, "0")
                v1 = eval_phi(phi, t, "1")
                variance += Fraction(1, 4) * (v0 - v1) ** 2
            cap = Fraction(2 ** m2, 2 ** (2 * m2 + 2))
            if variance > cap or cap >= Fraction(1, 2 ** m2):
                return False, f"second moment {variance} beats its cap {cap}"
    return True, f"20 weights, {checked} enumerations of every bit choice"


def criterion_null_avoidance() -> tuple[bool, str]:
    """Four constrained extension steps keep the cover complement heavy."""
    g = ClopenPlaneSet.from_rects([("0", "00")])  # measure 1/8 at the zero corner
    p, trace = generic_run([ScheduledCover(g, Fraction(1, 4), 0)], steps=4, seed=2026)
    floor = Fraction(3, 4)
    for entry in trace:
        for _, cert in entry.certificates:
            if cert.score_f <= floor:
                return False, (
                    f"step {entry.step} ({entry.action}): score {cert.score_f} "
                    f"fell to the floor {floor}")
    last = trace[-1].certificates
    if not last:
        return False, "no certificate on the final entry"
    for _, cert in last:
        if cert.inside != cert.score_f:
            return False, (
                f"full-depth readings disagree: inside {cert.inside}, "
                f"score {cert.score_f}")
    if not validate(Condition(p.m, p.h, p.u)).ok:  # the materialized stem
        return False, "final condition fails validation"
    return True, (
        f"depth {p.m} after 4 steps, final certificate "
        f"{last[0][1].inside} of the space inside")


def criterion_uniform_score() -> tuple[bool, str]:
    """The maximal weight scores exactly 1 on 200 seeded monotone stems."""
    rng = random.Random(707)
    full = WeightFunction.full()
    for i in range(200):
        h = random_monotone_stem(rng, rng.randint(0, 4), budget=3)
        if score(h, full) != 1:
            return False, f"stem {i} scored {score(h, full)}"
    return True, "200 stems, every score exactly 1"


def criterion_centered_merge() -> tuple[bool, str]:
    """Conditions sharing a classification index merge into a valid condition."""
    rng = random.Random(808)
    for i in range(100):
        m = rng.randint(0, 3)
        h = random_monotone_stem(rng, m, budget=2)
        n = rng.randint(1, 3)
        scales = [Fraction(rng.choice([4, 5, 6, 7, 8]), 8) for _ in range(n)]
        ratios = [rng.choice([Fraction(1, 4), Fraction(1, 2)]) for _ in range(n)]
        u1 = tuple(
            TaggedWeight(c * r, WeightFunction.scaled_uniform(c, (0, rng.randint(0, 1))))
            for c, r in zip(scales, ratios))
        u2 = tuple(
            TaggedWeight(c * r, WeightFunction.scaled_uniform(c, (rng.randint(1, 2), 1)))
            for c, r in zip(scales, ratios))
        p1 = Condition(m, h, u1)
        p2 = Condition(m, h, u2)
        if sigma_centered_index(p1) != sigma_centered_index(p2):
            return False, f"pair {i}: indices differ"
        merged = merge_same_stem(p1, p2)
        rep = validate(merged)
        if not rep.ok:
            return False, f"pair {i}: merged condition invalid: {rep.first.detail}"
    return True, "100 same-index pairs, every merge validates"


def criterion_cover_translation() -> tuple[bool, str]:
    """Halving targets: derived tolerances pair up and every flattened
    interval meets its positional bound, horizon 6, exact."""
    horizon = 6
    eps = [Fraction(1, 2 ** n) for n in range(horizon ** 3 + 1)]
    delta, delta_prime = cover_translate(eps, horizon)
    for n in range(horizon):
        if delta[n] != Fraction(1, 2 ** (n ** 3 + 1)):
            return False, f"delta[{n}] = {delta[n]}"
        if delta_prime[n] >= delta[n]:
            return False, f"delta'[{n}] not below delta[{n}]"
    for k in range(horizon // 2):
        if delta_prime[2 * k] != delta_prime[2 * k + 1]:
            return False, f"pair {2 * k}/{2 * k + 1} differs"
    heavy = []
    for n in range(horizon):
        count = (n + 1) ** 2 - 1
        width = delta_prime[n]
        heavy.append([
            IntervalSpec(k * width, (k + 1) * width) for k in range(count)])
    flat = flatten_heavy_intervals(heavy, eps[:sum((n + 1) ** 2 - 1 for n in range(horizon))])
    expected = sum((n + 1) ** 2 - 1 for n in range(horizon))
    if len(flat) != expected:
        return False, f"flattened {len(flat)} intervals, expected {expected}"
    for i, iv in enumerate(flat):
        if iv.length > eps[i]:
            return False, f"interval {i} too long"
    return True, f"{expected} intervals flattened, every positional bound exact"


def criterion_density_filter() -> tuple[bool, str]:
    """Cubes pass the block-density bound; selections stay rapid; the
    avoidance product is antitone in its horizon."""
    cubes = {k ** 3 for k in range(100)}
    verdict = thin_set_bound_check(cubes, 1000)
    if not verdict.ok:
        return False, f"cube set breaks the bound at block {verdict.witness}"
    rng = random.Random(1010)
    for i in range(100):
        f = []
        v = rng.randint(1, 3)
        for _ in range(rng.randint(5, 20)):
            f.append(v)
            v += rng.randint(1, 50)
        x = set()
        for j in range(len(f) - 1):
            if rng.random() < 0.7:
                x.add(rng.randrange(f[j], f[j + 1]))
        r = [j * j + rng.randrange(2 * j + 1) for j in range(max(x, default=0) + 1)]
        rv = rapidity_check(r, x, f)
        if not rv.ok:
            return False, f"instance {i}: rapidity fails at checkpoint {rv.witness}"
    for i in range(50):
        a = set()
        for m in range(40):
            picks = rng.randint(0, min(2 * m + 1, 5))
            a |= {m * m + t for t in rng.sample(range(2 * m + 1), picks)}
        x = set(rng.sample(range(40), rng.randint(5, 25)))
        start = rng.randint(0, 5)
        p10 = product_bound(a, x, start, 10)
        p20 = product_bound(a, x, start, 20)
        p40 = product_bound(a, x, start, 40)
        if not p10 >= p20 >= p40:
            return False, f"instance {i}: product not antitone"
    return True, "cubes to block 1000, 100 rapidity runs, 50 antitone products"


def _assignment(**overrides) -> DiagramAssignment:
    values = {node: CardinalLabel.ALEPH1 for node in NODES}
    values.update(overrides)
    return DiagramAssignment(values)


def criterion_diagram() -> tuple[bool, str]:
    """Brute force all 4096 two-level assignments, then three transfer pairs."""
    a1, a2 = CardinalLabel.ALEPH1, CardinalLabel.ALEPH2
    accepted = 0
    for combo in product((a1, a2), repeat=len(NODES)):
        values = dict(zip(NODES, combo))
        ours = check_assignment(DiagramAssignment(dict(values))).ok
        theirs = oracle.diagram_consistent(values)
        if ours != theirs:
            return False, f"checker disagrees with brute force on {values}"
        accepted += ours
    # growth of the null covering named by the ground starred slot
    ground_b = _assignment(
        b=a2, d=a2, non_meager=a2, cof_meager=a2, cof_null=a2,
        non_null=a2, cov_star=a2, non_star=a2)
    ext_b = _assignment(
        b=a2, d=a2, non_meager=a2, cof_meager=a2, cof_null=a2,
        non_null=a2, cov_null=a2, cov_star=a2, non_star=a2)
    if not check_extension_pair(ground_b, ext_b).ok:
        return False, "bounding-number transfer pair rejected"
    bad_ext = _assignment(
        b=a2, d=a2, non_meager=a2, cof_meager=a2, cof_null=a2,
        non_null=a2, cov_star=a2, non_star=a2)  # cov_null stayed low
    if check_extension_pair(ground_b, bad_ext).ok:
        return False, "missing covering growth was accepted"
    # covering jump named by the starred slot while bounding stays low
    ground_star = _assignment(
        non_meager=a2, non_null=a2, cof_meager=a2, cof_null=a2,
        cov_star=a2, non_star=a1)
    ext_star = _assignment(
        non_meager=a2, cof_meager=a2, cof_null=a2,
        cov_null=a2, non_null=a1, cov_star=a2, non_star=a1)
    if not check_extension_pair(ground_star, ext_star).ok:
        return False, "starred-slot transfer pair rejected"
    # uniformity squeezed down to the ground starred uniformity
    ground_non = _assignment(
        d=a2, non_null=a2, cof_meager=a2, cof_null=a2, non_star=a1)
    ext_non = _assignment(
        d=a2, cof_meager=a2, cof_null=a2, non_null=a1, non_star=a1)
    if not check_extension_pair(ground_non, ext_non).ok:
        return False, "uniformity transfer pair rejected"
    if len(random_extension_constraints(ground_b)) != 12:
        return False, "unexpected transfer constraint count"
    return True, f"4096 assignments match brute force ({accepted} consistent), 3 transfer pairs"


CRITERIA: tuple[tuple[str, object, float | None], ...] = (
    ("C01 exact set algebra vs bitmap oracle", criterion_set_algebra, 5.0),
    ("C02 slalom slot bound", criterion_slalom_bound, 5.0),
    ("C03 refinement soundness", criterion_refinement, 5.0),
    ("C04 extension correctness", criterion_extension, 30.0),
    ("C05 tail bound by enumeration", criterion_tail_oracle, 60.0),
    ("C06 null avoidance certificates", criterion_null_avoidance, 10.0),
    ("C07 maximal weight scores one", criterion_uniform_score, None),
    ("C08 centered index merge", criterion_centered_merge, None),
    ("C09 cover translation bounds", criterion_cover_translation, None),
    ("C10 density and rapidity checks", criterion_density_filter, None),
    ("C11 diagram checker vs brute force", criterion_diagram, None),
)


class CriterionResult(FrozenValue):
    name: str
    passed: bool
    detail: str
    elapsed: float
    budget: float | None

    @property
    def in_budget(self) -> bool:
        return self.budget is None or self.elapsed < self.budget

    def line(self) -> str:
        status = "PASS" if self.passed and self.in_budget else "FAIL"
        budget = f"/{self.budget:.0f}s" if self.budget else ""
        return f"{status} {self.name} ({self.elapsed:.2f}s{budget}): {self.detail}"


def run_criterion(name: str, fn, budget: float | None) -> CriterionResult:
    start = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # a crashed criterion is a failed criterion
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CriterionResult(name, passed, detail, time.perf_counter() - start, budget)


def run_all() -> list[CriterionResult]:
    return [run_criterion(*criterion) for criterion in CRITERIA]
