"""Weighted stem conditions with randomized, exactly validated extension.

A weight function is a bi-additive mass on pairs of binary strings, capped
by 2^(-|s|-|t|), represented finitely by a table at a fixed resolution pair
and extended by summation above the table and uniform halving below it.

A condition is a monotone stem map h on all strings up to a depth m,
together with finitely many tagged weights (eps, phi) each of which must
score above its tag:

    score(h, phi) = sum over s of length m of 2^|h(s)| * phi(s, h(s)).

Extension grows the stem by some levels and appends exactly one value bit
at the new top; the bit choices are drawn from a seeded generator and
checked exactly, so a returned condition is always valid regardless of how
lucky the sampling was (Las Vegas, never Monte Carlo).
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, repeat
from typing import Mapping, Sequence

from .cantor import ClopenPlaneSet, check_bits, _extensions
from .errors import ForcingLabError


class NullSet(ForcingLabError):
    pass


class ScoreTooLow(ForcingLabError):
    def __init__(self, score: Fraction, eps: Fraction):
        self.score = score
        self.eps = eps
        super().__init__(f"score {score} does not exceed tag {eps}")


class SearchExhausted(ForcingLabError):
    def __init__(self, stem: str, weight_index: int, attempts: int):
        self.stem = stem
        self.weight_index = weight_index
        self.attempts = attempts
        super().__init__(
            f"no admissible bit choice over stem {stem!r} after {attempts} "
            f"attempts (weight #{weight_index} kept failing)")


@dataclass(frozen=True)
class WeightFunction:
    """Finitely represented bi-additive pair mass.  The constructor converts
    each table value with Fraction and drops the zero ones; the total mass
    (the value at the pair of empty strings) must be positive."""

    resolution: tuple[int, int]
    table: dict

    def __post_init__(self) -> None:
        m1, m2 = self.resolution
        if m1 < 0 or m2 < 0:
            raise ValueError("resolution must be nonnegative")
        table = {k: f for k, v in self.table.items() if (f := Fraction(v))}
        if not table:
            raise ValueError("weight function needs positive total mass")
        for s, t in table:  # every key at the resolution before 2^(m1+m2) is built
            check_bits(s)
            check_bits(t)
            if len(s) != m1 or len(t) != m2:
                raise ValueError(f"table key ({s!r}, {t!r}) off resolution")
        cap = Fraction(1, 2 ** (m1 + m2))
        for v in table.values():
            if not 0 < v <= cap:
                raise ValueError(f"table value {v} outside (0, {cap}]")
        object.__setattr__(self, "resolution", (m1, m2))
        object.__setattr__(self, "table", table)

    @classmethod
    def full(cls) -> "WeightFunction":
        """The maximal weight: 2^(-|s|-|t|) everywhere."""
        return cls((0, 0), {("", ""): Fraction(1)})

    @classmethod
    def scaled_uniform(cls, c: Fraction, resolution: tuple[int, int] = (0, 0)) -> "WeightFunction":
        c = Fraction(c)
        m1, m2 = resolution
        cell = c / 2 ** (m1 + m2)
        return cls(resolution, {
            (a, b): cell for a in _extensions("", m1) for b in _extensions("", m2)})

    def total(self) -> Fraction:
        return sum(self.table.values(), Fraction(0))


def eval_phi(phi: WeightFunction, s: str, t: str) -> Fraction:
    """Evaluate the weight at any pair: table entries compatible with (s, t)
    are summed, and coordinates deeper than the resolution halve uniformly."""
    check_bits(s)
    check_bits(t)
    m1, m2 = phi.resolution
    acc = Fraction(0)
    for (a, b), v in phi.table.items():
        if (a.startswith(s) or s.startswith(a)) and (b.startswith(t) or t.startswith(b)):
            acc += v
    shift = max(0, len(s) - m1) + max(0, len(t) - m2)
    return acc / 2 ** shift if shift else acc


def phi_from_clopen(f: ClopenPlaneSet) -> WeightFunction:
    """The weight (s, t) -> measure of ([s] x [t]) within f.  Rejects null f
    because a weight needs positive total mass."""
    if f.measure() == 0:
        raise NullSet("cannot build a weight from a measure-zero plane set")
    r1, r2 = f.resolution
    return WeightFunction(f.resolution, dict.fromkeys(f.rects, Fraction(1, 2 ** (r1 + r2))))


@dataclass(frozen=True)
class TaggedWeight:
    """A weight with its score tag.  Ops that build conditions keep eps in
    (0,1); the raw constructor is permissive so validators can report."""

    eps: Fraction
    phi: WeightFunction


@dataclass(frozen=True)
class Condition:
    """Stem map plus tagged weights.  h maps every binary string of length
    at most m to a binary string; use validate() for the full contract."""

    m: int
    h: dict
    u: tuple[TaggedWeight, ...] = ()

    def tops(self) -> list[str]:
        return sorted(s for s in self.h if len(s) == self.m)


def trivial_condition() -> Condition:
    return Condition(0, {"": ""}, ())


def score(h: Mapping[str, str], phi: WeightFunction) -> Fraction:
    """Exact score of a stem map against a weight.  The top strings are
    grouped by (row prefix, value), the row being the top cut to the
    weight's x-resolution, so the cost stays proportional to the stem size
    with only a handful of exact multiplications."""
    m = max(map(len, h))
    return _score_tops([(s, v) for s, v in h.items() if len(s) == m], m, phi)


def _score_tops(tops: list[tuple[str, str]], m: int, phi: WeightFunction) -> Fraction:
    """score over the (top, value) pairs of a stem of depth m."""
    m1, _ = phi.resolution
    groups = Counter((s[:m1], v) for s, v in tops)
    scale = Fraction(1, 2 ** max(0, m - m1))
    acc = Fraction(0)
    for (row, value), count in groups.items():
        acc += count * 2 ** len(value) * eval_phi(phi, row, value) * scale
    return acc


@dataclass(frozen=True)
class ClauseViolation:
    clause: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[ClauseViolation, ...]
    scores: tuple[Fraction, ...] = ()

    @property
    def first(self) -> ClauseViolation | None:
        return self.violations[0] if self.violations else None


def _all_binary(h: Mapping) -> bool:
    """Whether every key and value of h is a 0/1 string, in C-level passes."""
    try:
        texts = ("".join(h), "".join(h.values()))
    except TypeError:
        return False
    return all(text.count("0") + text.count("1") == len(text) for text in texts)


def _domain_violations(h: Mapping, m: int) -> tuple[list[ClauseViolation], Counter]:
    """Word the key and value violations of h per key, in key order, and
    count the keys that pass per level."""
    bad: list[ClauseViolation] = []
    by_level: Counter = Counter()
    for s in h:
        try:
            check_bits(s)
            check_bits(h[s])
        except ValueError as exc:
            bad.append(ClauseViolation("domain", str(exc)))
            continue
        if len(s) > m:
            bad.append(ClauseViolation("domain", f"key {s!r} deeper than m={m}"))
        by_level[len(s)] += 1
    return bad, by_level


def validate(p: Condition) -> ValidationReport:
    """Check the full condition contract and report every violated clause:
    stem domain completeness, monotonicity, tag ranges, and score > eps.
    Each clause is checked in bulk over the whole stem; a clause that fails
    is then worded per key, in key order.  When the domain is complete,
    scores holds score(h, phi) for every weight in order (whatever its
    tag); otherwise it is empty."""
    h, m = p.h, p.m
    by_level = Counter(map(len, h)) if _all_binary(h) else None
    if by_level is None or max(by_level, default=0) > m:
        bad, by_level = _domain_violations(h, m)
    else:
        bad = []
    for level in range(m + 1):
        if by_level[level] != 2 ** level:
            bad.append(ClauseViolation(
                "domain", f"level {level} holds {by_level[level]} keys, needs {2 ** level}"))
    domain_ok = not bad
    scores: tuple[Fraction, ...] = ()
    if domain_ok:
        if not all(map(str.startswith, h.values(), map(h.__getitem__, [s[:-1] for s in h]))):
            bad.extend(
                ClauseViolation(
                    "monotone",
                    f"h({s!r}) = {h[s]!r} does not extend h({s[:-1]!r}) = {h[s[:-1]]!r}")
                for s in h if not h[s].startswith(h[s[:-1]]))
        tops = [(s, v) for s, v in h.items() if len(s) == m]
        scores = tuple(_score_tops(tops, m, tw.phi) for tw in p.u)
    for i, tw in enumerate(p.u):
        if not 0 < tw.eps < 1:
            bad.append(ClauseViolation(
                "epsilon", f"weight #{i} tag {tw.eps} outside (0,1)"))
        elif scores and scores[i] <= tw.eps:
            bad.append(ClauseViolation(
                "score", f"weight #{i} scores {scores[i]}, needs > {tw.eps}"))
    return ValidationReport(not bad, tuple(bad), scores)


@dataclass
class ExtendStats:
    """Bookkeeping from one extension: the depth formula's answer before any
    cap, the depth used, and per-stem sampling effort."""

    pinned_m_prime: int
    m_prime: int
    retries: dict = field(default_factory=dict)
    exhaustive_stems: list = field(default_factory=list)


def _sub_seed(seed: int, tag: str) -> int:
    digest = hashlib.sha256(f"{seed}|{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# A stem of depth m holds 2^(m+1) keys; a depth-18 run peaks near 0.2 GB and
# each level doubles that, so deeper stems are refused before materializing.
_MAX_DEPTH = 20
# Sampled candidates per stem before the exhaustive fallback, and the largest
# candidate space that fallback enumerates.
_RETRY_CAP = 64
_EXHAUSTIVE_CAP = 2 ** 20


def _refuse_past_limit(m: int, m2: int) -> None:
    if m2 > _MAX_DEPTH:
        raise ValueError(
            f"extension would need depth {m2} from {m}, past the limit of {_MAX_DEPTH}; "
            f"pass max_new_levels to bound the growth")


def _stem_searches(phi_list, m: int, m2: int, delta: Fraction):
    """The searches of one extension from depth m to m2, as a function
    (s, h(s)) -> first_failing, where first_failing(e) is the index of the
    first weight whose check the candidate e fails, or -1 if e passes.

    Bit i of a candidate integer e is the appended value bit of the i-th
    suffix (suffixes enumerated MSB-first as format(i, "0Lb")).  The
    acceptance test per weight is exact:

        sum over new tops t of phi(t, h(s) + bit(t))  >  phi(s, h(s))/2 - delta.

    The first k = min(max(m1 - m, 0), m2 - m) suffix bits pick a row at the
    weight's x-resolution m1 (one top per row when m2 < m1).  The tops of a
    row share their weights up to the uniform halving below m1, so a row
    contributes through the number of ones in its block of bits.

    A weight's check depends on the stem s only through (s[:m1], h(s)):
    when m >= m1 the only row is s[:m1] and phi(s, h(s)) is phi(s[:m1], h(s))
    halved m - m1 times; when m < m1, s[:m1] is s itself.  Each check is
    built once per (weight index, s[:m1], h(s)) and shared among the stems
    of that class.  A check is stored over one common denominator D of its
    values as the integers

        target = (phi(s, h(s))/2 - delta)·D,  base = block·(sum of v0_r)·D,
        gain_r = (v1_r - v0_r)·D,

    where v0_r and v1_r are the scaled weights of a top of row r with bit 0
    and bit 1 appended, so e fails it exactly when

        base + sum over r of popcount(block_r(e))·gain_r  <=  target,

    the verdict of the Fraction sum, reached in int arithmetic.
    """
    count = 2 ** (m2 - m)
    built: dict = {}

    def build(phi: WeightFunction, s: str, value: str) -> tuple:
        target = eval_phi(phi, s, value) / 2 - delta
        m1 = phi.resolution[0]
        k = min(max(m1 - m, 0), m2 - m)
        scale = Fraction(1, 2 ** max(0, m2 - m1))
        pairs = []
        for r in range(2 ** k):
            row = s + format(r, f"0{k}b") if k else s[:m1]
            pairs.append((eval_phi(phi, row, value + "0") * scale,
                          eval_phi(phi, row, value + "1") * scale))
        block = count >> k
        d = math.lcm(target.denominator, *(v.denominator for pair in pairs for v in pair))
        return (int(target * d), block, int(block * sum(v0 for v0, _ in pairs) * d),
                [int((v1 - v0) * d) for v0, v1 in pairs])

    def search(s: str, value: str):
        checks = []
        for idx, phi in enumerate(phi_list):
            key = (idx, s[:phi.resolution[0]], value)
            if key not in built:
                built[key] = build(phi, s, value)
            checks.append(built[key])

        def first_failing(e: int) -> int:
            for idx, (target, block, base, gains) in enumerate(checks):
                mask = (1 << block) - 1
                acc = base
                for r, gain in enumerate(gains):
                    acc += ((e >> (r * block)) & mask).bit_count() * gain
                if acc <= target:
                    return idx
            return -1

        return first_failing

    return search


def extend_detailed(
    p: Condition, seed: int, *, max_new_levels: int | None = None,
) -> tuple[Condition, ExtendStats]:
    """Extend a valid condition, returning the result and search statistics.

    With no attached weights the stem grows one level with zero bits
    appended.  Otherwise the slack-derived tolerance delta and the least
    depth m' with 2^(-m') / delta^2 < 1/(2n) drive an independent seeded
    search per top stem: _RETRY_CAP sampled candidates, then every candidate
    when the space holds at most _EXHAUSTIVE_CAP of them, each checked
    exactly.  max_new_levels (at least 1) caps the depth growth for
    multi-step runs, where the pinned depth formula compounds past any
    materializable size; a depth past _MAX_DEPTH is refused either way.
    """
    if max_new_levels is not None and max_new_levels < 1:
        raise ValueError(f"max_new_levels must be at least 1, got {max_new_levels}")
    _refuse_past_limit(p.m, p.m + 1)  # every extension reaches m + 1: refuse before validate
    rep = validate(p)
    if not rep.ok:
        raise ValueError(f"cannot extend invalid condition: {rep.first.detail}")
    m = p.m
    tops = p.tops()
    m2 = m + 1
    stats = ExtendStats(m2, m2)
    chosen = dict.fromkeys(tops, 0)
    if p.u:
        n = len(p.u)
        slack = min(sc - tw.eps for sc, tw in zip(rep.scores, p.u))
        sigma = sum(2 ** (1 + len(p.h[s])) for s in tops)
        delta = slack / (2 * sigma)
        threshold = delta * delta / (2 * n)
        while Fraction(1, 2 ** m2) >= threshold:
            m2 += 1
        stats.pinned_m_prime = m2
        if max_new_levels is not None:
            m2 = min(m2, m + max_new_levels)
        stats.m_prime = m2
        _refuse_past_limit(m, m2)
        stem_search = _stem_searches([tw.phi for tw in p.u], m, m2, delta)
        count = 2 ** (m2 - m)
        # the exhaustive fallback tries every pattern, tagged as attempt _RETRY_CAP
        space = 2 ** count if count < 64 and 2 ** count <= _EXHAUSTIVE_CAP else 0
        for s in tops:
            first_failing = stem_search(s, p.h[s])
            rng = random.Random(_sub_seed(seed, s))
            draws = (rng.getrandbits(count) for _ in range(_RETRY_CAP))
            last_fail = 0
            for attempt, e in chain(enumerate(draws), zip(repeat(_RETRY_CAP), range(space))):
                last_fail = first_failing(e)
                if last_fail < 0:
                    break
            else:
                raise SearchExhausted(s, last_fail, _RETRY_CAP)
            stats.retries[s] = attempt
            if attempt == _RETRY_CAP:
                stats.exhaustive_stems.append(s)
            chosen[s] = e

    h2 = dict(p.h)
    for s, e in chosen.items():
        base = p.h[s]
        for depth in range(m + 1, m2):
            h2.update(dict.fromkeys(_extensions(s, depth), base))
        for i, t in enumerate(_extensions(s, m2)):
            h2[t] = base + ("1" if (e >> i) & 1 else "0")
    q = Condition(m2, h2, p.u)
    after = validate(q)
    if not after.ok:  # unreachable when every stem passed its exact check
        raise RuntimeError(f"extension produced invalid condition: {after.first}")
    return q, stats


def attach_weight(p: Condition, eps: Fraction, phi: WeightFunction) -> Condition:
    """Add a tagged weight; the current stem must already score above eps."""
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError(f"tag must lie strictly between 0 and 1, got {eps}")
    sc = score(p.h, phi)
    if sc <= eps:
        raise ScoreTooLow(sc, eps)
    return Condition(p.m, dict(p.h), p.u + (TaggedWeight(eps, phi),))


def avoid_null(p: Condition, g: ClopenPlaneSet, eps: Fraction) -> Condition:
    """Constrain all future growth to the complement of the plane set g by
    attaching that complement's weight with tag 1 - eps."""
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie strictly between 0 and 1, got {eps}")
    f = g.complement()
    phi = phi_from_clopen(f)  # raises NullSet when g covers everything
    return attach_weight(p, 1 - eps, phi)


@dataclass(frozen=True)
class Certificate:
    """Two independent exact readings of how much of the stem sits inside a
    plane set.  inside is the measure of the tops s whose rectangle
    [s] x [h(s)] lies in the set: their count over 2^m, since distinct tops
    of length m have disjoint cylinders.  score_f is score(h, phi) for the
    set's weight phi = phi_from_clopen(f), and 0 for the empty set.  They
    agree once the stem is deep enough to resolve the set on both axes."""

    inside: Fraction
    score_f: Fraction


def certificate(p: Condition, f: ClopenPlaneSet) -> Certificate:
    inside = Fraction(sum(f.contains_rect(s, p.h[s]) for s in p.tops()), 2 ** p.m)
    score_f = score(p.h, phi_from_clopen(f)) if f.rects else Fraction(0)
    return Certificate(inside, score_f)


@dataclass(frozen=True)
class ScheduledCover:
    cover: ClopenPlaneSet
    eps: Fraction
    at_step: int


@dataclass(frozen=True)
class TraceEntry:
    step: int
    action: str
    depth: int
    certificates: tuple[tuple[int, Certificate], ...]


def generic_run(
    schedule: Sequence[ScheduledCover], steps: int, seed: int, *, max_new_levels: int | None = 3,
) -> tuple[Condition, list[TraceEntry]]:
    """Interleave cover attachment and extension from the trivial condition.

    Each cover attaches before the extension of its step, which must lie in
    the run.  After every action the trace records, for each cover already
    attached, the exact certificate of its complement.  Multi-step runs
    default to bounded depth growth; the pinned depth formula compounds
    roughly quadratically per step and leaves any second unbounded
    extension beyond reach.
    """
    if steps > _MAX_DEPTH:  # every step grows the stem by at least one level
        raise ValueError(f"steps {steps} would grow the stem past the depth limit of {_MAX_DEPTH}")
    for c in schedule:
        if not 0 <= c.at_step < steps:
            raise ValueError(f"cover scheduled at step {c.at_step}, run has {steps}")

    p = trivial_condition()
    attached: list[tuple[int, ClopenPlaneSet]] = []
    trace: list[TraceEntry] = []

    def snapshot(step: int, action: str) -> None:
        certs = tuple((i, certificate(p, f)) for i, f in attached)
        trace.append(TraceEntry(step, action, p.m, certs))

    for step in range(steps):
        try:
            for i, c in enumerate(schedule):
                if c.at_step == step:
                    p = avoid_null(p, c.cover, c.eps)
                    attached.append((i, c.cover.complement()))
                    snapshot(step, "attach")
            p, _ = extend_detailed(
                p, _sub_seed(seed, f"step{step}"), max_new_levels=max_new_levels)
            snapshot(step, "extend")
        except ForcingLabError as exc:
            exc.step = step  # type: ignore[attr-defined]
            raise
    return p, trace


@dataclass(frozen=True)
class CenteredIndex:
    """Finite classification datum: conditions sharing an index are pairwise
    compatible, witnessed by keeping the stem and pooling the weights."""

    size: int
    k: int
    stem: tuple[tuple[str, str], ...]
    tags: tuple[Fraction, ...]


def sigma_centered_index(p: Condition) -> CenteredIndex:
    """(number of weights, least k with every total mass >= 1/k and every
    score >= tag + 1/k, the stem itself, the tag vector)."""
    stem = tuple(sorted(p.h.items()))
    if not p.u:
        return CenteredIndex(0, 1, stem, ())
    q = min(c for tw in p.u for c in (tw.phi.total(), score(p.h, tw.phi) - tw.eps))
    if q <= 0:
        raise ValueError("condition must be valid with positive-mass weights")
    k = -(-q.denominator // q.numerator)  # ceil(1/q)
    return CenteredIndex(len(p.u), k, stem, tuple(tw.eps for tw in p.u))


def merge_same_stem(p: Condition, q: Condition) -> Condition:
    """Compatibility witness for two conditions with identical stems."""
    if p.m != q.m or p.h != q.h:
        raise ValueError("conditions do not share a stem")
    return Condition(p.m, dict(p.h), p.u + q.u)
