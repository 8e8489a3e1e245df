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

import math
import random
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from typing import Mapping, Sequence

from .cantor import ClopenPlaneSet, check_bits, _all_bits, _extensions
from .errors import ForcingLabError, FrozenValue


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


class WeightFunction(FrozenValue):
    """Finitely represented bi-additive pair mass.  The constructor converts
    each table value with Fraction and drops the zero ones; the total mass
    (the value at the pair of empty strings) must be positive.  A value
    object shared by many keys is converted and range-checked once, and the
    keys keep sharing its conversion."""

    resolution: tuple[int, int]
    table: dict

    def __init__(self, resolution: tuple[int, int], table: Mapping) -> None:
        m1, m2 = resolution
        if m1 < 0 or m2 < 0:
            raise ValueError("resolution must be nonnegative")
        # id(value) -> (value, Fraction(value)): holding the value keeps its id
        # unique, and keying by identity never hashes a value Fraction rejects
        converted: dict[int, tuple] = {}
        cleaned = {}
        for k, v in table.items():
            if id(v) not in converted:
                converted[id(v)] = (v, Fraction(v))
            if f := converted[id(v)][1]:
                cleaned[k] = f
        table = cleaned
        if not table:
            raise ValueError("weight function needs positive total mass")
        for s, t in table:  # every key at the resolution before 2^(m1+m2) is built
            check_bits(s)
            check_bits(t)
            if len(s) != m1 or len(t) != m2:
                raise ValueError(f"table key ({s!r}, {t!r}) off resolution")
        cap = Fraction(1, 2 ** (m1 + m2))
        for _, v in converted.values():
            if v and not 0 < v <= cap:
                raise ValueError(f"table value {v} outside (0, {cap}]")
        super().__init__((m1, m2), table)

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

    @cached_property
    def _integer_form(self) -> tuple[int, dict, dict, list]:
        """(D, rows, memo, keys): the common denominator D of the table;
        the row index, mapping each x-string of the table to the list of its
        y-strings and the list of their values times D; a memo of D times
        the table mass per truncated pair (s[:m1], t[:m2]), filled by _mass;
        and the x-strings of the table in sorted order, in which the rows
        under any shorter x-string form one run.  Built on first use and
        kept on the instance outside the fields, so equality, repr and the
        JSON form do not see it."""
        d = math.lcm(*(v.denominator for v in self.table.values()))
        rows: dict[str, tuple[list[str], list[int]]] = {}
        for (a, b), v in self.table.items():
            ys, ns = rows.setdefault(a, ([], []))
            ys.append(b)
            ns.append(v.numerator * (d // v.denominator))
        return d, rows, {}, sorted(rows)


def _read_row(phi: WeightFunction, s1: str, t1: str) -> int:
    """D times the table mass inside [s1] x [t1] for an x-string s1 at the
    resolution: the entries of row s1 whose y-string extends t1."""
    ys, ns = phi._integer_form[1].get(s1, ((), ()))
    return sum(n for b, n in zip(ys, ns) if b.startswith(t1))


def _mass(phi: WeightFunction, s: str, t: str) -> tuple[int, int]:
    """(D, n) with n/D the table mass compatible with (s, t), that is the
    weight at (s[:m1], t[:m2]), memoized per truncated pair.  A miss at the
    x-resolution reads only its own row (_read_row), at most 2^m2 entries;
    a shorter x-string s1 adds up the memoized masses of the rows under it,
    the run of sorted x-strings from s1 up to s1 + "2", so no miss recurses
    or reads the whole table.  The strings are not checked."""
    d, _, memo, keys = phi._integer_form
    m1, m2 = phi.resolution
    key = (s[:m1], t[:m2])
    n = memo.get(key)
    if n is None:
        s1, t1 = key
        if len(s1) == m1:
            n = _read_row(phi, s1, t1)
        else:
            under = keys[bisect_left(keys, s1):bisect_left(keys, s1 + "2")]
            n = sum(_mass(phi, row, t1)[1] for row in under)
        memo[key] = n
    return d, n


def _depth_shift(phi: WeightFunction, s: str, t: str) -> int:
    """How many uniform halvings (s, t) lies below the weight's resolution."""
    m1, m2 = phi.resolution
    return max(0, len(s) - m1) + max(0, len(t) - m2)


def eval_phi(phi: WeightFunction, s: str, t: str) -> Fraction:
    """Evaluate the weight at any pair: the table mass compatible with
    (s, t), halved once per coordinate bit past the resolution.  The mass is
    read from the weight's integer memo (see _mass), so repeated truncated
    pairs cost one dict lookup; both strings are checked first."""
    check_bits(s)
    check_bits(t)
    d, n = _mass(phi, s, t)
    return Fraction(n, d << _depth_shift(phi, s, t))


def phi_from_clopen(f: ClopenPlaneSet) -> WeightFunction:
    """The weight (s, t) -> measure of ([s] x [t]) within f.  Rejects null f
    because a weight needs positive total mass."""
    if f.measure() == 0:
        raise NullSet("cannot build a weight from a measure-zero plane set")
    r1, r2 = f.resolution
    return WeightFunction(f.resolution, dict.fromkeys(f.rects, Fraction(1, 2 ** (r1 + r2))))


class TaggedWeight(FrozenValue):
    """A weight with its score tag.  Ops that build conditions keep eps in
    (0,1); the raw constructor is permissive so validators can report."""

    eps: Fraction
    phi: WeightFunction


class Condition(FrozenValue):
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
    return _score_groups(_top_groups(h, m, phi.resolution[0]), m, phi)


def _top_groups(h: Mapping[str, str], m: int, cut: int) -> Counter:
    """The tops of a stem of depth m counted per (top[:cut], value)."""
    return Counter((s[:cut], v) for s, v in h.items() if len(s) == m)


def _score_groups(groups: Counter, m: int, phi: WeightFunction) -> Fraction:
    """score from _top_groups cut at the weight's x-resolution or deeper.
    A row is at most m1 long, so a term count·2^|value|·phi(row, value) is
    count·n·2^min(|value|, m2) over D, and the sum is scaled by 2^-(m - m1)
    when the tops lie below the x-resolution."""
    m1, m2 = phi.resolution
    rows: Counter = Counter()
    for (row, value), count in groups.items():
        rows[row[:m1], value] += count
    d = phi._integer_form[0]
    acc = 0
    for (row, value), count in rows.items():
        acc += count * _mass(phi, row, value)[1] << min(len(value), m2)
    return Fraction(acc, d << max(0, m - m1))


class ClauseViolation(FrozenValue):
    clause: str
    detail: str


class ValidationReport(FrozenValue):
    ok: bool
    violations: tuple[ClauseViolation, ...]
    scores: tuple[Fraction, ...] = ()

    @property
    def first(self) -> ClauseViolation | None:
        return self.violations[0] if self.violations else None


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
    by_level = Counter(map(len, h)) if _all_bits(h, h.values()) else None
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
        if p.u:  # one pass over the tops, cut to the finest x-resolution, serves every weight
            groups = _top_groups(h, m, max(tw.phi.resolution[0] for tw in p.u))
            scores = tuple(_score_groups(groups, m, tw.phi) for tw in p.u)
    for i, tw in enumerate(p.u):
        if not 0 < tw.eps < 1:
            bad.append(ClauseViolation(
                "epsilon", f"weight #{i} tag {tw.eps} outside (0,1)"))
        elif scores and scores[i] <= tw.eps:
            bad.append(ClauseViolation(
                "score", f"weight #{i} scores {scores[i]}, needs > {tw.eps}"))
    return ValidationReport(not bad, tuple(bad), scores)


class ExtendStats(FrozenValue):
    """Bookkeeping from one extension: the depth formula's answer before any
    cap, the depth used, per-stem sampling effort, the result's exact score
    against each weight (empty when there are none), and the accepted bit
    pattern per old top (bit i is the value bit appended at its i-th new
    top, all zero when there are no weights), from which the grown stem's
    census is counted without walking it (see _grown_census).  Built once
    the extension is done; its dict and list fields make it unhashable."""

    pinned_m_prime: int
    m_prime: int
    retries: dict
    exhaustive_stems: list
    scores: tuple
    chosen: dict


def _sub_seed(seed: int, tag: str) -> int:
    digest = _sha256(f"{seed}|{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _sha256(data: bytes):
    """hashlib.sha256, imported by the first seed derivation, which then
    binds the module name _sha256 to it: only extension derives seeds, so
    no other command pays for importing hashlib."""
    global _sha256
    from hashlib import sha256 as _sha256
    return _sha256(data)


# A stem of depth m holds 2^(m+1) keys.  A depth-20 `extend` of the trivial
# condition with one full weight took 3.9-4.5 s and peaked at 435 MB RSS through
# the CLI (2-vCPU host, Python 3.11.7), writing 58 MB of JSON; each level
# doubles that, so deeper stems are refused before materializing.
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


def _rows(s: str, m: int, m2: int, cut: int) -> tuple[list[str], int]:
    """The rows, cut at x-resolution cut, of the new tops grown from a top s
    of depth m to depth m2, and the number of new tops per row.  A new top's
    row is its prefix of length min(cut, m2), so row r, the r-th such
    prefix in binary order, holds the r-th block of a candidate's bits; when
    cut <= m the one row is s[:cut]."""
    depth = min(cut, m2)
    return _extensions(s[:cut], depth), 2 ** (m2 - max(m, depth))


def _stem_searches(phi_list, m: int, m2: int, delta: Fraction):
    """The searches of one extension from depth m to m2, as a function
    (s, h(s)) -> first_failing, where first_failing(e) is the index of the
    first weight whose check the candidate e fails, or -1 if e passes.

    Bit i of a candidate integer e is the appended value bit of the i-th
    suffix (suffixes enumerated MSB-first as format(i, "0Lb")).  The
    acceptance test per weight is exact:

        sum over new tops t of phi(t, h(s) + bit(t))  >  phi(s, h(s))/2 - delta.

    The new tops fall into rows at the weight's x-resolution m1 (see _rows;
    one top per row when m2 < m1).  The tops of a row share their weights
    up to the uniform halving below m1, so a row contributes through the
    number of ones in its block of bits.

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

    the verdict of the Fraction sum, reached in int arithmetic.  The sum
    on the left is D times the new tops' sum of phi(t, h(s) + bit(t)), so
    sums(e) also hands the extension each weight's (D, sum) to score the
    grown stem with.
    """
    built: dict = {}

    def build(phi: WeightFunction, s: str, value: str) -> tuple:
        # each weight read here is an integer from phi's memo over D << shift
        d_phi, n = _mass(phi, s, value)
        target = Fraction(n, d_phi << (_depth_shift(phi, s, value) + 1)) - delta
        m1 = phi.resolution[0]
        rows, block = _rows(s, m, m2, m1)
        zeros = [_mass(phi, row, value + "0")[1] for row in rows]
        ones = [_mass(phi, row, value + "1")[1] for row in rows]
        # for the weight's resolution (m1, r2), a new top valued value + bit lies
        # max(0, m2 - m1) halvings below its row's weight on the x-axis and
        # max(0, |value| + 1 - r2) on the y-axis
        row_d = d_phi << (max(0, m2 - m1) + max(0, len(value) + 1 - phi.resolution[1]))
        d = math.lcm(target.denominator, row_d)
        scale = d // row_d
        return (target.numerator * (d // target.denominator), block, block * sum(zeros) * scale,
                [(n1 - n0) * scale for n0, n1 in zip(zeros, ones)], d)

    def search(s: str, value: str):
        checks = []
        for idx, phi in enumerate(phi_list):
            key = (idx, s[:phi.resolution[0]], value)
            if key not in built:
                built[key] = build(phi, s, value)
            checks.append(built[key])

        def first_failing(e: int) -> int:
            for idx, check in enumerate(checks):
                if _check_sum(check, e) <= check[0]:
                    return idx
            return -1

        def sums(e: int) -> list[tuple[int, int]]:
            return [(check[4], _check_sum(check, e)) for check in checks]

        return first_failing, sums

    return search


def _check_sum(check: tuple, e: int) -> int:
    """base + sum over r of popcount(block_r(e))·gain_r for one check."""
    _, block, acc, gains, _ = check
    mask = (1 << block) - 1
    for r, gain in enumerate(gains):
        acc += ((e >> (r * block)) & mask).bit_count() * gain
    return acc


def _suffixes(k: int) -> list[str]:
    """Every binary string of length 1..k in preorder, which is sorted
    order: each string comes right before its extensions, so the strings
    of length k come in increasing binary value."""
    out: list[str] = []
    for _ in range(k):
        out = ["0", *["0" + u for u in out], "1", *["1" + u for u in out]]
    return out


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

    The result's scores are read off the accepted candidates' integer sums,
    score = sum over tops s of 2^(|h(s)|+1)·sum_s/D_s, and each must exceed
    its tag; the grown stem is complete and monotone by construction, and
    its keys are in sorted order.
    """
    if max_new_levels is not None and max_new_levels < 1:
        raise ValueError(f"max_new_levels must be at least 1, got {max_new_levels}")
    _refuse_past_limit(p.m, p.m + 1)  # every extension reaches m + 1: refuse before validate
    rep = validate(p)
    if not rep.ok:
        raise ValueError(f"cannot extend invalid condition: {rep.first.detail}")
    m = p.m
    items = sorted(p.h.items())
    tops = [s for s, _ in items if len(s) == m]
    m2 = pinned = m + 1
    retries: dict[str, int] = {}
    exhaustive: list[str] = []
    scores: tuple[Fraction, ...] = ()
    chosen = dict.fromkeys(tops, 0)
    if p.u:
        n = len(p.u)
        slack = min(sc - tw.eps for sc, tw in zip(rep.scores, p.u))
        sigma = sum(2 ** (1 + len(p.h[s])) for s in tops)
        delta = slack / (2 * sigma)
        threshold = delta * delta / (2 * n)
        # the least m2 > m with 2^m2 > 1/threshold, that is 2^-m2 < threshold
        m2 = pinned = max(m + 1, (threshold.denominator // threshold.numerator).bit_length())
        if max_new_levels is not None:
            m2 = min(m2, m + max_new_levels)
        _refuse_past_limit(m, m2)
        stem_search = _stem_searches([tw.phi for tw in p.u], m, m2, delta)
        count = 2 ** (m2 - m)
        # the exhaustive fallback tries every pattern, tagged as attempt _RETRY_CAP
        space = 2 ** count if count < 64 and 2 ** count <= _EXHAUSTIVE_CAP else 0
        totals: list[dict] = [{} for _ in p.u]  # per weight: D -> sum of 2^(|h(s)|+1)·sum_s
        for s in tops:
            first_failing, sums = stem_search(s, p.h[s])
            rng = random.Random(_sub_seed(seed, s))
            draws = (rng.getrandbits(count) for _ in range(_RETRY_CAP))
            last_fail = 0
            for attempt, e in chain(enumerate(draws), zip(repeat(_RETRY_CAP), range(space))):
                last_fail = first_failing(e)
                if last_fail < 0:
                    break
            else:
                raise SearchExhausted(s, last_fail, _RETRY_CAP)
            retries[s] = attempt
            if attempt == _RETRY_CAP:
                exhaustive.append(s)
            chosen[s] = e
            shift = len(p.h[s]) + 1
            for total, (d, acc) in zip(totals, sums(e)):
                total[d] = total.get(d, 0) + (acc << shift)
        scores = tuple(
            sum((Fraction(acc, d) for d, acc in total.items()), Fraction(0)) for total in totals)
        for i, (sc, tw) in enumerate(zip(scores, p.u)):
            if sc <= tw.eps:  # unreachable when every stem passed its exact check
                raise RuntimeError(
                    f"extension produced invalid condition: weight #{i} scores {sc}, "
                    f"needs > {tw.eps}")

    # one key list in sorted order: each top s is followed by its new keys
    # s + u, u in preorder; inner ones keep h(s), leaf i appends bit i of e
    suffixes = _suffixes(m2 - m)
    leaf = [len(u) == m2 - m for u in suffixes]
    h2: dict[str, str] = {}
    for s, v in items:
        h2[s] = v
        if len(s) == m:
            bits = iter(format(chosen[s], f"0{2 ** (m2 - m)}b")[::-1])
            v0, v1 = v + "0", v + "1"
            h2.update(zip([s + u for u in suffixes],
                          [(v1 if next(bits) == "1" else v0) if is_leaf else v for is_leaf in leaf]))
    return Condition(m2, h2, p.u), ExtendStats(pinned, m2, retries, exhaustive, scores, chosen)


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


class Certificate(FrozenValue):
    """Two independent exact readings of how much of the stem sits inside a
    plane set.  inside is the measure of the tops s whose rectangle
    [s] x [h(s)] lies in the set: their count over 2^m, since distinct tops
    of length m have disjoint cylinders.  score_f is score(h, phi) for the
    set's weight phi = phi_from_clopen(f), and 0 for the empty set.  They
    agree once the stem is deep enough to resolve the set on both axes."""

    inside: Fraction
    score_f: Fraction


def certificate(p: Condition, f: ClopenPlaneSet) -> Certificate:
    """The certificate of p against f, from one census of the tops cut at
    f's x-resolution; score_f is scored against a weight built here."""
    census = _top_groups(p.h, p.m, f.resolution[0])
    return _certify(census, p.m, f, phi_from_clopen(f) if f.rects else None)


def _certify(census: Counter, m: int, f: ClopenPlaneSet, phi: WeightFunction | None) -> Certificate:
    """The certificate from a census of the tops of a depth-m stem, cut at
    f's x-resolution r1 or deeper, and f's weight (None when f is empty).
    A set at x-resolution r1 holds [s] x [v] exactly when it holds
    [s[:r1]] x [v], so contains_rect runs once per (s[:r1], v) class."""
    r1 = f.resolution[0]
    classes: Counter = Counter()
    for (row, v), n in census.items():
        classes[row[:r1], v] += n
    inside = Fraction(sum(n for (row, v), n in classes.items() if f.contains_rect(row, v)), 2 ** m)
    return Certificate(inside, _score_groups(classes, m, phi) if phi is not None else Fraction(0))


def _grown_census(h: Mapping[str, str], chosen: Mapping[str, int], m: int, m2: int,
                  cut: int) -> Counter:
    """_top_groups(h2, m2, cut) of the stem grown from depth m to m2 with the
    accepted patterns chosen (ExtendStats.chosen), counted from the patterns
    alone.  A row of top s (see _rows) holds the tops of one block of bits,
    the blocks _check_sum reads, so popcount(block) of them are valued
    h(s) + "1" and the rest h(s) + "0"."""
    census: Counter = Counter()
    for s, e in chosen.items():
        v = h[s]
        rows, block = _rows(s, m, m2, cut)
        mask = (1 << block) - 1
        for r, row in enumerate(rows):
            ones = ((e >> (r * block)) & mask).bit_count()
            if ones:
                census[row, v + "1"] += ones
            if ones < block:
                census[row, v + "0"] += block - ones
    return census


class ScheduledCover(FrozenValue):
    cover: ClopenPlaneSet
    eps: Fraction
    at_step: int


class TraceEntry(FrozenValue):
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
    attached, the exact certificate of its complement, equal to
    certificate(p, complement).  The certificates of a snapshot share one
    census of the tops, cut at the finest x-resolution in the schedule: it
    starts as the trivial stem's one top and, after each extension, is
    counted from the accepted bit patterns, so h is never walked for it.
    score_f is scored against the weight avoid_null attached, and the
    complement is the one avoid_null computed and the cover keeps, so each
    cover's complement and weight are built once per run and the weight's
    memo serves every snapshot.  Multi-step runs default to bounded depth
    growth; the pinned depth formula compounds roughly quadratically per
    step and leaves any second unbounded extension beyond reach.
    """
    if steps > _MAX_DEPTH:  # every step grows the stem by at least one level
        raise ValueError(f"steps {steps} would grow the stem past the depth limit of {_MAX_DEPTH}")
    for c in schedule:
        if not 0 <= c.at_step < steps:
            raise ValueError(f"cover scheduled at step {c.at_step}, run has {steps}")

    p = trivial_condition()
    attached: list[tuple[int, ClopenPlaneSet, WeightFunction]] = []
    trace: list[TraceEntry] = []
    cut = max((c.cover.resolution[0] for c in schedule), default=0)
    census = Counter({("", ""): 1})  # _top_groups(p.h, p.m, cut)

    def snapshot(step: int, action: str) -> None:
        certs = tuple((i, _certify(census, p.m, f, phi)) for i, f, phi in attached)
        trace.append(TraceEntry(step, action, p.m, certs))

    for step in range(steps):
        try:
            for i, c in enumerate(schedule):
                if c.at_step == step:
                    p = avoid_null(p, c.cover, c.eps)
                    f = c.cover._complement  # the complement avoid_null computed
                    attached.append((i, f, p.u[-1].phi))
                    snapshot(step, "attach")
            grown, stats = extend_detailed(
                p, _sub_seed(seed, f"step{step}"), max_new_levels=max_new_levels)
            census = _grown_census(p.h, stats.chosen, p.m, grown.m, cut)
            p = grown
            snapshot(step, "extend")
        except ForcingLabError as exc:
            exc.step = step  # type: ignore[attr-defined]
            raise
    return p, trace


class CenteredIndex(FrozenValue):
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
