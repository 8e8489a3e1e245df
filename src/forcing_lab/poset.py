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
from bisect import bisect_left
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import accumulate, chain, islice, repeat, tee
from operator import add, itemgetter, lshift, or_, rshift

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
        the table mass per truncated pair (s[:m1], t[:m2]), filled by _mass
        and _read_row; and the x-strings of the table in sorted order, in
        which the rows under any shorter x-string form one run.  Built on
        first use and kept on the instance outside the fields, so equality,
        repr and the JSON form do not see it."""
        d = math.lcm(*(v.denominator for v in self.table.values()))
        rows: dict[str, tuple[list[str], list[int]]] = {}
        for (a, b), v in self.table.items():
            ys, ns = rows.setdefault(a, ([], []))
            ys.append(b)
            ns.append(v.numerator * (d // v.denominator))
        return d, rows, {}, sorted(rows)


def _read_row(phi: WeightFunction, s1: str, t1: str) -> int:
    """D times the table mass inside [s1] x [t1] for an x-string s1 at the
    resolution: the entries of row s1 whose y-string extends t1.  The pass
    sums the row under every y-string of t1's length and memoizes them all."""
    _, rows, memo, _ = phi._integer_form
    sums: Counter = Counter()
    for b, n in zip(*rows.get(s1, ((), ()))):
        sums[b[:len(t1)]] += n
    memo.update(((s1, t), n) for t, n in sums.items())
    return sums[t1]


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
    at most m to a binary string; use validate() for the full contract.

    Every condition is a base plus layers.  The base is the depth and the
    sorted (key, value) pairs of a given stem: one built from h is its own
    base, sorted on first use (_base), with no layers.  A condition decoded
    from JSON (jsonio.condition_from_json) is given its base at decode: the
    decoded [key, value] lists, sorted, so its base makes no tuple per key.
    Each extension from depth m appends a layer (m', E), two ints.  The keys
    of a level are implied: its top t is _key(t, m).  Bit i of the block of
    2^(m' - m) bits that old top t owns in E, bits t·2^(m' - m) onwards, is
    the value bit of its i-th new top in key order, which keeps the top's
    value and appends that bit; the new keys between them keep the top's
    value.  So the layered levels are complete and monotone by construction,
    and a level's values come from the base's tops and the layers above it
    (_top_values), made in bounded runs by each reader that needs them: no
    layer holds a string, tuple or list per top.  h of an extended condition
    is parsed from its text on first read (_stem_map) and kept; equality and
    repr read h, so an extended condition equals its materialized one.  A
    condition keeps its finest census (_census); an extension starts with
    none unless its search was asked to count one (extend_detailed)."""

    m: int
    h: dict
    u: tuple[TaggedWeight, ...] = ()
    _layers = ()  # not annotated, so not a field

    @classmethod
    def _of(cls, state: dict) -> Condition:  # state unchecked
        p = cls.__new__(cls)
        p.__dict__.update(state)
        return p

    def __getattr__(self, name: str):
        # called only for what __dict__ lacks: h of an extended condition not read yet
        if name != "h":
            raise AttributeError(name)
        h = self.__dict__["h"] = _stem_map(self)
        return h

    @cached_property
    def _base(self) -> tuple[int, list]:
        # the keys are distinct, so the pairs sort by key alone
        return self.m, sorted(self.h.items(), key=itemgetter(0))

    def _values(self) -> tuple:
        return self.m, self.h, self.u

    def tops(self) -> list[str]:
        """The keys of length m in key order: the base's, or the strings of
        length m when a layer grew them."""
        if self._layers:
            return list(_keys(self.m))
        m, pairs = self._base
        return [s for s, _ in pairs if len(s) == m]

    def pairs(self) -> list[tuple[str, str]]:
        """The stem's (key, value) pairs of h in key order."""
        return sorted(self.h.items())


def _stem_map(p: Condition) -> dict:
    """The full map of an extended condition, read from its wire text: with
    the brackets around and between its pairs (_SEP) cut, it splits at '","'
    into keys and values in turn.  json.loads, or a split at every quote,
    would also make an object per pair, and building and then reading the
    map (C04) would be slower."""
    text: list[str] = []
    stem_text(p, text.append)
    parts = "".join(text).replace('"],["', '","')[3:-3].split('","')
    return dict(zip(parts[::2], parts[1::2]))


def trivial_condition() -> Condition:
    return Condition(0, {"": ""}, ())


def score(h: Mapping[str, str] | Condition, phi: WeightFunction) -> Fraction:
    """Exact score of a stem map, or of a condition's stem, against a
    weight, read from the census of its tops (_census) cut at the weight's
    x-resolution, so the cost stays proportional to the stem size with only
    a handful of exact multiplications; a condition's census is counted
    once and kept."""
    p = h if isinstance(h, Condition) else Condition(max(map(len, h)), h)
    return _score_groups(_census(p, phi.resolution[0]), p.m, phi)


def _top_groups(h: Mapping[str, str], m: int, cut: int) -> Counter:
    """The tops of a stem of depth m counted per (top[:cut], value)."""
    return Counter((s[:cut], v) for s, v in h.items() if len(s) == m)


def _census(p: Condition, cut: int) -> Counter:
    """_top_groups(p.h, p.m, cut) or a finer cut, which every reader cuts
    again (_score_groups, _certify).  Counted from a given stem's tops or an
    extended one's last layer (_grown_census of _layer_runs) only when p
    keeps no census at least as fine, and the finest is kept on p, shared
    with the conditions attach_weight and merge_same_stem make."""
    kept = p.__dict__.get("_kept_census")
    if kept is None or kept[0] < cut:
        census = _grown_census(*_layer_runs(p), cut) if p._layers else _top_groups(p.h, p.m, cut)
        kept = p.__dict__["_kept_census"] = cut, census
    return kept[1]


def _score_groups(groups: Counter, m: int, phi: WeightFunction) -> Fraction:
    """score from _top_groups cut at the weight's x-resolution or deeper.
    A row is at most m1 long, so a term count·2^|value|·phi(row, value) is
    count·n·2^min(|value|, m2) over D, and the sum is scaled by 2^-(m - m1)
    when the tops lie below the x-resolution.  A term reads the group only
    through the cell (row[:m1], value[:m2]), min(|value|, m2) being the cut
    value's length, so the counts are added up per cell first and the
    weight is read once per cell."""
    m1, m2 = phi.resolution
    cells: Counter = Counter()
    for (row, value), count in groups.items():
        cells[row[:m1], value[:m2]] += count
    acc = 0
    for (row, value), count in cells.items():
        acc += count * _mass(phi, row, value)[1] << len(value)
    return Fraction(acc, phi._integer_form[0] << max(0, m - m1))


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
    """Word the key and value violations of h per key, in h's own order, and
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
    is then worded per key, in h's own order (a decoded stem's is its given
    order, see jsonio.condition_from_json).  When the domain is complete,
    scores holds score(h, phi) for every weight in order (whatever its
    tag); otherwise it is empty.  A given stem is checked in full; the
    layered levels of an extended one (see Condition) hold by construction,
    its base having been validated when it was extended, so only its tags
    and scores are checked; the scores read the census p keeps (_census)."""
    m = p.m
    bad: list[ClauseViolation] = []
    if not p._layers:
        h = p.h
        by_level = Counter(map(len, h)) if _all_bits(h, h.values()) else None
        if by_level is None or max(by_level, default=0) > m:
            bad, by_level = _domain_violations(h, m)
        for level in range(m + 1):
            if by_level[level] != 2 ** level:
                bad.append(ClauseViolation(
                    "domain", f"level {level} holds {by_level[level]} keys, needs {2 ** level}"))
        if not bad:
            # parents are cut one at a time: a list of them all holds a new string per key
            parents = map(h.__getitem__, map(itemgetter(slice(None, -1)), h))
            if not all(map(str.startswith, h.values(), parents)):
                bad.extend(
                    ClauseViolation(
                        "monotone",
                        f"h({s!r}) = {h[s]!r} does not extend h({s[:-1]!r}) = {h[s[:-1]]!r}")
                    for s in h if not h[s].startswith(h[s[:-1]]))
    scores: tuple[Fraction, ...] = ()
    if p.u and all(v.clause != "domain" for v in bad):
        # one census, cut to the finest x-resolution, serves every weight
        groups = _census(p, max(tw.phi.resolution[0] for tw in p.u))
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
    cap, the depth used, per-stem sampling effort and the result's exact
    score against each weight (both empty when there are no weights), and
    the accepted bit patterns, E of the result's last layer (m', E) (see
    Condition): old top t's pattern is its block of 2^(m' - m) bits from bit
    t·2^(m' - m) on, bit i the value bit appended at its i-th new top, all
    zero with no weights.  retries is a list aligned with the old tops in
    key order.  Built once the extension is done; lists are unhashable."""

    pinned_m_prime: int
    m_prime: int
    retries: list
    exhaustive_stems: list
    scores: tuple
    chosen: int


def _shake(text: str, size: int) -> bytes:
    """The first size bytes of SHAKE-256 (FIPS 202) of text in UTF-8, from
    the built-in module _sha3, imported by extension only; from hashlib, which
    loads OpenSSL's libcrypto (3.4 MB of peak RSS), only on a build without it."""
    try:
        from _sha3 import shake_256
    except ImportError:
        from hashlib import shake_256
    return shake_256(text.encode()).digest(size)


# A stem of depth m holds 2^(m+1) keys, written from its layers in pieces: a depth-20
# `extend` of the trivial condition with one full weight writes 58 MB of JSON in
# 0.3-0.5 s at 15 MB peak RSS through the CLI (2-vCPU host, Python 3.11.7).  Each
# level doubles the time and the text, so deeper stems are refused.
_MAX_DEPTH = 20
# Sampled candidates per stem before the exhaustive fallback, and the cap on the
# 2^(2^k) patterns of k new levels it enumerates: in effect 2^16 (k <= 4).
_RETRY_CAP = 64
_EXHAUSTIVE_CAP = 2 ** 20
# Tops counted at once by the bulk search: the count, its keys and the key
# tuples the interpreter keeps for reuse once it is freed stay at a few tens of KB.
_GROUPED = 2 ** 9


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


def _class_keys(phi_list, m: int, start: int, values: Sequence[str]) -> Iterator[tuple]:
    """The class key (see _stem_checks) of each top of depth m from index
    start on, valued values, in order, in C-level passes: (s[:max m1],
    h(s)[:max r2], |h(s)|), s[:max m1] told by its index t >> (m - max m1)
    among the strings of its length."""
    cut_x = max(phi.resolution[0] for phi in phi_list)
    cut_y = max(phi.resolution[1] for phi in phi_list)
    return zip(map(rshift, range(start, start + len(values)), repeat(max(0, m - cut_x))),
               map(itemgetter(slice(None, cut_y)), values), map(len, values))


def _stem_checks(phi_list, s: str, value: str, m: int, m2: int, delta: Fraction) -> tuple:
    """The check of each weight, (target, block, base, gains, D), for the
    class of a top s valued value in one extension from depth m to m2, which
    _Verdicts reads: a candidate e fails the check of weight #i first, or
    passes every check.

    Bit i of a candidate integer e is the appended value bit of the i-th
    suffix (suffixes enumerated MSB-first as format(i, "0Lb")).  The
    acceptance test per weight is exact:

        sum over new tops t of phi(t, h(s) + bit(t))  >  phi(s, h(s))/2 - delta.

    The new tops fall into rows at the weight's x-resolution m1 (see _rows;
    one top per row when m2 < m1).  The tops of a row share their weights
    up to the uniform halving below m1, so a row contributes through the
    number of ones in its block of bits.

    A check is stored over one common denominator D of its values as the
    integers

        target = (phi(s, h(s))/2 - delta)·D,  base = block·(sum of v0_r)·D,
        gain_r = (v1_r - v0_r)·D,

    where v0_r and v1_r are the scaled weights of a top of row r with bit 0
    and bit 1 appended, so e fails it exactly when

        base + sum over r of popcount(block_r(e))·gain_r  <=  target,

    the verdict of the Fraction sum, reached in int arithmetic.  The sum
    on the left is D times the new tops' sum of phi(t, h(s) + bit(t)), so
    a passing candidate's verdict holds each weight's (D, sum) for the
    extension to score the grown stem with.

    For a weight at resolution (m1, r2) the check reads the stem only
    through (s[:m1], h(s)[:r2], |h(s)|): the target reads the weight at
    (s[:m1], h(s)[:r2]), halved once per bit of s past m1 and of h(s)
    past r2, and the rows are s[:m1] and its extensions, read at
    ((h(s) + bit)[:r2]), which is h(s)[:r2] + bit while |h(s)| < r2 and
    h(s)[:r2] after.  So the stems that share the class key (_class_keys)

        (s[:max m1], h(s)[:max r2], |h(s)|)

    share the checks of every weight, and an extension builds them once
    per class, from its first stem.
    """
    checks = []
    for phi in phi_list:
        # each weight read here is an integer from phi's memo over D << shift
        d_phi, n = _mass(phi, s, value)
        target = Fraction(n, d_phi << (_depth_shift(phi, s, value) + 1)) - delta
        m1, r2 = phi.resolution
        rows, block = _rows(s, m, m2, m1)
        zeros = [_mass(phi, row, value + "0")[1] for row in rows]
        ones = [_mass(phi, row, value + "1")[1] for row in rows]
        # a new top valued value + bit lies max(0, m2 - m1) halvings below its
        # row's weight on the x-axis and max(0, |value| + 1 - r2) on the y-axis
        row_d = d_phi << (max(0, m2 - m1) + max(0, len(value) + 1 - r2))
        d = math.lcm(target.denominator, row_d)
        scale = d // row_d
        checks.append((target.numerator * (d // target.denominator), block,
                       block * sum(zeros) * scale,
                       [(n1 - n0) * scale for n0, n1 in zip(zeros, ones)], d))
    return tuple(checks)


class _Verdicts(dict):
    """The verdicts of one stem class, keyed by candidate and computed on
    first lookup: (i, None) when the candidate fails the check of weight #i
    first, (-1, sums) when it passes them all, sums holding each weight's
    _check_sum, over the D of its check (the check's last field).  It keeps
    one verdict per candidate asked for, so a candidate drawn again by any
    stem of the class is looked up, not checked again: at most _RETRY_CAP
    per stem, and the exhaustive fallback's whole space (at most 2^16
    candidates, as count is a power of two) once a stem of the class
    reaches it."""

    __slots__ = ("checks",)

    def __init__(self, checks: tuple) -> None:
        super().__init__()
        self.checks = checks

    def __missing__(self, e: int) -> tuple:
        sums = []
        for idx, check in enumerate(self.checks):
            acc = _check_sum(check, e)
            if acc <= check[0]:
                self[e] = verdict = (idx, None)
                return verdict
            sums.append(acc)
        self[e] = verdict = (-1, tuple(sums))
        return verdict


def _check_sum(check: tuple, e: int) -> int:
    """base + sum over r of popcount(block_r(e))·gain_r for one check."""
    _, block, acc, gains, _ = check
    mask = (1 << block) - 1
    for r, gain in enumerate(gains):
        acc += ((e >> (r * block)) & mask).bit_count() * gain
    return acc


def _key(t: int, m: int) -> str:
    """The top with index t of a level of depth m: t in m binary digits."""
    return bin(t | 1 << m)[3:]


def _keys(m: int) -> Iterator[str]:
    """The keys of the level of depth m in key order, made lazily."""
    return map(itemgetter(slice(3, None)), map(bin, range(1 << m, 2 << m)))


@cache
def _byte_bits() -> tuple[str, ...]:
    """Per byte: its bits as one-character strings, the lowest first."""
    return tuple(format(b, "08b")[::-1] for b in range(256))


@cache
def _fields(width: int) -> tuple[tuple[int, ...], ...]:
    """Per byte: its 8 // width fields of width bits, the lowest first."""
    mask = (1 << width) - 1
    return tuple(tuple((b >> i) & mask for i in range(0, 8, width)) for b in range(256))


def _blocks(data: bytes, width: int) -> Iterator[int]:
    """The blocks of width bits, a power of two, that data holds, read
    little-endian, in order; past its last whole block a byte of narrower
    blocks yields zero blocks."""
    if width == 8:
        return iter(data)
    if width < 8:
        return chain.from_iterable(map(_fields(width).__getitem__, data))
    size = width // 8
    return map(int.from_bytes, map(data.__getitem__, map(slice, range(0, len(data), size),
                                                         range(size, len(data) + size, size))),
               repeat("little"))


# Per byte value x > 0: x - 1.
_LESS_ONE = bytes([0, *range(255)])


def _layer_bytes(m2: int, e: int) -> bytes:
    """E of a layer to depth m2, its 2^m2 bits little-endian."""
    return e.to_bytes(-(-(1 << m2) // 8), "little")


def _base_tops(base: tuple) -> Iterator[Sequence[str]]:
    """The (key, value) pairs of a complete base's tops in key order: the
    base being in preorder, top 0 is its pair m and top t lies tz(t) + 1
    pairs after top t - 1 (_ruler, less one)."""
    m, pairs = base
    return map(pairs.__getitem__, accumulate(_ruler(m).translate(_LESS_ONE), initial=m))


def _grow(values: Iterable[str], m: int, layer: tuple[int, int]) -> Iterator[str]:
    """The values of the level a layer (m', E) grew from depth m, in key
    order, from its old tops' values: each repeated once per new top, with
    the new top's bit of E appended."""
    m2, e = layer
    parents = chain.from_iterable(map(repeat, values, repeat(1 << (m2 - m))))
    return map(add, parents, chain.from_iterable(map(_byte_bits().__getitem__,
                                                     _layer_bytes(m2, e))))


def _top_values(base: tuple, layers: Sequence[tuple[int, int]]) -> Iterator[str]:
    """The values of the tops of the deepest level that base and layers (a
    condition's, or the first of them) reach, in key order, made lazily by
    C-level maps in step with their reader (_base_tops, then _grow per
    layer)."""
    values, m = map(itemgetter(1), _base_tops(base)), base[0]
    for layer in layers:
        values, m = _grow(values, m, layer), layer[0]
    return values


def _layer_runs(p: Condition) -> tuple[int, int, Iterator[tuple[int, list, list]]]:
    """(m, m2, runs) of p's last layer, from depth m to m2: runs yields
    (start, values, patterns) per _GROUPED old tops in key order, the index
    of the run's first top, their values and their patterns read from E."""
    *layers, (m2, e) = p._layers
    m = layers[-1][0] if layers else p._base[0]
    values, patterns = _top_values(p._base, layers), _blocks(_layer_bytes(m2, e), 1 << (m2 - m))

    def runs() -> Iterator[tuple[int, list, list]]:
        for start in range(0, 1 << m, _GROUPED):
            yield start, list(islice(values, _GROUPED)), list(islice(patterns, _GROUPED))
    return m, m2, runs()


# Levels of a grown top written per filled _chunk template: 511 keys.
_CHUNK = 8
# Between the cores 'key","value' of two pairs on the wire; binary strings need no escape.
_SEP = '"],["'
# Pairs of growth joined into one piece for the sink at most (one grown top's, if more).
_PIECE = 2 ** 9


def _inner(s: str, v: str, k: int) -> Iterator[tuple[str, str]]:
    """(text, w) for each w = s + u, u of length k, in key order: text is the
    pairs valued v of the keys s + u[:j], 0 < j < k, between w and the one before,
    each core led by _SEP."""
    for r in range(2 ** k):
        u = format(r, f"0{k}b")
        new = (r & -r).bit_length() if r else k  # the prefixes w does not share with r - 1
        yield "".join(f'{_SEP}{s}{u[:j]}","{v}' for j in range(k - new + 1, k)), s + u


@cache
def _chunk(c: int) -> str:
    """The pairs of the c levels under a top, each core led by _SEP: K stands for
    the top, V for its value, and the value of a key of length c ends in %s, its bit."""
    return "".join(f'{text}{_SEP}{w}","V%s' for text, w in _inner("K", "V", c))


@cache
def _parts(k: int) -> tuple[str, ...]:
    """The pairs of the k levels under a top cut before each new top's core: K
    stands for the top and V for its value.  The first part goes on the top's
    piece, after a _SEP; each other starts a piece."""
    parts = [text + _SEP for text, _ in _inner("K", "V", k)]
    return (parts[0], *(text[len(_SEP):] for text in parts[1:]))


def _fill(k: int, e: int) -> str:
    """_chunk(k) with the bits of e, bit i at the i-th new top in key order."""
    return _chunk(k) % tuple(format(e, f"0{2 ** k}b")[::-1])


def _below(pieces: Iterator[str], tops: Iterable[tuple[str, str]],
           grown: Iterable[tuple[str, str]], k: int) -> Iterator[str]:
    """pieces, each ending in the core of its top of tops, with the k levels
    below the top put after it: one piece per new top, in key order, each
    ending in its core; grown holds the new tops' (key, value) pairs in key order."""
    parts = _parts(k)
    grown = map('","'.join, grown)
    for piece, (s, v) in zip(pieces, tops):
        texts = map(add, map(str.replace, map(str.replace, parts, repeat("K"), repeat(s)),
                             repeat("V"), repeat(v)), grown)
        yield piece + next(texts)
        yield from islice(texts, len(parts) - 1)


@cache
def _ruler(k: int) -> bytes:
    """tz(j) + 2 for j = 1 .. 2^k - 1, tz(j) the trailing zeros of j: in a
    complete base, the cores from the one after top 2j - 1 to top 2j."""
    ruler = b""
    for t in range(2, k + 2):
        ruler += bytes((t,)) + ruler
    return ruler


def stem_text(p: Condition, sink: Callable[[str], object]) -> None:
    """Pass the JSON text of p's stem, an array of (key, value) pairs, to sink in
    bounded pieces, in one pass over the base and layers (see Condition).

    A pair is written as its core 'key","value', and the cores are joined by
    _SEP.  Every piece ends in the core of a top of the deepest level reached
    so far: a layered base, complete and so in its tree's preorder, is cut
    into one piece per top, top 0 after the m keys above it, an odd top alone
    and top 2j after the tz(j) + 1 keys between it and top 2j - 1 (_ruler);
    a base with no layer, which may be invalid, is written pair for pair.  A
    layer before the last puts the levels it grew under each top after the
    top's piece (_below), one piece per new top.  A level's keys and values
    are made as they are written (_base_tops, _keys and _grow), once for
    the layer that grew it and the one that grows from it.  The last layer
    adds its growth under each top to the top's piece: the template of the
    top's block of E (_fill, made once per distinct block when k <= 3) with K
    and V replaced by the top and its value.  A last layer of k > _CHUNK
    levels first puts its upper k - _CHUNK levels, whose new tops keep the
    top's value, and then fills a _CHUNK template per 2^_CHUNK bits of E.
    The cut, the keys, the values, the blocks, the fills and the adding are
    C-level maps, and the pieces are joined a bounded run at a time: at most
    _PIECE pairs of fills, with their tops' base cores."""
    (m, pairs), layers = p._base, p._layers
    pieces = cores = map('","'.join, pairs)
    size = _PIECE
    if layers and m:
        evens = map(_SEP.join, map(islice, repeat(cores), chain((m + 1,), _ruler(m - 1))))
        pieces = chain.from_iterable(zip(evens, cores))
    # the (key, value) pairs of the deepest level reached so far, each level's made once
    # for its readers (read only under a layer)
    level, top = _base_tops(p._base), m
    for layer in layers[:-1]:
        tops, parents = tee(level)
        grown, level = tee(zip(_keys(layer[0]), _grow(map(itemgetter(1), parents), top, layer)))
        pieces = _below(pieces, tops, grown, layer[0] - top)
        top = layer[0]
    for depth, e in layers[-1:]:
        k = depth - top
        if k > _CHUNK:  # put the levels above the last _CHUNK; their new tops keep the value
            cut = k - _CHUNK
            tops, parents = tee(level)
            values = chain.from_iterable(map(repeat, map(itemgetter(1), parents), repeat(1 << cut)))
            grown, level = tee(zip(_keys(top + cut), values))
            pieces = _below(pieces, tops, grown, cut)
            top, k = top + cut, _CHUNK
        fill = partial(_fill, k)
        if k <= 3:  # at most 256 blocks
            fill = cache(fill)
        left, right = tee(level)
        keys, values = map(itemgetter(0), left), map(itemgetter(1), right)
        blocks = _blocks(_layer_bytes(depth, e), 1 << k)
        fills = map(str.replace, map(str.replace, map(fill, blocks), repeat("K"), keys),
                    repeat("V"), values)
        pieces = map(add, pieces, fills)
        # at most _PIECE pairs of fills; a piece also holds its top's base cores
        size = max(1, _PIECE >> k + 2)
    sink("[")
    lead = '["'
    while batch := list(islice(pieces, size)):
        sink(lead)
        sink(_SEP.join(batch))
        del batch  # not held while the next is joined
        lead = _SEP
    sink('"]]' if pairs else "]")


def extend_detailed(
    p: Condition, seed: int, *, max_new_levels: int | None = None,
    census_cut: int | None = None,
) -> tuple[Condition, ExtendStats]:
    """Extend a valid condition, returning the result and search statistics.

    With no attached weights the stem grows one level with zero bits
    appended.  Otherwise the slack-derived tolerance delta and the least
    depth m' with 2^(-m') / delta^2 < 1/(2n) drive a seeded search per top
    stem: _RETRY_CAP sampled candidates, then every candidate 0 .. 2^count - 1
    when the space holds at most _EXHAUSTIVE_CAP of them, each checked
    exactly.  A candidate is count = 2^(m' - m) bits, read little-endian
    from B = ceil(count/8) bytes of SHAKE-256 (_shake) and masked to count
    bits: candidate 0 of the top with key-order index t from bytes
    t·B .. (t+1)·B of the one stream of f"{seed}|{m}|{m'}", and candidate
    a >= 1 of top s from the first B bytes of f"{seed}|{m'}|{s}|{a}".
    max_new_levels (at least 1) caps the depth growth for multi-step runs,
    where the pinned depth formula compounds past any materializable size;
    a depth past _MAX_DEPTH is refused either way.  delta reads the tops'
    value lengths off the census validate keeps on p.

    The search runs in bulk, one pass per run of _GROUPED tops, reading the
    run's values as it goes (_top_values) and its keys by index (_key).
    The masked stream is read once (one bytes.translate when count <= 8)
    and holds every top's pattern.  A run's tops are told in C-level passes
    by their stem class (_class_keys), each by the index of the class's
    first top in key order, and each class's checks (_stem_checks) are
    built from that first top.  The run's groups are counted, one int per
    top, the class index shifted past the count bits of its candidate, and
    one verdict (_Verdicts) is looked up per group.  Only if a group fails
    do the tops whose candidate 0 fails run the retries and the fallback,
    in key order, each from its own stream, patching its pattern in the
    stream, and the run is counted again.  Then every group passes, and a
    group of n tops adds n times its sums.  So every top gets the pattern
    the per-top loop gives it.  census_cut, with weights, asks the search
    to count the result's census at that x-cut (_grown_census) from the
    runs it reads, and keep it on the result (see _census), as generic_run
    does; then no reader counts it again.

    The result's scores are read off the accepted candidates' integer sums,
    score = sum over tops s of 2^(|h(s)|+1)·sum_s/D_s, and each must exceed
    its tag.  The result is p's base and layers (see Condition) plus one
    layer (m', E), E the accepted patterns packed count bits a top in key
    order (ExtendStats.chosen): when count >= 8 and no top retries, the
    stream read little-endian.  No key or value of the grown stem is built
    here; it is complete and monotone by construction.
    """
    if max_new_levels is not None and max_new_levels < 1:
        raise ValueError(f"max_new_levels must be at least 1, got {max_new_levels}")
    _refuse_past_limit(p.m, p.m + 1)  # every extension reaches m + 1: refuse before validate
    rep = validate(p)
    if not rep.ok:
        raise ValueError(f"cannot extend invalid condition: {rep.first.detail}")
    m, n = p.m, 1 << p.m
    m2 = pinned = m + 1
    retries: list[int] = []
    exhaustive: list[str] = []
    scores: tuple[Fraction, ...] = ()
    layer, kept = 0, None
    if p.u:
        phi_list = [tw.phi for tw in p.u]
        slack = min(sc - tw.eps for sc, tw in zip(rep.scores, p.u))
        census = _census(p, max(phi.resolution[0] for phi in phi_list))  # kept by validate
        delta = slack / (2 * sum(c << 1 + len(v) for (_, v), c in census.items()))
        threshold = delta * delta / (2 * len(p.u))
        # the least m2 > m with 2^m2 > 1/threshold, that is 2^-m2 < threshold
        m2 = pinned = max(m + 1, (threshold.denominator // threshold.numerator).bit_length())
        if max_new_levels is not None:
            m2 = min(m2, m + max_new_levels)
        _refuse_past_limit(m, m2)
        count = 2 ** (m2 - m)
        # the exhaustive fallback tries every pattern, tagged as attempt _RETRY_CAP
        space = 2 ** count if count < 64 and 2 ** count <= _EXHAUSTIVE_CAP else 0
        size, mask = -(-count // 8), (1 << count) - 1
        stream = bytearray(_shake(f"{seed}|{m}|{m2}", n * size))
        if size == 1:  # every top's candidate 0 is its byte of the stream, masked
            stream = stream.translate(bytes(map(mask.__and__, range(256))))
        retries = [0] * n
        # per weight: D -> sum of 2^(|h(s)|+1)·sum_s; the tops of one class that
        # accept one candidate share its verdict, so its sums are added n times
        totals: list[dict] = [{} for _ in p.u]
        # each top is told by the key-order index of its class's first top,
        # which dict.setdefault keeps, and counted with its candidate,
        # _GROUPED tops at a time; a class's verdicts are built from its
        # first top in the run that meets it
        first: dict = {}
        classes: dict = {}  # each class's verdicts, by its first top's index
        scales: dict = {}  # each class's |h(s)| + 1 and its checks' D, by its first top's index
        values = _top_values(p._base, p._layers)

        def candidates(start: int, stop: int) -> list[int]:
            return list(_blocks(stream[start * size:stop * size], 8 * size))

        def runs() -> Iterator[tuple[int, list, list]]:
            for start in range(0, n, _GROUPED):
                tops = range(start, min(n, start + _GROUPED))
                run_values = list(islice(values, _GROUPED))
                run = list(map(first.setdefault, _class_keys(phi_list, m, start, run_values), tops))
                for t in islice(first.values(), len(classes), None):
                    value = run_values[t - start]
                    checks = _stem_checks(phi_list, _key(t, m), value, m, m2, delta)
                    classes[t] = _Verdicts(checks)
                    scales[t] = len(value) + 1, [check[4] for check in checks]
                cands = candidates(start, tops.stop)
                groups = Counter(map(or_, map(lshift, run, repeat(count)), cands))
                if any(classes[g >> count][g & mask][0] >= 0 for g in groups):
                    # the run's tops whose candidate 0 failed retry in key order, each
                    # from its own stream, then fall back; a retry patches the stream
                    for t, verdicts in enumerate(map(classes.__getitem__, run), start):
                        last_fail = verdicts[cands[t - start]][0]
                        if last_fail < 0:
                            continue
                        s = _key(t, m)
                        # attempt a < _RETRY_CAP draws from its own stream; from there on the
                        # fallback tries candidate a - _RETRY_CAP, recorded as attempt _RETRY_CAP
                        for a in range(1, _RETRY_CAP + space):
                            e = (int.from_bytes(_shake(f"{seed}|{m2}|{s}|{a}", size), "little")
                                 & mask if a < _RETRY_CAP else a - _RETRY_CAP)
                            last_fail = verdicts[e][0]
                            if last_fail < 0:
                                break
                        else:
                            raise SearchExhausted(s, last_fail, _RETRY_CAP)
                        if a >= _RETRY_CAP:
                            exhaustive.append(s)
                        retries[t] = min(a, _RETRY_CAP)
                        stream[t * size:(t + 1) * size] = e.to_bytes(size, "little")
                    cands = candidates(start, tops.stop)
                    groups = Counter(map(or_, map(lshift, run, repeat(count)), cands))
                for g, k in groups.items():  # every group passes by now
                    t = g >> count
                    shift, ds = scales[t]
                    for total, d, acc in zip(totals, ds, classes[t][g & mask][1]):
                        total[d] = total.get(d, 0) + (k * acc << shift)
                yield start, run_values, cands

        if census_cut is None:
            for _ in runs():
                pass
        else:
            kept = census_cut, _grown_census(m, m2, runs(), census_cut)
        scores = tuple(
            sum((Fraction(acc, d) for d, acc in total.items()), Fraction(0)) for total in totals)
        for i, (sc, tw) in enumerate(zip(scores, p.u)):
            if sc <= tw.eps:  # unreachable when every stem passed its exact check
                raise RuntimeError(
                    f"extension produced invalid condition: weight #{i} scores {sc}, "
                    f"needs > {tw.eps}")
        layer = _layer_int(stream, count)
    q = Condition._of({"m": m2, "u": p.u, "_base": p._base, "_layers": p._layers + ((m2, layer),)})
    if kept is not None:
        q.__dict__["_kept_census"] = kept
    return q, ExtendStats(pinned, m2, retries, exhaustive, scores, layer)


def _layer_int(stream: bytes, count: int) -> int:
    """E from the patterns of count bits each, one byte a top when count < 8
    and count // 8 bytes a top, little-endian, from 8 on: narrow fields are
    merged pairwise into bytes, and the bytes read little-endian."""
    while count < 8:
        odd = stream[1::2] + bytes(len(stream) % 2)
        stream = bytes(map(or_, stream[::2], map(lshift, odd, repeat(count))))
        count *= 2
    return int.from_bytes(stream, "little")


def attach_weight(p: Condition, eps: Fraction, phi: WeightFunction) -> Condition:
    """Add a tagged weight; the stem must score above eps.  p's stem and census are shared."""
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError(f"tag must lie strictly between 0 and 1, got {eps}")
    sc = score(p, phi)
    if sc <= eps:
        raise ScoreTooLow(sc, eps)
    # the stem's state is shared: neither condition ever changes it
    return Condition._of({**vars(p), "u": p.u + (TaggedWeight(eps, phi),)})


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
    census = _census(p, f.resolution[0])
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


def _grown_census(m: int, m2: int, runs: Iterable[tuple[int, list, Iterable[int]]],
                  cut: int) -> Counter:
    """_top_groups(h2, m2, cut) of the stem grown by a layer (see Condition)
    from depth m to m2, counted from its old tops' values and patterns
    alone, which runs yields a run at a time, (start, values, patterns): the
    index of the run's first top, and their values and patterns in key
    order (_layer_runs, or the search's own runs).  A row of top s (see
    _rows) holds the tops of one block of bits, the blocks _check_sum reads,
    so popcount(block) of them are valued h(s) + "1" and the rest h(s) +
    "0".  When cut <= m each top has one row, its own cut, told by its index
    t >> (m - cut), so the tops are counted per (row, h(s), popcount) in
    C-level passes before any row or value string is built."""
    census: Counter = Counter()
    if cut <= m:
        grown: Counter = Counter()  # old tops per ((row index, h(s)), popcount)
        for start, values, patterns in runs:
            rows = map(rshift, range(start, start + len(values)), repeat(m - cut))
            grown.update(zip(zip(rows, values), map(int.bit_count, patterns)))
        block = 1 << (m2 - m)
        for ((r, v), ones), n in grown.items():
            row = _key(r, cut)
            if ones:
                census[row, v + "1"] += n * ones
            if ones < block:
                census[row, v + "0"] += n * (block - ones)
        return census
    for start, values, patterns in runs:
        for t, v, e in zip(range(start, start + len(values)), values, patterns):
            rows, block = _rows(_key(t, m), m, m2, cut)
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
    certificate(p, complement).  The certificates read the census the
    condition keeps (_census), cut at the finest x-resolution in the
    schedule or finer: the trivial stem's counts its one top at that cut
    before the first attachment scores it, and an extended one's is
    counted from the accepted bit patterns by the search that grew it
    (extend_detailed's census_cut), in the same pass over the tops, so no
    step builds h or reads a level twice: each one extends the layered
    condition the last one returned.  An attachment shares its
    condition's census and certifies only the new cover.  score_f is scored
    against the weight avoid_null attached, and the complement is the one
    avoid_null computed and the cover keeps, so each cover's complement and
    weight are built once per run and the weight's memo serves every
    snapshot.  Every step extends with the run's own seed: each step grows
    from a new depth, so its streams (see extend_detailed) differ.
    Multi-step runs default to bounded depth growth; the pinned depth
    formula compounds roughly quadratically per step and leaves any second
    unbounded extension beyond reach.
    """
    if steps > _MAX_DEPTH:  # every step grows the stem by at least one level
        raise ValueError(f"steps {steps} would grow the stem past the depth limit of {_MAX_DEPTH}")
    for c in schedule:
        if not 0 <= c.at_step < steps:
            raise ValueError(f"cover scheduled at step {c.at_step}, run has {steps}")

    p = trivial_condition()
    attached: list[tuple[int, ClopenPlaneSet, WeightFunction]] = []
    certs: list[tuple[int, Certificate]] = []  # of each attached cover
    trace: list[TraceEntry] = []
    cut = max((c.cover.resolution[0] for c in schedule), default=0)
    if schedule:  # the first attachment's score reads this census, not a coarser one
        _census(p, cut)
    for step in range(steps):
        try:
            for i, c in enumerate(schedule):
                if c.at_step == step:
                    p = avoid_null(p, c.cover, c.eps)
                    f, phi = c.cover._complement, p.u[-1].phi  # as avoid_null built them
                    attached.append((i, f, phi))
                    certs.append((i, _certify(_census(p, cut), p.m, f, phi)))
                    trace.append(TraceEntry(step, "attach", p.m, tuple(certs)))
            p, _ = extend_detailed(p, seed, max_new_levels=max_new_levels, census_cut=cut)
            certs = [(i, _certify(_census(p, cut), p.m, f, phi)) for i, f, phi in attached]
            trace.append(TraceEntry(step, "extend", p.m, tuple(certs)))
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
    stem = tuple(p.pairs())
    if not p.u:
        return CenteredIndex(0, 1, stem, ())
    q = min(c for tw in p.u for c in (tw.phi.total(), score(p, tw.phi) - tw.eps))
    if q <= 0:
        raise ValueError("condition must be valid with positive-mass weights")
    k = -(-q.denominator // q.numerator)  # ceil(1/q)
    return CenteredIndex(len(p.u), k, stem, tuple(tw.eps for tw in p.u))


def merge_same_stem(p: Condition, q: Condition) -> Condition:
    """Compatibility witness for two conditions with identical stems, compared by
    m and h (built for an extended condition, see Condition); p's stem and census
    are shared."""
    if p.m != q.m or p.h != q.h:
        raise ValueError("conditions do not share a stem")
    return Condition._of({**vars(p), "u": p.u + q.u})
