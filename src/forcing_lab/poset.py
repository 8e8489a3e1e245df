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

import _random
import math
from bisect import bisect_left
from collections import Counter
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import cache, cached_property
from operator import itemgetter

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
    at most m to a binary string; use validate() for the full contract.

    Every condition is a base plus layers.  The base is the depth and the
    sorted (key, value) pairs of a given stem: one built from h is its own
    base, sorted on first use (_base), with no layers.  Each extension
    appends a layer (depth, tops, chosen): the (top, value) pairs of the
    level it grew from, in key order, and the pattern e accepted for each
    (ExtendStats.chosen).  Between a top and its new tops the new keys keep
    the top's value, and its i-th new top in key order appends bit i of e,
    so the layered levels are complete and monotone by construction.  h of
    an extended condition is built from its pairs when first read
    (_stem_map) and kept; equality and repr read h, so an extended
    condition equals its materialized one."""

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
        return self.m, sorted(self.h.items())

    def _values(self) -> tuple:
        return self.m, self.h, self.u

    def _top_pairs(self) -> list[tuple[str, str]]:
        """The (top, value) pairs of the deepest level in key order: the
        base's, or those the last layer grew (_grown_tops)."""
        if self._layers:
            return _grown_tops(*self._layers[-1])
        m, pairs = self._base
        return [pair for pair in pairs if len(pair[0]) == m]

    def tops(self) -> list[str]:
        return [s for s, _ in self._top_pairs()]

    def pairs(self) -> list[tuple[str, str]]:
        """The stem's (key, value) pairs in key order, written from the base
        and layers (_write_layers), or h's items once an extended condition
        has built h, which is in key order, so no key is written twice."""
        if self._layers and "h" in self.__dict__:
            return list(self.h.items())
        return _write_layers(self._base, self._layers)


def _stem_map(p: Condition) -> dict:
    """The full map of an extended condition, built from its pairs."""
    return dict(p.pairs())


def trivial_condition() -> Condition:
    return Condition(0, {"": ""}, ())


def score(h: Mapping[str, str] | Condition, phi: WeightFunction) -> Fraction:
    """Exact score of a stem map, or of a condition's stem, against a
    weight.  The top strings are grouped by (row prefix, value), the row
    being the top cut to the weight's x-resolution, so the cost stays
    proportional to the stem size with only a handful of exact
    multiplications; an extended condition's groups are counted from its
    last layer (_census)."""
    if isinstance(h, Condition):
        return _score_groups(_census(h, phi.resolution[0]), h.m, phi)
    m = max(map(len, h))
    return _score_groups(_top_groups(h, m, phi.resolution[0]), m, phi)


def _top_groups(h: Mapping[str, str], m: int, cut: int) -> Counter:
    """The tops of a stem of depth m counted per (top[:cut], value)."""
    return Counter((s[:cut], v) for s, v in h.items() if len(s) == m)


def _census(p: Condition, cut: int) -> Counter:
    """_top_groups(p.h, p.m, cut), of an extended condition counted from
    its last layer: the patterns and the tops they were accepted for."""
    if not p._layers:
        return _top_groups(p.h, p.m, cut)
    return _grown_census(*p._layers[-1], cut)


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
    tag); otherwise it is empty.  A given stem is checked in full; the
    layered levels of an extended one (see Condition) hold by construction,
    its base having been validated when it was extended, so only its tags
    and scores are checked, from the census of its last layer."""
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
    cap, the depth used, per-stem sampling effort, the result's exact score
    against each weight (empty when there are none), and the accepted bit
    pattern per old top (bit i is the value bit appended at its i-th new
    top, all zero when there are no weights), from which the grown stem's
    census is counted without walking it (see _grown_census); that dict is
    also in the result's last layer (see Condition), so it is read, never
    changed.  Built once the extension is done; its dict and list fields
    make it unhashable."""

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
    """The interpreter's built-in SHA-256, imported by the first seed
    derivation, which then binds the module name _sha256 to it: only
    extension derives seeds, so no other command pays for the import.
    The lookup order is random's: module _sha2 (Python 3.12 on), then
    _sha256 (before 3.12), and hashlib.sha256 only on a build configured
    without the built-in SHA-2 modules.  The digests are the same, but
    hashlib loads OpenSSL's libcrypto, which costs an extension process
    about 3.4 MB of peak RSS for this one hash."""
    global _sha256
    try:
        from _sha2 import sha256 as _sha256
    except ImportError:
        try:
            from _sha256 import sha256 as _sha256
        except ImportError:
            from hashlib import sha256 as _sha256
    return _sha256(data)


# A stem of depth m holds 2^(m+1) keys.  A depth-20 `extend` of the trivial
# condition with one full weight took 1.5-1.6 s and peaked at 432 MB RSS through
# the CLI (2-vCPU host, Python 3.11.7), writing 58 MB of JSON: the peak is the
# wire pairs and their JSON text, and each level doubles both, so deeper stems
# are refused before any is written.
_MAX_DEPTH = 20
# Sampled candidates per stem before the exhaustive fallback, and the cap on the
# 2^(2^k) patterns of k new levels it enumerates: in effect 2^16 (k <= 4).
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
    (s, h(s)) -> verdicts, the _Verdicts of the stem's class: verdicts[e]
    is (i, None) when the candidate e fails the check of weight #i first,
    and (-1, sums) when it passes every check.

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
    sums holds each weight's (D, sum) for the extension to score the grown
    stem with.

    For a weight at resolution (m1, r2) the check reads the stem only
    through (s[:m1], h(s)[:r2], |h(s)|): the target reads the weight at
    (s[:m1], h(s)[:r2]), halved once per bit of s past m1 and of h(s)
    past r2, and the rows are s[:m1] and its extensions, read at
    ((h(s) + bit)[:r2]), which is h(s)[:r2] + bit while |h(s)| < r2 and
    h(s)[:r2] after.  So the stems that share the class key

        (s[:max m1], h(s)[:max r2], |h(s)|)

    share the checks of every weight.  Each class builds them once
    (_stem_checks), from its first stem, and keeps its verdicts: a
    candidate drawn again by any stem of the class is looked up, not
    checked again, and an accepted one is summed once.
    """
    cut_x = max(phi.resolution[0] for phi in phi_list)
    cut_y = max(phi.resolution[1] for phi in phi_list)
    classes: dict = {}

    def search(s: str, value: str) -> _Verdicts:
        key = (s[:cut_x], value[:cut_y], len(value))
        verdicts = classes.get(key)
        if verdicts is None:
            verdicts = classes[key] = _Verdicts(_stem_checks(phi_list, s, value, m, m2, delta))
        return verdicts

    return search


def _stem_checks(phi_list, s: str, value: str, m: int, m2: int, delta: Fraction) -> tuple:
    """The check of each weight for the class of a top s valued value (see
    _stem_searches): (target, block, base, gains, D)."""
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
    (D, _check_sum).  It keeps one verdict per candidate asked for: at
    most _RETRY_CAP per stem, and the exhaustive fallback's whole space
    (at most 2^16 candidates, as count is a power of two) once a stem of
    the class reaches it."""

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
            sums.append((check[4], acc))
        self[e] = verdict = (-1, tuple(sums))
        return verdict


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


# Levels of a grown top written per pass of _write_top.
_CHUNK = 8


@cache
def _chunk(c: int) -> tuple[list[str], str]:
    """The suffixes of c levels (_suffixes(c)) and a %-template of their
    values: "x" for an inner suffix, "%s" for one of length c."""
    low = _suffixes(c)
    return low, "".join("%s" if len(u) == c else "x" for u in low)


def _grown_tops(m2: int, tops: Sequence[tuple[str, str]], chosen: Mapping) -> list[tuple[str, str]]:
    """The (top, value) pairs, in key order, of the level that a layer (see
    Condition) grew to depth m2 from the pairs tops."""
    leaves = _extensions("", m2 - len(tops[0][0]))
    width = f"0{len(leaves)}b"
    grown: list[tuple[str, str]] = []
    for (s, v), e in zip(tops, chosen.values()):
        pick = {"0": v + "0", "1": v + "1"}.__getitem__
        grown += zip([s + u for u in leaves], map(pick, format(e, width)[::-1]))
    return grown


def _write_layers(base: tuple[int, list], layers: Sequence) -> list[tuple[str, str]]:
    """The (key, value) pairs of a base and its layers (see Condition) in
    key order, in one pass: each pair of the base and, after each of its
    tops, the pairs grown under it.  The tops of each level are reached in
    key order, the order of the next layer's tops, so each layer's pairs
    and patterns are read in turn.  A top of the last layer writes its
    levels a chunk at a time (_write_top); one of an earlier layer walks
    its suffixes, writing each new top as the next layer holds it,
    followed by what that layer grows under it."""
    depths = [base[0], *(m2 for m2, _, _ in layers)]
    suffixes = [_suffixes(m2 - m) for m, m2 in zip(depths, depths[1:-1])]
    grown = [zip(tops, chosen.values()) for _, tops, chosen in layers]
    codes: dict[int, str] = {}  # the last layer's value codes, per pattern
    out: list[tuple[str, str]] = []

    def grow(top: tuple[str, str], e: int, j: int) -> None:
        s, v = top
        k = depths[j + 1] - depths[j]
        if j == len(suffixes):
            _write_top(out, s, v, e, k, codes)
            return
        following = grown[j + 1]
        for u in suffixes[j]:
            if len(u) < k:
                out.append((s + u, v))
            else:
                new, e_new = next(following)  # the top s + u, valued as grown
                out.append(new)
                grow(new, e_new, j + 1)

    for pair in base[1]:
        out.append(pair)
        if layers and len(pair[0]) == depths[0]:
            grow(*next(grown[0]), 0)
    return out


def _write_top(out: list, s: str, v: str, e: int, k: int, codes: dict) -> None:
    """Append to out, in key order, the pairs of the k levels grown under a
    top s valued v with the pattern e.  The last c = min(k, _CHUNK) levels
    are written a chunk at a time: under each string w of length k - c (s
    itself when c = k) the keys w + _suffixes(c), valued in one pass over
    _chunk(c)'s template filled with w's block of 2^c bits of e.  When
    c = k the filled template is kept in codes, per pattern, for the other
    tops of the layer."""
    c = min(k, _CHUNK)
    low, template = _chunk(c)
    pick = {"x": v, "0": v + "0", "1": v + "1"}.__getitem__
    if c == k:
        code = codes.get(e)
        if code is None:
            code = codes[e] = template % tuple(format(e, f"0{2 ** k}b")[::-1])
        out += zip([s + u for u in low], map(pick, code))
        return
    bits = format(e, f"0{2 ** k}b")[::-1]
    block, at = 2 ** c, 0
    for u in _suffixes(k - c):
        w = s + u
        out.append((w, v))
        if len(u) == k - c:
            out += zip([w + x for x in low], map(pick, template % tuple(bits[at:at + block])))
            at += block


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
    its tag.  The result is p's base and layers (see Condition) plus one
    layer holding p's top pairs and the accepted patterns
    (ExtendStats.chosen), so no key of the grown stem is built here; it is
    complete and monotone by construction.
    """
    if max_new_levels is not None and max_new_levels < 1:
        raise ValueError(f"max_new_levels must be at least 1, got {max_new_levels}")
    _refuse_past_limit(p.m, p.m + 1)  # every extension reaches m + 1: refuse before validate
    rep = validate(p)
    if not rep.ok:
        raise ValueError(f"cannot extend invalid condition: {rep.first.detail}")
    m = p.m
    tops = p._top_pairs()
    m2 = pinned = m + 1
    retries: dict[str, int] = {}
    exhaustive: list[str] = []
    scores: tuple[Fraction, ...] = ()
    chosen = dict.fromkeys([s for s, _ in tops], 0)
    if p.u:
        n = len(p.u)
        slack = min(sc - tw.eps for sc, tw in zip(rep.scores, p.u))
        sigma = sum(2 ** (1 + len(v)) for _, v in tops)
        delta = slack / (2 * sigma)
        threshold = delta * delta / (2 * n)
        # the least m2 > m with 2^m2 > 1/threshold, that is 2^-m2 < threshold
        m2 = pinned = max(m + 1, (threshold.denominator // threshold.numerator).bit_length())
        if max_new_levels is not None:
            m2 = min(m2, m + max_new_levels)
        _refuse_past_limit(m, m2)
        search = _stem_searches([tw.phi for tw in p.u], m, m2, delta)
        count = 2 ** (m2 - m)
        # the exhaustive fallback tries every pattern, tagged as attempt _RETRY_CAP
        space = 2 ** count if count < 64 and 2 ** count <= _EXHAUSTIVE_CAP else 0
        # one generator reseeded per stem: for an int seed, random.Random's
        # seed method only adds a type check to this one, so each stem draws
        # the stream of random.Random(_sub_seed(seed, s))
        rng = _random.Random(0)
        reseed, draw = rng.seed, rng.getrandbits
        totals: list[dict] = [{} for _ in p.u]  # per weight: D -> sum of 2^(|h(s)|+1)·sum_s
        for s, value in tops:
            verdicts = search(s, value)
            reseed(_sub_seed(seed, s))
            last_fail = 0
            for attempt in range(_RETRY_CAP):
                e = draw(count)
                last_fail, sums = verdicts[e]
                if last_fail < 0:
                    break
            else:
                attempt = _RETRY_CAP
                for e in range(space):
                    last_fail, sums = verdicts[e]
                    if last_fail < 0:
                        break
                else:
                    raise SearchExhausted(s, last_fail, _RETRY_CAP)
                exhaustive.append(s)
            retries[s] = attempt
            chosen[s] = e
            shift = len(value) + 1
            for total, (d, acc) in zip(totals, sums):
                total[d] = total.get(d, 0) + (acc << shift)
        scores = tuple(
            sum((Fraction(acc, d) for d, acc in total.items()), Fraction(0)) for total in totals)
        for i, (sc, tw) in enumerate(zip(scores, p.u)):
            if sc <= tw.eps:  # unreachable when every stem passed its exact check
                raise RuntimeError(
                    f"extension produced invalid condition: weight #{i} scores {sc}, "
                    f"needs > {tw.eps}")
    q = Condition._of({"m": m2, "u": p.u, "_base": p._base,
                       "_layers": p._layers + ((m2, tops, chosen),)})
    return q, ExtendStats(pinned, m2, retries, exhaustive, scores, chosen)


def attach_weight(p: Condition, eps: Fraction, phi: WeightFunction) -> Condition:
    """Add a tagged weight; the current stem must already score above eps."""
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


def _grown_census(m2: int, tops: Sequence[tuple[str, str]], chosen: Mapping[str, int],
                  cut: int) -> Counter:
    """_top_groups(h2, m2, cut) of the stem grown to depth m2 from the
    (top, value) pairs tops of depth m with the accepted patterns chosen
    (ExtendStats.chosen), counted from the patterns alone.  A row of top s
    (see _rows) holds the tops of one block of bits, the blocks _check_sum
    reads, so popcount(block) of them are valued h(s) + "1" and the rest
    h(s) + "0".  When cut <= m each top has one row, its own cut, so the
    tops and ones are added up per (row, h(s)) before any value string is
    built."""
    m = len(tops[0][0])
    census: Counter = Counter()
    if cut <= m:
        grown: Counter = Counter()  # per (row, h(s)): new tops, and those valued h(s) + "1"
        set_bits: Counter = Counter()
        for (s, v), e in zip(tops, chosen.values()):
            key = s[:cut], v
            grown[key] += 2 ** (m2 - m)
            set_bits[key] += e.bit_count()
        for (row, v), n in grown.items():
            if set_bits[row, v]:
                census[row, v + "1"] = set_bits[row, v]
            if set_bits[row, v] < n:
                census[row, v + "0"] = n - set_bits[row, v]
        return census
    for (s, v), e in zip(tops, chosen.values()):
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
    counted from the accepted bit patterns of the grown stem's last layer
    (see Condition), so no step builds h: each one extends the layered
    condition the last one returned.
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
            p, _ = extend_detailed(
                p, _sub_seed(seed, f"step{step}"), max_new_levels=max_new_levels)
            census = _census(p, cut)
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
    stem = tuple(p.pairs())
    if not p.u:
        return CenteredIndex(0, 1, stem, ())
    q = min(c for tw in p.u for c in (tw.phi.total(), score(p, tw.phi) - tw.eps))
    if q <= 0:
        raise ValueError("condition must be valid with positive-mass weights")
    k = -(-q.denominator // q.numerator)  # ceil(1/q)
    return CenteredIndex(len(p.u), k, stem, tuple(tw.eps for tw in p.u))


def merge_same_stem(p: Condition, q: Condition) -> Condition:
    """Compatibility witness for two conditions with identical stems; p's stem is shared."""
    if p.m != q.m or p.h != q.h:
        raise ValueError("conditions do not share a stem")
    return Condition._of({**vars(p), "u": p.u + q.u})
