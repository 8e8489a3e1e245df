"""Exact clopen-set algebra over the space of infinite binary sequences.

Points are infinite 0/1 sequences carrying the fair-coin product measure.
A clopen set is a finite union of cylinders [s] = {x : s is a prefix of x},
held in canonical form: the generating strings form a prefix antichain and
no two sibling generators s0, s1 appear together (they merge to s).  With
that normal form, value equality is set equality and every measure is an
exact fraction with a power-of-two denominator.

Costs, for n generators in all: the constructor and `union` each check
the bits, sort n strings and make one pass, since in sorted order a
string's extensions come right after it.  `intersect` sorts n strings and
makes one pass; `complement` visits each proper prefix once, so it costs
the total generator length; `difference` is `intersect` with a
complement.  The results of those three are canonical as built, so they
skip the constructor's bit check, re-sort and merge pass.  A value's
measure is computed once, on first use, as an integer pair in C-level
passes over the generator lengths.  `names.make_name` checks the bits of
a whole name once and then canonicalizes each cell with the unchecked
pass (`_antichain`), not with one constructor call per cell, and builds
each cell with its measure already computed.

Plane sets live on the product of two copies of the space.  They are kept
flattened at a uniform resolution (r1, r2): a set of rectangles [s] x [t]
with |s| = r1 and |t| = r2 exactly, built by the constructor from any
rectangles no deeper than the resolution.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice, product

from .errors import FrozenValue


def check_bits(s: str) -> str:
    if not isinstance(s, str) or s.strip("01"):
        raise ValueError(f"not a binary string: {s!r}")
    return s


# Strings joined per C-level pass of _all_bits: the check holds one chunk's
# join at a time, not a copy of every string it checks.
_BITS_CHUNK = 4096


def _all_bits(*groups: Iterable[str]) -> bool:
    """Whether every string of the groups is a 0/1 string, in C-level passes
    over chunks of _BITS_CHUNK strings.  The loop runs until the strings
    run out: a chunk of empty strings joins to "" and ends nothing."""
    strings = chain(*groups)
    while chunk := list(islice(strings, _BITS_CHUNK)):
        try:
            text = "".join(chunk).encode("ascii")
        except (TypeError, UnicodeEncodeError):
            return False
        if text.translate(None, b"01"):  # what is left once the bits are deleted
            return False
    return True


def require_bits(*groups: Iterable[str]) -> None:
    """Raise ValueError naming the first string of the groups, in order, that
    is not a 0/1 string.  The check is _all_bits; only a failing one words
    its message per string, so the groups must be iterable twice."""
    if not _all_bits(*groups):
        for g in chain(*groups):
            check_bits(g)


def generator_collection(gens: Iterable[str]) -> Collection[str]:
    """The generators as a collection that can be read twice: a list,
    tuple or frozenset as given, any other iterable as a new list.  A bare
    string is refused: it would iterate as its characters, each a one-bit
    generator."""
    if isinstance(gens, (list, tuple, frozenset)):
        return gens
    if isinstance(gens, str):
        raise ValueError(f"generators must be an iterable of bit strings, not the string {gens!r}")
    return list(gens)


def cylinder_mass(gens: Iterable[str]) -> tuple[int, int]:
    """The total measure of the cylinders [s], s in gens, as (count, 2^d)
    with d the greatest length: the sum of 2^-|s| is count / 2^d.  It is
    the measure of their union when they are disjoint."""
    lengths = list(map(len, gens))
    whole = 1 << max(lengths, default=0)
    return sum(map(whole.__rshift__, lengths)), whole  # 2^d >> |s| == 2^(d - |s|)


def _antichain(gens: Iterable[str]) -> list[str]:
    """The canonical antichain of 0/1 strings, whose bits are not checked.

    In sorted order every prefix precedes its extensions, and s0 (or what
    it merged into) is the top of the stack when s1 arrives, so one pass
    with a stack absorbs prefixes and repeats, which are prefixes of
    themselves, and merges siblings, including merges that cascade upward.
    """
    out: list[str] = []
    top = "-"  # out[-1], or a string that prefixes no bit string
    for g in sorted(gens):
        if g.startswith(top):
            continue
        while top == g[:-1] + "0" and g[-1:] == "1":
            out.pop()
            g = g[:-1]
            top = out[-1] if out else "-"
        out.append(g)
        top = g
    return out


def _canonical(gens: Iterable[str]) -> frozenset[str]:
    """Reduce arbitrary generators to the canonical antichain.

    The bits are checked in bulk; only a failing check words its message
    per generator, in input order.
    """
    gens = generator_collection(gens)
    require_bits(gens)
    return frozenset(_antichain(gens))


class ClopenSet(FrozenValue):
    """Canonical finite union of cylinders.  Immutable.

    The constructor canonicalizes whatever iterable of bit strings it is
    given (a bare string is refused), so non-canonical values are
    unrepresentable; from_strings is the same construction.
    """

    generators: frozenset[str]

    def __init__(self, generators: Iterable[str]) -> None:
        super().__init__(_canonical(generators))

    @classmethod
    def from_strings(cls, gens: Iterable[str]) -> "ClopenSet":
        return cls(gens)

    @classmethod
    def _built(cls, antichain: Iterable[str], mass: tuple[int, int] | None = None) -> "ClopenSet":
        """The value of generators already in canonical form, unchecked: its
        one field is stored directly, as FrozenValue.__init__ would, and so
        is its mass when the caller has it (cylinder_mass of the antichain)."""
        value = object.__new__(cls)
        value.__dict__["generators"] = frozenset(antichain)
        if mass is not None:
            value.__dict__["mass"] = mass
        return value

    def is_empty(self) -> bool:
        return not self.generators

    @cached_property
    def mass(self) -> tuple[int, int]:
        """The measure as (count, 2^d), d the longest generator's length."""
        return cylinder_mass(self.generators)

    def measure(self) -> Fraction:
        return Fraction(*self.mass)

    def union(self, other: "ClopenSet") -> "ClopenSet":
        return ClopenSet(self.generators | other.generators)

    def intersect(self, other: "ClopenSet") -> "ClopenSet":
        # in sorted order a generator's extensions follow it; both sets are
        # antichains, so one that extends the last outer generator is in both.
        # The result is canonical as built: two results that are siblings or
        # a prefix pair would extend one outer generator, so both would come
        # from the other set, a canonical antichain
        out: list[str] = []
        outer = None
        for g in sorted([*self.generators, *other.generators]):
            if outer is not None and g.startswith(outer):
                out.append(g)
            else:
                outer = g
        return ClopenSet._built(out)

    def complement(self) -> "ClopenSet":
        if self.is_empty():
            return FULL
        gens = self.generators
        # proper prefixes, longest first: once one is known, so are the rest
        inner: set[str] = set()
        for g in gens:
            for i in range(len(g) - 1, -1, -1):
                if g[:i] in inner:
                    break
                inner.add(g[:i])
        # the missing children of the proper prefixes: canonical as built,
        # since none is a proper prefix, and both children of a proper prefix
        # missing would leave no generator below it
        return ClopenSet._built(
            p + b for p in inner for b in "01"
            if p + b not in inner and p + b not in gens)

    def difference(self, other: "ClopenSet") -> "ClopenSet":
        return self.intersect(other.complement())

    def __or__(self, other: "ClopenSet") -> "ClopenSet":
        return self.union(other)

    def __and__(self, other: "ClopenSet") -> "ClopenSet":
        return self.intersect(other)

    def __sub__(self, other: "ClopenSet") -> "ClopenSet":
        return self.difference(other)

    def __invert__(self) -> "ClopenSet":
        return self.complement()


EMPTY = ClopenSet(frozenset())
FULL = ClopenSet(frozenset([""]))


def _extensions(s: str, length: int) -> list[str]:
    """All binary strings of the given length extending s."""
    k = length - len(s)
    if k < 0:
        raise ValueError(f"cannot shorten {s!r} to length {length}")
    if k == 0:
        return [s]
    return [s + format(i, f"0{k}b") for i in range(2 ** k)]


# A flat plane set may hold 2^(r1 + r2) cells; refuse more than 2^16 of them.
_MAX_PLANE_BITS = 16


def _flatten(rects: Iterable[tuple[str, str]], r1: int, r2: int) -> frozenset[tuple[str, str]]:
    """Every rectangle at resolution (r1, r2) inside one of the given ones,
    none of which may be deeper than (r1, r2).  Each distinct string of the
    given rectangles is checked once; the cells built from them need no check."""
    if r1 + r2 > _MAX_PLANE_BITS:
        raise ValueError(
            f"plane resolution ({r1}, {r2}) exceeds {_MAX_PLANE_BITS} bits in total")
    rects = list(rects)
    for s in dict.fromkeys(chain.from_iterable(rects)):
        check_bits(s)
    flat: set[tuple[str, str]] = set()
    for s, t in rects:
        if len(s) == r1 and len(t) == r2:
            flat.add((s, t))
        elif len(s) > r1 or len(t) > r2:
            raise ValueError(f"rectangle ({s!r}, {t!r}) deeper than resolution ({r1}, {r2})")
        else:
            flat.update(product(_extensions(s, r1), _extensions(t, r2)))
    return frozenset(flat)


class ClopenPlaneSet(FrozenValue):
    """Finite union of rectangles on the product space, resolution-flat.

    The constructor flattens the given rectangles, none deeper than the
    resolution, so every stored rectangle (s, t) has |s| = resolution[0]
    and |t| = resolution[1].  Two plane sets are equal when they agree
    after reflattening to the common refinement, so the same point set
    built at different resolutions compares equal.
    """

    resolution: tuple[int, int]
    rects: frozenset[tuple[str, str]]

    def __init__(self, resolution: tuple[int, int], rects: Iterable[tuple[str, str]]) -> None:
        r1, r2 = resolution
        if r1 < 0 or r2 < 0:
            raise ValueError("resolution must be nonnegative")
        super().__init__((r1, r2), _flatten(rects, r1, r2))

    @classmethod
    def from_rects(
        cls,
        rects: Iterable[tuple[str, str]],
        min_resolution: tuple[int, int] = (0, 0),
    ) -> "ClopenPlaneSet":
        rects = list(rects)
        r1 = max([min_resolution[0], *(len(s) for s, _ in rects)])
        r2 = max([min_resolution[1], *(len(t) for _, t in rects)])
        return cls((r1, r2), rects)

    def measure(self) -> Fraction:
        r1, r2 = self.resolution
        return Fraction(len(self.rects), 2 ** (r1 + r2))

    def complement(self) -> "ClopenPlaneSet":
        """The complement at the same resolution, computed once per set."""
        return self._complement

    @cached_property
    def _complement(self) -> "ClopenPlaneSet":
        everything = _flatten([("", "")], *self.resolution)
        return ClopenPlaneSet(self.resolution, everything - self.rects)

    def contains_rect(self, s: str, t: str) -> bool:
        """Whether the whole rectangle [s] x [t] lies inside this set."""
        check_bits(s)
        check_bits(t)
        r1, r2 = self.resolution
        if len(s) >= r1 and len(t) >= r2:
            return (s[:r1], t[:r2]) in self.rects
        return _flatten([(s[:r1], t[:r2])], r1, r2) <= self.rects

    def rect_overlap_measure(self, s: str, t: str) -> Fraction:
        """Exact measure of ([s] x [t]) intersected with this set."""
        check_bits(s)
        check_bits(t)
        r1, r2 = self.resolution
        d1 = max(len(s), r1)
        d2 = max(len(t), r2)
        cell = Fraction(1, 2 ** (d1 + d2))
        count = 0
        for a, b in self.rects:
            if (a.startswith(s) or s.startswith(a)) and (b.startswith(t) or t.startswith(b)):
                count += 1
        return count * cell

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClopenPlaneSet):
            return NotImplemented
        r1 = max(self.resolution[0], other.resolution[0])
        r2 = max(self.resolution[1], other.resolution[1])
        return _flatten(self.rects, r1, r2) == _flatten(other.rects, r1, r2)

    __hash__ = None  # type: ignore[assignment]

