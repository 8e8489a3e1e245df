"""Exact clopen-set algebra over the space of infinite binary sequences.

Points are infinite 0/1 sequences carrying the fair-coin product measure.
A clopen set is a finite union of cylinders [s] = {x : s is a prefix of x},
held in canonical form: the generating strings form a prefix antichain and
no two sibling generators s0, s1 appear together (they merge to s).  With
that normal form, value equality is set equality and every measure is an
exact fraction with a power-of-two denominator.

Costs, for n generators in all: the constructor, `union` and `intersect`
each sort n strings and make one pass, since in sorted order a string's
extensions come right after it; `complement` visits each proper prefix
once, so it costs the total generator length; `difference` is
`intersect` with a complement.

Plane sets live on the product of two copies of the space.  They are kept
flattened at a uniform resolution (r1, r2): a set of rectangles [s] x [t]
with |s| = r1 and |t| = r2 exactly, built by the constructor from any
rectangles no deeper than the resolution.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain, product
from typing import Iterable

from .errors import FrozenValue


def check_bits(s: str) -> str:
    if not isinstance(s, str) or s.strip("01"):
        raise ValueError(f"not a binary string: {s!r}")
    return s


def _all_bits(*groups: Iterable[str]) -> bool:
    """Whether every string of the groups is a 0/1 string, in C-level passes."""
    try:
        text = "".join(chain(*groups))
    except TypeError:
        return False
    return text.count("0") + text.count("1") == len(text)


def _canonical(gens: Iterable[str]) -> frozenset[str]:
    """Reduce arbitrary generators to the canonical antichain.

    The bits are checked in bulk; only a failing check words its message
    per generator, in input order.  In sorted order every prefix precedes
    its extensions, and s0 (or what it merged into) is the top of the stack
    when s1 arrives, so one pass with a stack absorbs prefixes and merges
    siblings, including merges that cascade upward.
    """
    gens = list(gens)
    if not _all_bits(gens):
        for g in gens:
            check_bits(g)
    out: list[str] = []
    for g in sorted(set(gens)):
        if out and g.startswith(out[-1]):
            continue
        while g.endswith("1") and out and out[-1] == g[:-1] + "0":
            out.pop()
            g = g[:-1]
        out.append(g)
    return frozenset(out)


class ClopenSet(FrozenValue):
    """Canonical finite union of cylinders.  Immutable.

    The constructor canonicalizes whatever generators it is given, so
    non-canonical values are unrepresentable; from_strings is the same
    construction.
    """

    generators: frozenset[str]

    def __init__(self, generators: Iterable[str]) -> None:
        super().__init__(_canonical(generators))

    @classmethod
    def from_strings(cls, gens: Iterable[str]) -> "ClopenSet":
        return cls(gens)

    def is_empty(self) -> bool:
        return not self.generators

    def measure(self) -> Fraction:
        depth = max(map(len, self.generators), default=0)
        return Fraction(sum(1 << (depth - len(s)) for s in self.generators), 1 << depth)

    def union(self, other: "ClopenSet") -> "ClopenSet":
        return ClopenSet.from_strings(self.generators | other.generators)

    def intersect(self, other: "ClopenSet") -> "ClopenSet":
        # in sorted order a generator's extensions follow it; both sets are
        # antichains, so one that extends the last outer generator is in both
        out: list[str] = []
        outer = None
        for g in sorted([*self.generators, *other.generators]):
            if outer is not None and g.startswith(outer):
                out.append(g)
            else:
                outer = g
        return ClopenSet.from_strings(out)

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
        # the missing children of the proper prefixes
        return ClopenSet(
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

