"""Exact clopen-set algebra over the space of infinite binary sequences.

Points are infinite 0/1 sequences carrying the fair-coin product measure.
A clopen set is a finite union of cylinders [s] = {x : s is a prefix of x},
held in canonical form: the generating strings form a prefix antichain and
no two sibling generators s0, s1 appear together (they merge to s).  With
that normal form, value equality is set equality and every measure is an
exact fraction with a power-of-two denominator.

Plane sets live on the product of two copies of the space.  They are kept
flattened at a uniform resolution (r1, r2): a set of rectangles [s] x [t]
with |s| = r1 and |t| = r2 exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable

from .errors import ForcingLabError


class ResolutionTooCoarse(ForcingLabError):
    """Raised when a plane-set query needs more x-bits than were supplied."""


def check_bits(s: str) -> str:
    if not isinstance(s, str) or s.strip("01"):
        raise ValueError(f"not a binary string: {s!r}")
    return s


def _canonical(gens: Iterable[str]) -> frozenset[str]:
    """Reduce arbitrary generators to the canonical antichain.

    In sorted order every prefix precedes its extensions, and s0 (or what
    it merged into) is the top of the stack when s1 arrives, so one pass
    with a stack absorbs prefixes and merges siblings, including merges
    that cascade upward.
    """
    out: list[str] = []
    for g in sorted({check_bits(g) for g in gens}):
        if out and g.startswith(out[-1]):
            continue
        while g.endswith("1") and out and out[-1] == g[:-1] + "0":
            out.pop()
            g = g[:-1]
        out.append(g)
    return frozenset(out)


@dataclass(frozen=True)
class ClopenSet:
    """Canonical finite union of cylinders.  Immutable.

    The constructor canonicalizes whatever generators it is given, so
    non-canonical values are unrepresentable; from_strings and module-level
    canonicalize are the same construction.
    """

    generators: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "generators", _canonical(self.generators))

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
        out = []
        for s in self.generators:
            for t in other.generators:
                if t.startswith(s):
                    out.append(t)
                elif s.startswith(t):
                    out.append(s)
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

    def contains_cylinder(self, s: str) -> bool:
        check_bits(s)
        return any(s.startswith(g) for g in self.generators)

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


def canonicalize(gens: Iterable[str]) -> ClopenSet:
    return ClopenSet.from_strings(gens)


def _extensions(s: str, length: int) -> list[str]:
    """All binary strings of the given length extending s."""
    k = length - len(s)
    if k < 0:
        raise ValueError(f"cannot shorten {s!r} to length {length}")
    if k == 0:
        return [s]
    return [s + format(i, f"0{k}b") for i in range(2 ** k)]


def _flatten(rects: Iterable[tuple[str, str]], r1: int, r2: int) -> frozenset[tuple[str, str]]:
    """Every rectangle at resolution (r1, r2) inside one of the given ones."""
    flat: set[tuple[str, str]] = set()
    for s, t in rects:
        flat.update(product(_extensions(s, r1), _extensions(t, r2)))
    return frozenset(flat)


@dataclass(frozen=True, eq=False)
class ClopenPlaneSet:
    """Finite union of rectangles on the product space, resolution-flat.

    Every stored rectangle (s, t) has |s| = resolution[0] and
    |t| = resolution[1].  Two plane sets are equal when they agree after
    reflattening to the common refinement, so the same point set built at
    different resolutions compares equal.
    """

    resolution: tuple[int, int]
    rects: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        r1, r2 = self.resolution
        if r1 < 0 or r2 < 0:
            raise ValueError("resolution must be nonnegative")
        if not isinstance(self.rects, frozenset):
            object.__setattr__(self, "rects", frozenset(self.rects))
        for s, t in self.rects:
            check_bits(s)
            check_bits(t)
            if len(s) != r1 or len(t) != r2:
                raise ValueError(f"rectangle ({s!r}, {t!r}) off resolution {self.resolution}")

    @classmethod
    def from_rects(
        cls,
        rects: Iterable[tuple[str, str]],
        min_resolution: tuple[int, int] = (0, 0),
    ) -> "ClopenPlaneSet":
        pairs = [(check_bits(s), check_bits(t)) for s, t in rects]
        r1 = max([len(s) for s, _ in pairs] + [min_resolution[0]], default=min_resolution[0])
        r2 = max([len(t) for _, t in pairs] + [min_resolution[1]], default=min_resolution[1])
        return cls((r1, r2), _flatten(pairs, r1, r2))

    @classmethod
    def empty(cls, resolution: tuple[int, int] = (0, 0)) -> "ClopenPlaneSet":
        return cls(resolution, frozenset())

    @classmethod
    def full(cls, resolution: tuple[int, int] = (0, 0)) -> "ClopenPlaneSet":
        return cls(resolution, _flatten([("", "")], *resolution))

    def at_resolution(self, r1: int, r2: int) -> "ClopenPlaneSet":
        if (r1, r2) == self.resolution:
            return self
        if r1 < self.resolution[0] or r2 < self.resolution[1]:
            raise ResolutionTooCoarse(
                f"cannot coarsen resolution {self.resolution} to {(r1, r2)}")
        return ClopenPlaneSet((r1, r2), _flatten(self.rects, r1, r2))

    def _common(self, other: "ClopenPlaneSet") -> tuple["ClopenPlaneSet", "ClopenPlaneSet"]:
        r1 = max(self.resolution[0], other.resolution[0])
        r2 = max(self.resolution[1], other.resolution[1])
        return self.at_resolution(r1, r2), other.at_resolution(r1, r2)

    def measure(self) -> Fraction:
        r1, r2 = self.resolution
        return Fraction(len(self.rects), 2 ** (r1 + r2))

    def union(self, other: "ClopenPlaneSet") -> "ClopenPlaneSet":
        a, b = self._common(other)
        return ClopenPlaneSet(a.resolution, a.rects | b.rects)

    def intersect(self, other: "ClopenPlaneSet") -> "ClopenPlaneSet":
        a, b = self._common(other)
        return ClopenPlaneSet(a.resolution, a.rects & b.rects)

    def difference(self, other: "ClopenPlaneSet") -> "ClopenPlaneSet":
        a, b = self._common(other)
        return ClopenPlaneSet(a.resolution, a.rects - b.rects)

    def complement(self) -> "ClopenPlaneSet":
        everything = _flatten([("", "")], *self.resolution)
        return ClopenPlaneSet(self.resolution, everything - self.rects)

    def contains_rect(self, s: str, t: str) -> bool:
        """Whether the whole rectangle [s] x [t] lies inside this set."""
        check_bits(s)
        check_bits(t)
        r1, r2 = self.resolution
        if len(s) >= r1 and len(t) >= r2:
            return (s[:r1], t[:r2]) in self.rects
        return all(
            (a[:r1], b[:r2]) in self.rects
            for a in _extensions(s, max(len(s), r1))
            for b in _extensions(t, max(len(t), r2))
        )

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

    def section_x(self, s: str) -> ClopenSet:
        """The y-section over the cylinder [s]; needs |s| >= resolution[0]."""
        check_bits(s)
        r1, _ = self.resolution
        if len(s) < r1:
            raise ResolutionTooCoarse(
                f"section needs at least {r1} x-bits, got {len(s)}")
        x = s[:r1]
        return ClopenSet.from_strings(t for a, t in self.rects if a == x)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClopenPlaneSet):
            return NotImplemented
        a, b = self._common(other)
        return a.rects == b.rects

    __hash__ = None  # type: ignore[assignment]

