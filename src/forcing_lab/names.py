"""Finite-horizon names for integer sequences over the clopen algebra.

A name assigns to each coordinate n below its horizon an exact labeled
clopen partition of the space; the cell with label k is the Boolean value
of "the named function takes value k at n".  Extraction of the heavy
labels per coordinate (those whose cell measure exceeds 1/(n+1)^2) yields
a slalom whose n-th slot has fewer than (n+1)^2 entries, by pigeonhole.

Building a name checks the bits of all its given generators once, then
canonicalizes each given cell in one unchecked sorted pass, with no
ClopenSet construction per cell, and measures it once, keeping the
measure in the cell.  Each coordinate's partition is checked with one
sort of its cells' sorted generator lists, concatenated (Timsort merges
the runs), and one sum of the cells' measures.  A cell given as a
ClopenSet is taken as it is, and measured on first use.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from fractions import Fraction
from itertools import chain

from .cantor import EMPTY, ClopenSet, _antichain, cylinder_mass, generator_collection, require_bits
from .errors import ForcingLabError, FrozenValue


class NotAPartition(ForcingLabError):
    def __init__(self, coordinate, reason: str):
        self.coordinate = coordinate
        self.reason = reason
        super().__init__(f"coordinate {coordinate}: {reason}")


class HorizonExceeded(ForcingLabError):
    pass


class EmptyCondition(ForcingLabError):
    pass


class SlalomViolation(ForcingLabError):
    def __init__(self, coordinate: int, label: int):
        self.coordinate = coordinate
        self.label = label
        super().__init__(
            f"f({coordinate}) = {label} lands in the extracted slalom slot")


def _validate_partition(cells: Sequence[tuple[Hashable, ClopenSet]],
                        runs: Sequence[Iterable[str]], where) -> None:
    """Raise NotAPartition unless the cells, whose generators are `runs` in
    cell order, have distinct labels and partition the space."""
    labels = [lab for lab, _ in cells]
    if len(labels) != len(set(labels)):
        raise NotAPartition(where, "duplicate labels")
    gens = sorted(chain.from_iterable(runs))
    # in sorted order everything between a generator and an extension of it
    # extends it too, so any overlap shows up as an adjacent prefix pair
    if any(map(str.startswith, gens[1:], gens)):
        # name the first overlapping pair in cell order.  The stack holds the
        # chain of earlier generators that prefix g, each with the least cell
        # index on the chain so far, so that cell gives g's first pair.
        pairs, stack = [], []
        for g, i in sorted((g, i) for i, (_, cell) in enumerate(cells) for g in cell.generators):
            while stack and not g.startswith(stack[-1][0]):
                stack.pop()
            least = i
            if stack:
                least = min(i, stack[-1][1])
                pairs.append((least, max(i, stack[-1][1])))
            stack.append((g, least))
        i, j = min(pairs)
        raise NotAPartition(where, f"cells {labels[i]!r} and {labels[j]!r} overlap")
    # the generators are disjoint now, so the cells cover the space exactly
    # when their measures sum to 1, counted at the finest cell's 2^d
    masses = [cell.mass for _, cell in cells]
    whole = max((w for _, w in masses), default=1)
    count = sum([c * (whole // w) for c, w in masses])
    if count != whole:
        raise NotAPartition(where, f"cell measures sum to {Fraction(count, whole)}, expected 1")


class FiniteName(FrozenValue):
    """Validated per-coordinate labeled partitions; construct via make_name."""

    horizon: int
    cells: tuple[tuple[tuple[int, ClopenSet], ...], ...]

    def coordinate(self, n: int) -> tuple[tuple[int, ClopenSet], ...]:
        if not 0 <= n < self.horizon:
            raise HorizonExceeded(f"coordinate {n} outside horizon {self.horizon}")
        return self.cells[n]


def make_name(cells: Iterable[Iterable[tuple[int, ClopenSet | Iterable[str]]]]) -> FiniteName:
    """Build a name from per-coordinate (label, cell) lists, validating that
    each coordinate is an exact partition with distinct int labels.  A cell
    is a ClopenSet, taken as it is, or an iterable of bit strings, which is
    canonicalized.  The bits of every given generator are checked before
    any coordinate, so a bad bit is named ahead of any partition error."""
    coords = [[(lab, cell if isinstance(cell, ClopenSet) else generator_collection(cell))
               for lab, cell in coord] for coord in cells]
    require_bits(*(cell for coord in coords for _, cell in coord
                   if not isinstance(cell, ClopenSet)))
    frozen = []
    for n, coord in enumerate(coords):
        for lab, _ in coord:
            if not isinstance(lab, int):
                raise ValueError(f"coordinate {n}: label {lab!r} is not an int")
        runs = [cell.generators if isinstance(cell, ClopenSet) else _antichain(cell)
                for _, cell in coord]
        coord = tuple((int(lab),  # a bool label reads as 0 or 1
                       cell if isinstance(cell, ClopenSet)
                       else ClopenSet._built(run, cylinder_mass(run)))
                      for (lab, cell), run in zip(coord, runs))
        _validate_partition(coord, runs, n)
        frozen.append(coord)
    return FiniteName(len(frozen), tuple(frozen))


def boolean_value(g: FiniteName, n: int, k: int) -> ClopenSet:
    """The clopen set on which the named function takes value k at n.

    Labels absent from the coordinate have empty Boolean value.
    """
    for lab, cell in g.coordinate(n):
        if lab == k:
            return cell
    return EMPTY


class Slalom(FrozenValue):
    """Per-coordinate finite slots; slot n may hold at most (n+1)^2 labels."""

    slots: tuple[frozenset[int], ...]

    def __init__(self, slots: tuple[frozenset[int], ...]) -> None:
        for n, slot in enumerate(slots):
            if len(slot) > (n + 1) ** 2:
                raise ValueError(
                    f"slot {n} holds {len(slot)} labels, cap is {(n + 1) ** 2}")
        super().__init__(slots)


def slalom_extract(g: FiniteName) -> Slalom:
    """Collect, per coordinate n, the labels whose cell measure exceeds
    1/(n+1)^2.  Disjointness forces strictly fewer than (n+1)^2 of them.
    A cell make_name built carries its measure; it is not computed again."""
    slots = []
    for n in range(g.horizon):
        # count / whole > 1 / (n+1)^2, in integers
        cap = (n + 1) ** 2
        heavy = []
        for lab, cell in g.coordinate(n):
            count, whole = cell.mass
            if count * cap > whole:
                heavy.append(lab)
        slots.append(frozenset(heavy))
    return Slalom(tuple(slots))


def tail_cutoff(mu: Fraction, start: int) -> int:
    """Least integer n above max(start, 1) with 1/(n-1) < mu, for mu > 0."""
    return max(max(start, 1) + 1, mu.denominator // mu.numerator + 2)


def refine_condition(
    p: ClopenSet, g: FiniteName, f: Sequence[int], start: int
) -> tuple[ClopenSet, int]:
    """Shrink p off the Boolean values [[g(k) = f(k)]] for k past a cutoff.

    Requires f to dodge the extracted slalom from coordinate `start` on.
    The cutoff n is the least integer above max(start, 1) whose tail bound
    1/(n-1) drops below the measure of p; since the subtracted cells each
    measure at most 1/(k+1)^2 and their tail sums below 1/(n-1), the
    returned set keeps positive measure.  Returns (q, n).
    """
    mu = p.measure()
    if mu == 0:
        raise EmptyCondition("cannot refine a measure-zero set")
    if len(f) < g.horizon:
        raise ValueError(f"f has {len(f)} entries, horizon is {g.horizon}")
    slalom = slalom_extract(g)
    for k in range(start, g.horizon):
        if f[k] in slalom.slots[k]:
            raise SlalomViolation(k, f[k])
    n = tail_cutoff(mu, start)
    q = p
    for k in range(n, g.horizon):
        q = q.difference(boolean_value(g, k, f[k]))
    return q, n

