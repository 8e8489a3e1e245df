"""Finite interval-cover translation and block-density filter checks.

The cover translation turns a target sequence of interval lengths into the
two derived tolerance sequences used to pick heavy partition intervals:
delta_n is half the minimum of the targets up to index n^3 (kept weakly
decreasing), and delta'_n is half the delta of the odd member of the pair
{2k, 2k+1}, so consecutive even/odd entries agree and sit strictly below
delta.  Flattening the per-level heavy-interval families in level order
then keeps every interval at least as short as its positional target.

The density side works on finite sets of naturals blocked into
[m^2, (m+1)^2): exact block densities, the cube-root thinness bound, the
product lower bound for avoiding a set, and the rapidity count check.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from itertools import accumulate, groupby
from typing import Iterable, Sequence

from .errors import ForcingLabError, FrozenValue


class HorizonTooShort(ForcingLabError):
    pass


class LengthBoundViolated(ForcingLabError):
    def __init__(self, position: int, length: Fraction, bound: Fraction):
        self.position = position
        self.length = length
        self.bound = bound
        super().__init__(
            f"interval #{position} has length {length}, target is {bound}")


class PreconditionFailed(ForcingLabError):
    def __init__(self, witness: int, detail: str):
        self.witness = witness
        self.detail = detail
        super().__init__(detail)


class IntervalSpec(FrozenValue):
    """Half-open subinterval of [0, 1) with exact rational endpoints."""

    left: Fraction
    right: Fraction

    def __init__(self, left: Fraction, right: Fraction) -> None:
        left, right = Fraction(left), Fraction(right)
        if not 0 <= left < right <= 1:
            raise ValueError(f"bad interval [{left}, {right})")
        super().__init__(left, right)

    @property
    def length(self) -> Fraction:
        return self.right - self.left


def cover_translate(
    eps: Sequence[Fraction], horizon: int
) -> tuple[list[Fraction], list[Fraction]]:
    """Derive (delta, delta') of length `horizon` from the targets eps.

    Needs eps defined through index horizon^3 because the last even/odd
    pair reaches delta at index `horizon`, whose minimum runs to horizon^3.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    need = horizon ** 3
    if len(eps) <= need:
        raise HorizonTooShort(
            f"eps has {len(eps)} entries, needs at least {need + 1}")
    eps = [Fraction(e) for e in eps]
    if any(e <= 0 for e in eps):
        raise ValueError("eps entries must be positive")
    prefix = list(accumulate(eps[:need + 1], min))
    delta = [prefix[n ** 3] / 2 for n in range(horizon + 1)]
    delta_prime = [delta[n + 1 - (n % 2)] / 2 for n in range(horizon)]
    return delta[:horizon], delta_prime


def flatten_heavy_intervals(
    heavy: Sequence[Sequence[IntervalSpec]], eps: Sequence[Fraction]
) -> list[IntervalSpec]:
    """Concatenate the per-level heavy families in level order (each level
    sorted by left endpoint) and verify, exactly, that the interval at
    position i is no longer than eps[i]."""
    flat: list[IntervalSpec] = []
    for n, group in enumerate(heavy):
        group = list(group)
        if len(group) >= (n + 1) ** 2:
            raise ValueError(
                f"level {n} holds {len(group)} heavy intervals, cap is "
                f"{(n + 1) ** 2 - 1}")
        flat.extend(sorted(group, key=lambda iv: iv.left))
    if len(eps) < len(flat):
        raise HorizonTooShort(
            f"eps has {len(eps)} entries, flattening produced {len(flat)}")
    for i, iv in enumerate(flat):
        if iv.length > Fraction(eps[i]):
            raise LengthBoundViolated(i, iv.length, Fraction(eps[i]))
    return flat


def _block_density(sorted_a: list[int], m: int) -> Fraction:
    lo = bisect.bisect_left(sorted_a, m * m)
    hi = bisect.bisect_left(sorted_a, (m + 1) * (m + 1))
    return Fraction(hi - lo, 2 * m + 1)


def icbrt(x: int) -> int:
    """Largest r with r^3 <= x, exactly."""
    if x < 0:
        raise ValueError("icbrt needs a nonnegative argument")
    if x < 2 ** 51:
        r = round(x ** (1 / 3))
    else:
        # Newton from above; floor division can overshoot by one at the end
        r = 1 << -(-x.bit_length() // 3)
        while (better := (2 * r + x // (r * r)) // 3) < r:
            r = better
    while r ** 3 > x:
        r -= 1
    while (r + 1) ** 3 <= x:
        r += 1
    return r


class ThinSetVerdict(FrozenValue):
    ok: bool
    max_ratio: Fraction
    witness: int | None


def thin_set_bound_check(a: Iterable[int], blocks: int) -> ThinSetVerdict:
    """For a set with |a intersect [0, n^3)| <= n, every block density is at
    most (floor((m+1)^(2/3)) + 1) / (2m + 1).

    The thinness precondition is checked for every n whose cube can reach
    the inspected blocks; violations raise PreconditionFailed with the
    witnessing n.  Returns the verdict with the largest density attained.
    """
    sorted_a = sorted(set(a))
    if sorted_a and sorted_a[0] < 0:
        raise ValueError("set members must be nonnegative")
    n_limit = icbrt(blocks * blocks) + 1
    # |A intersect [0, n^3)| grows only at n = icbrt(x) + 1 for members x,
    # so the least n that breaks the precondition is one of these
    for n, _ in groupby(icbrt(x) + 1 for x in sorted_a):
        if n > n_limit:
            break
        below = bisect.bisect_left(sorted_a, n ** 3)
        if below > n:
            raise PreconditionFailed(
                n, f"|A intersect [0, {n ** 3})| = {below} exceeds {n}")
    max_ratio = Fraction(0)
    witness = None
    # an empty block has density 0: it neither raises max_ratio nor breaks the bound
    for m, _ in groupby(math.isqrt(x) for x in sorted_a):
        if m >= blocks:
            break
        value = _block_density(sorted_a, m)
        if value > max_ratio:
            max_ratio = value
        bound = Fraction(icbrt((m + 1) ** 2) + 1, 2 * m + 1)
        if value > bound and witness is None:
            witness = m
    return ThinSetVerdict(witness is None, max_ratio, witness)


def product_bound(
    a: Iterable[int], x: Iterable[int], start: int, stop: int
) -> Fraction:
    """Exact product of (1 - density(m)) over m in x with start <= m < stop."""
    sorted_a = sorted(set(a))
    acc = Fraction(1)
    for m in sorted(set(x)):
        if start <= m < stop:
            acc *= 1 - _block_density(sorted_a, m)
    return acc


class RapidityVerdict(FrozenValue):
    ok: bool
    witness: int | None
    counts: tuple[int, ...]


def rapidity_check(
    r: Sequence[int], x: Iterable[int], f: Sequence[int]
) -> RapidityVerdict:
    """Check that the selection A = {r(j) : j in x} stays as sparse as x
    below every checkpoint: |A intersect [0, f(n))| <= |x intersect
    [0, f(n))| <= n.

    r must pick one point from each block, r(j) in [j^2, (j+1)^2), and f
    must be strictly increasing.  A failure of the sparseness hypothesis on
    x raises PreconditionFailed; the conclusion counts are returned.
    """
    for j, v in enumerate(r):
        if not j * j <= v < (j + 1) * (j + 1):
            raise ValueError(f"r({j}) = {v} outside block [{j * j}, {(j + 1) ** 2})")
    xs = sorted(set(x))
    if xs and (xs[0] < 0 or xs[-1] >= len(r)):
        raise ValueError("x must index into r")
    for i in range(1, len(f)):
        if f[i] <= f[i - 1]:
            raise ValueError("f must be strictly increasing")
    for n, cut in enumerate(f):
        have = bisect.bisect_left(xs, cut)
        if have > n:
            raise PreconditionFailed(
                n, f"|x intersect [0, {cut})| = {have} exceeds {n}")
    selected = sorted({r[j] for j in xs})
    counts = []
    witness = None
    for n, cut in enumerate(f):
        got = bisect.bisect_left(selected, cut)
        counts.append(got)
        if got > n and witness is None:
            witness = n
    return RapidityVerdict(witness is None, witness, tuple(counts))
