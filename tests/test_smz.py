"""Cover translation, interval flattening, block density and rapidity."""

import bisect
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcing_lab import (
    IntervalSpec,
    LengthBoundViolated,
    PreconditionFailed,
    cover_translate,
    flatten_heavy_intervals,
    icbrt,
    product_bound,
    rapidity_check,
    thin_set_bound_check,
)
from forcing_lab.smz import HorizonTooShort


def test_interval_spec_validates():
    assert IntervalSpec(Fraction(1, 4), Fraction(1, 2)).length == Fraction(1, 4)
    with pytest.raises(ValueError):
        IntervalSpec(Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        IntervalSpec(Fraction(-1, 2), Fraction(1, 2))


def test_cover_translate_halving_targets():
    horizon = 6
    eps = [Fraction(1, 2 ** n) for n in range(horizon ** 3 + 1)]
    delta, delta_prime = cover_translate(eps, horizon)
    assert delta == [Fraction(1, 2 ** (n ** 3 + 1)) for n in range(horizon)]
    assert delta_prime == [
        Fraction(1, 8), Fraction(1, 8),
        Fraction(1, 2 ** 29), Fraction(1, 2 ** 29),
        Fraction(1, 2 ** 127), Fraction(1, 2 ** 127),
    ]
    for n in range(horizon):
        assert delta_prime[n] < delta[n]
    assert all(x >= y for x, y in zip(delta, delta[1:]))
    assert all(x >= y for x, y in zip(delta_prime, delta_prime[1:]))


def test_cover_translate_keeps_delta_monotone():
    # a target that jumps back up must not drag delta up with it
    eps = [Fraction(1, 64)] + [Fraction(1, 2)] * 30
    delta, _ = cover_translate(eps, 3)
    assert delta == [Fraction(1, 128), Fraction(1, 128), Fraction(1, 128)]


def loop_cover_translate(eps, horizon):
    """Reference: the minimum over eps[:n^3 + 1] recomputed for every n,
    clamped to the previous delta."""
    eps = [Fraction(e) for e in eps]
    delta = []
    for n in range(horizon + 1):
        cap = min(eps[k] for k in range(n ** 3 + 1)) / 2
        if delta and delta[-1] < cap:
            cap = delta[-1]
        delta.append(cap)
    return delta[:horizon], [delta[n + 1 - (n % 2)] / 2 for n in range(horizon)]


@settings(max_examples=200, derandomize=True)
@given(st.integers(min_value=0, max_value=4).flatmap(lambda horizon: st.tuples(
    st.just(horizon),
    st.lists(st.integers(min_value=1, max_value=64),
             min_size=horizon ** 3 + 1, max_size=horizon ** 3 + 4))))
def test_cover_translate_matches_the_recomputed_minimum(case):
    horizon, numerators = case
    eps = [Fraction(k, 64) for k in numerators]
    assert cover_translate(eps, horizon) == loop_cover_translate(eps, horizon)


def test_cover_translate_needs_deep_targets():
    with pytest.raises(HorizonTooShort):
        cover_translate([Fraction(1, 2)] * 27, 3)  # needs index 27


def test_flatten_orders_within_levels():
    far = IntervalSpec(Fraction(1, 2), Fraction(3, 4))
    near = IntervalSpec(0, Fraction(1, 4))
    later = IntervalSpec(0, Fraction(1, 8))
    flat = flatten_heavy_intervals(
        [[], [far, near], [later]], [Fraction(1, 4)] * 4)
    assert flat == [near, far, later]  # level 1 sorted, level 2 after it


def test_flatten_checks_positional_bounds_exactly():
    ok = flatten_heavy_intervals(
        [[], [IntervalSpec(0, Fraction(1, 4))]], [Fraction(1, 4)])
    assert len(ok) == 1  # length equal to the bound passes
    with pytest.raises(LengthBoundViolated) as info:
        flatten_heavy_intervals(
            [[], [IntervalSpec(0, Fraction(1, 2))]], [Fraction(1, 4)])
    assert info.value.position == 0
    assert info.value.length == Fraction(1, 2)
    assert info.value.bound == Fraction(1, 4)


def test_flatten_enforces_level_caps():
    level1 = [IntervalSpec(Fraction(k, 8), Fraction(k + 1, 8)) for k in range(4)]
    with pytest.raises(ValueError):
        flatten_heavy_intervals([[], level1], [Fraction(1)] * 4)


def test_flatten_needs_enough_targets():
    with pytest.raises(HorizonTooShort):
        flatten_heavy_intervals([[], [IntervalSpec(0, Fraction(1, 8))]], [])


def test_density_profile_linear_blocks():
    a = {m * m + t for m in range(10) for t in range(m)}  # m members in block m
    # a product over one block is 1 - its density, 1 - m/(2m + 1)
    assert [product_bound(a, {m}, 0, 10) for m in range(10)] == [
        Fraction(m + 1, 2 * m + 1) for m in range(10)]


def test_product_bound_linear_blocks():
    a = {m * m + t for m in range(10) for t in range(m)}
    value = product_bound(a, {1, 2, 3}, 0, 10)
    assert value == Fraction(2, 3) * Fraction(3, 5) * Fraction(4, 7)
    assert product_bound(a, {1, 2, 3}, 2, 3) == Fraction(3, 5)


@settings(max_examples=60, derandomize=True)
@given(
    st.sets(st.integers(min_value=0, max_value=400), max_size=60),
    st.sets(st.integers(min_value=0, max_value=20), max_size=15),
    st.integers(min_value=0, max_value=5),
)
def test_product_bound_antitone_in_horizon(a, x, start):
    p1 = product_bound(a, x, start, 8)
    p2 = product_bound(a, x, start, 14)
    p3 = product_bound(a, x, start, 21)
    assert p1 >= p2 >= p3
    assert 0 <= p3 <= 1


def test_icbrt_exact():
    assert icbrt(0) == 0
    assert icbrt(7) == 1
    assert icbrt(8) == 2
    big = 10 ** 18
    assert icbrt(big ** 3) == big
    assert icbrt(big ** 3 - 1) == big - 1
    assert icbrt(big ** 3 + 1) == big
    with pytest.raises(ValueError):
        icbrt(-1)


def test_thin_set_bound_for_cubes():
    cubes = {k ** 3 for k in range(100)}
    verdict = thin_set_bound_check(cubes, 1000)
    assert verdict.ok
    assert verdict.witness is None
    assert verdict.max_ratio <= Fraction(2, 1)


def test_thin_set_precondition():
    with pytest.raises(PreconditionFailed):
        thin_set_bound_check(set(range(100)), 20)


def test_rapidity_accepts_sparse_selection():
    r = [j * j for j in range(30)]
    f = [1, 5, 9, 20, 29]
    x = {1, 6, 15}  # one pick per checkpoint gap
    verdict = rapidity_check(r, x, f)
    assert verdict.ok
    assert verdict.counts == (0, 1, 1, 1, 1)  # picks sit at 1, 36, 225


def test_rapidity_precondition_on_dense_selection():
    r = [j * j for j in range(30)]
    with pytest.raises(PreconditionFailed):
        rapidity_check(r, {0, 1, 2}, [1, 5, 9])


def test_rapidity_validates_blocks_and_checkpoints():
    with pytest.raises(ValueError):  # r(1) outside [1, 4)
        rapidity_check([0, 7], {0}, [1])
    with pytest.raises(ValueError):  # f not strictly increasing
        rapidity_check([0, 1], {0}, [2, 2])
    with pytest.raises(ValueError):  # selection indexes past r
        rapidity_check([0, 1], {5}, [1])


def _thin_set_reference(a, blocks):
    """thin_set_bound_check by direct scan: every n up to the limit and
    every block below `blocks`, empty or not."""
    sorted_a = sorted(set(a))
    for n in range(1, icbrt(blocks * blocks) + 2):
        below = bisect.bisect_left(sorted_a, n ** 3)
        if below > n:
            raise PreconditionFailed(
                n, f"|A intersect [0, {n ** 3})| = {below} exceeds {n}")
    max_ratio = Fraction(0)
    witness = None
    for m in range(blocks):
        value = Fraction(bisect.bisect_left(sorted_a, (m + 1) ** 2)
                         - bisect.bisect_left(sorted_a, m * m), 2 * m + 1)
        max_ratio = max(max_ratio, value)
        if value > Fraction(icbrt((m + 1) ** 2) + 1, 2 * m + 1) and witness is None:
            witness = m
    return witness is None, max_ratio, witness


@settings(max_examples=300, derandomize=True)
@given(st.sets(st.one_of(st.integers(0, 30), st.integers(0, 7000)), max_size=40),
       st.integers(0, 80))
def test_thin_set_matches_the_full_scan(a, blocks):
    try:
        expected = _thin_set_reference(a, blocks)
    except PreconditionFailed as exc:
        with pytest.raises(PreconditionFailed) as got:
            thin_set_bound_check(a, blocks)
        assert (got.value.witness, got.value.detail) == (exc.witness, exc.detail)
    else:
        verdict = thin_set_bound_check(a, blocks)
        assert (verdict.ok, verdict.max_ratio, verdict.witness) == expected
