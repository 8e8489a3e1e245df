"""Weighted conditions: weights, scores, validation, extension, certificates."""

import hashlib
import importlib.util
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import chain, product, repeat
from pathlib import Path

import pytest

from forcing_lab import (
    CenteredIndex,
    Certificate,
    ClopenPlaneSet,
    Condition,
    NullSet,
    ScheduledCover,
    ScoreTooLow,
    SearchExhausted,
    TaggedWeight,
    WeightFunction,
    attach_weight,
    avoid_null,
    certificate,
    eval_phi,
    extend_detailed,
    generic_run,
    merge_same_stem,
    phi_from_clopen,
    score,
    sigma_centered_index,
    trivial_condition,
    validate,
)
from forcing_lab import cli, jsonio, oracle, poset
from forcing_lab.cantor import _extensions, check_bits
from forcing_lab.jsonio import condition_to_json, weight_to_json
from forcing_lab.poset import ClauseViolation, _Verdicts, _stem_checks

FULL_W = WeightFunction.full()


def written(tree) -> str:
    """The JSON text that jsonio.write passes to its sink for tree."""
    pieces: list[str] = []
    jsonio.write(tree, pieces.append)
    return "".join(pieces)


def parsed(tree):
    """The JSON that jsonio.write writes of tree, read back."""
    return json.loads(written(tree))


def simple_condition(eps=Fraction(1, 2)):
    return attach_weight(trivial_condition(), eps, FULL_W)


# ---------------------------------------------------------------- weights

def test_weight_table_validation():
    with pytest.raises(ValueError, match=r"table key \('', ''\) off resolution"):
        WeightFunction((1, 0), {("", ""): Fraction(1)})
    with pytest.raises(ValueError, match=r"table value 1/2 outside \(0, 1/4\]"):
        WeightFunction((1, 1), {("0", "0"): Fraction(1, 2)})
    with pytest.raises(ValueError, match="needs positive total mass"):  # no mass at all
        WeightFunction((0, 0), {("", ""): 0})
    with pytest.raises(ValueError, match="needs positive total mass"):
        WeightFunction((0, 0), {})


@pytest.mark.parametrize("bad", [[1], {"p": 1}, "x", None], ids=["list", "dict", "text", "none"])
def test_weight_refuses_a_value_as_fraction_does(bad):
    # the shared value is converted once, keyed by identity, so an
    # unhashable value raises Fraction's own error, not a hashing one
    with pytest.raises(Exception) as expected:
        Fraction(bad)
    with pytest.raises(expected.type, match=re.escape(str(expected.value))):
        WeightFunction((1, 0), {("0", ""): bad, ("1", ""): bad})


def from_table_reference(resolution, table):
    # the cleaning a separate from_table step did before the checking constructor
    clean = {k: f for k, v in table.items() if (f := Fraction(v))}
    return tuple(resolution), clean


@pytest.mark.parametrize("resolution, table", [
    ((0, 0), {("", ""): 1}),
    ([1, 0], {("0", ""): "1/2", ("1", ""): 0}),
    ((1, 1), {("0", "0"): Fraction(1, 4), ("0", "1"): "0/3", ("1", "1"): "1/8"}),
    ((2, 0), {("00", ""): 0, ("01", ""): "1/4", ("10", ""): Fraction(1, 8), ("11", ""): 0}),
], ids=["int", "string-and-zero", "mixed", "zeros-around"])
def test_weight_constructor_cleans_like_from_table(resolution, table):
    phi = WeightFunction(resolution, table)
    assert (phi.resolution, phi.table) == from_table_reference(resolution, table)
    assert all(type(v) is Fraction for v in phi.table.values())
    assert phi == WeightFunction(phi.resolution, phi.table)


@pytest.mark.parametrize("table", [{}, {("0", ""): Fraction(1, 2)}], ids=["empty", "off-key"])
def test_weight_refuses_before_building_the_cap(table):
    # a resolution no key proves must not cost a 2^(m1+m2) denominator
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            WeightFunction((10 ** 7, 0), table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_eval_phi_full():
    assert eval_phi(FULL_W, "", "") == 1
    assert eval_phi(FULL_W, "01", "1") == Fraction(1, 8)


def test_eval_phi_scaled_uniform():
    phi = WeightFunction.scaled_uniform(Fraction(3, 4), (1, 1))
    assert phi.total() == Fraction(3, 4)
    assert eval_phi(phi, "", "") == Fraction(3, 4)
    assert eval_phi(phi, "0", "") == Fraction(3, 8)
    assert eval_phi(phi, "01", "1") == Fraction(3, 4) / 8


def test_phi_from_clopen_matches_overlap():
    f = ClopenPlaneSet.from_rects([("0", "00")]).complement()
    phi = phi_from_clopen(f)
    cells = oracle.plane_cells((1, 2), [("", "")]) - oracle.plane_cells((1, 2), [("0", "00")])
    overlap = oracle.cell_weight((1, 2), cells)
    for s, t in [("", ""), ("0", "0"), ("0", "00"), ("1", ""), ("00", "000")]:
        assert eval_phi(phi, s, t) == oracle.weight_at(overlap, s, t)
    with pytest.raises(NullSet):
        phi_from_clopen(ClopenPlaneSet.from_rects([], (1, 1)))


def lookup_weights(rng):
    """Full, scaled-uniform, seeded random tables (zero and non-dyadic
    values) and cover complements up to (4, 4), each built afresh."""
    yield WeightFunction.full()
    for c, resolution in [(Fraction(3, 4), (0, 0)), (Fraction(5, 8), (1, 2)),
                          (Fraction(1, 3), (2, 1)), (Fraction(7, 8), (3, 3))]:
        yield WeightFunction.scaled_uniform(c, resolution)
    for _ in range(6):
        m1, m2 = rng.randint(0, 3), rng.randint(0, 3)
        cap = 2 ** (m1 + m2)
        table = {(a, b): Fraction(rng.randint(0, 6), rng.choice([6, 7, 8]) * cap)
                 for a in _extensions("", m1) for b in _extensions("", m2)}
        table[rng.choice(sorted(table))] = Fraction(1, cap)  # some mass
        yield WeightFunction((m1, m2), table)
    for m1 in range(5):
        for m2 in range(5):
            cells = sorted(ClopenPlaneSet.from_rects([("", "")], (m1, m2)).rects)
            cover = ClopenPlaneSet.from_rects(
                rng.sample(cells, rng.randint(0, len(cells) - 1)), (m1, m2))
            yield phi_from_clopen(cover.complement())


def test_eval_phi_lookups_match_the_scanning_reference():
    rng = random.Random(41)
    seen = set()
    for phi in lookup_weights(rng):
        m1, m2 = phi.resolution
        weight = weight_to_json(phi)
        for ls in {0, m1 // 2, m1, m1 + 1, m1 + 3}:
            for lt in {0, m2 // 2, m2, m2 + 1, m2 + 3}:
                for _ in range(3):
                    s = format(rng.getrandbits(ls), f"0{ls}b") if ls else ""
                    t = format(rng.getrandbits(lt), f"0{lt}b") if lt else ""
                    want = oracle.weight_at(weight, s, t)
                    assert eval_phi(phi, s, t) == want, (phi.resolution, s, t)
                    assert eval_phi(phi, s, t) == want  # again, from the memo
                    seen.add(((ls > m1) - (ls < m1), (lt > m2) - (lt < m2)))
    assert seen == {(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)}


@pytest.mark.parametrize("m1", [600, 2000])
def test_eval_phi_on_deep_rows_matches_the_scanning_reference(m1):
    # rows deeper than the interpreter's recursion limit, some of them
    # sharing all but their first, second, middle or last bit
    rng = random.Random(m1)
    base = format(rng.getrandbits(m1), f"0{m1}b")
    flipped = [base[:i] + "10"[int(base[i])] + base[i + 1:] for i in (0, 1, m1 // 2, m1 - 1)]
    rows = sorted({base, *flipped, format(rng.getrandbits(m1), f"0{m1}b")})
    table = {(a, b): Fraction(rng.randint(1, 4), 4 << (m1 + 1)) for a in rows for b in "01"}
    phi = WeightFunction((m1, 1), table)
    weight = weight_to_json(phi)
    stray = base[:2] + "10"[int(base[2])] + base[3:m1 // 2]  # under no row
    for s in [stray] + [(a + "01")[:ls] for a in rows
                        for ls in (0, 1, 2, m1 // 2, m1 // 2 + 1, m1 - 1, m1, m1 + 2)]:
        for t in ("", "1", "10"):
            want = oracle.weight_at(weight, s, t)
            assert eval_phi(phi, s, t) == want, (len(s), t)
    assert eval_phi(phi, stray, "") == 0


@pytest.mark.parametrize("s, t", [("2", ""), ("0a", "0"), ("", "01x"), (None, ""), ("0", 1)])
def test_eval_phi_checks_its_strings(s, t):
    phi = WeightFunction.scaled_uniform(Fraction(1, 2), (1, 1))
    eval_phi(phi, "0", "0")  # the truncated pair ("0", "0") is in the memo now
    with pytest.raises(ValueError, match="not a binary string"):
        eval_phi(phi, s, t)


def test_weight_memo_leaves_equality_repr_and_json_alone():
    rng = random.Random(43)
    for phi in lookup_weights(rng):
        copy = WeightFunction(phi.resolution, phi.table)
        before = (repr(phi), json.dumps(weight_to_json(phi)))
        assert "_integer_form" not in vars(phi)
        for s in _extensions("", phi.resolution[0]):
            eval_phi(phi, s, "0")
        assert vars(phi)["_integer_form"][2]  # the memo holds the pairs read
        assert (repr(phi), json.dumps(weight_to_json(phi))) == before
        assert phi == copy and copy == phi


def test_score_of_full_weight_is_one():
    h = {"": "1", "0": "10", "1": "11"}
    assert score(h, FULL_W) == 1


def test_score_grouped_matches_direct():
    rng = random.Random(4)
    phi = WeightFunction.scaled_uniform(Fraction(5, 8), (2, 1))
    h = {"": ""}
    for level in range(4):
        for s in [k for k in list(h) if len(k) == level]:
            for b in "01":
                h[s + b] = h[s] + (b if rng.random() < 0.5 else "")
    tops = {s: v for s, v in h.items() if len(s) == 4}
    assert score(h, phi) == oracle.stem_score(tops, weight_to_json(phi))


# ------------------------------------------------------------- validation

def test_validate_reports_epsilon_range():
    p = Condition(0, {"": ""}, (TaggedWeight(Fraction(1), FULL_W),))
    rep = validate(p)
    assert not rep.ok
    assert rep.first.clause == "epsilon"
    assert "1" in rep.first.detail


def test_validate_reports_low_score():
    phi = WeightFunction.scaled_uniform(Fraction(1, 2))
    p = Condition(0, {"": ""}, (TaggedWeight(Fraction(3, 4), phi),))
    rep = validate(p)
    assert [v.clause for v in rep.violations] == ["score"]


def test_validate_reports_domain_gaps():
    rep = validate(Condition(1, {"": "", "0": ""}, ()))
    assert not rep.ok
    assert rep.first.clause == "domain"


def test_validate_reports_monotonicity():
    rep = validate(Condition(1, {"": "1", "0": "0", "1": "11"}, ()))
    assert not rep.ok
    assert rep.first.clause == "monotone"


def test_validate_reads_parents_without_listing_them():
    # the monotonicity pass cuts each key's parent as it reaches the key;
    # listing all 2^15 parents first held about 1 MB more at once
    keys = [""]
    for level in range(14):
        keys += [k + b for k in keys if len(k) == level for b in "01"]
    p = Condition(14, {s: s[:1] for s in keys}, ())
    tracemalloc.start()
    try:
        assert validate(p).ok
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * 2 ** 20, peak


def complete_keys(depth):
    """Every binary string of length at most depth, level by level."""
    keys = [""]
    for level in range(depth):
        keys += [k + b for k in keys if len(k) == level for b in "01"]
    return keys


@pytest.mark.parametrize("value", [lambda s: s[:1], lambda s: s], ids=["one-bit", "key-copy"])
def test_validate_checks_bits_in_bounded_chunks(value):
    # the bulk bit check joins a bounded chunk of keys or values at a time;
    # joining all 2^15 keys and values at once peaked at 0.97 MB (one-bit
    # values) and 1.35 MB (values copying their keys)
    p = Condition(14, {s: value(s) for s in complete_keys(14)}, ())
    tracemalloc.start()
    try:
        assert validate(p).ok
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.3 * 2 ** 20, peak


def test_validate_refuses_a_bad_value_after_a_chunk_of_empty_ones():
    # a chunk of empty values joins to "", which must not end the bulk check
    keys = complete_keys(12)
    h = dict.fromkeys(keys, "")
    h[keys[-1]] = "2"
    assert len(keys) > 4096
    rep = validate(Condition(12, h, ()))
    assert rep.first == ClauseViolation("domain", "not a binary string: '2'")


def test_attach_weight_guards():
    p = trivial_condition()
    with pytest.raises(ValueError):
        attach_weight(p, Fraction(1), FULL_W)
    with pytest.raises(ScoreTooLow):
        attach_weight(p, Fraction(3, 4), WeightFunction.scaled_uniform(Fraction(1, 2)))


# -------------------------------------------------------------- extension

DEPTH2_STEM = {"": "", "0": "1", "1": "", "00": "1", "01": "10", "10": "0", "11": ""}


@pytest.mark.parametrize("p, levels, grown", [
    (trivial_condition(), None, {"0": "0", "1": "0"}),
    (Condition(2, DEPTH2_STEM, ()), 3, {
        "000": "10", "001": "10", "010": "100", "011": "100",
        "100": "00", "101": "00", "110": "0", "111": "0"}),
], ids=["trivial", "depth2-capped"])
def test_extend_without_weights_grows_one_level(p, levels, grown):
    q, stats = extend_detailed(p, seed=1, max_new_levels=levels)
    assert q.m == p.m + 1
    assert stats.pinned_m_prime == stats.m_prime == p.m + 1
    assert q.h == {**p.h, **grown}  # every new top appends bit 0
    assert stats.retries == [] and stats.exhaustive_stems == []


@pytest.mark.parametrize("levels", [0, -1])
def test_extend_refuses_level_cap_below_one(levels):
    for p in (trivial_condition(), simple_condition()):
        with pytest.raises(ValueError, match="max_new_levels"):
            extend_detailed(p, seed=1, max_new_levels=levels)


def test_extend_structure_and_determinism():
    p = simple_condition()
    q1, _ = extend_detailed(p, seed=5)
    q2, _ = extend_detailed(p, seed=5)
    assert q1 == q2
    assert q1.m == 8  # slack 1/2 and stem sum 2 pin depth 8
    assert validate(q1).ok
    for s in p.h:
        assert q1.h[s] == p.h[s]
    for t in (t for t in q1.h if len(t) == q1.m):
        base = p.h[t[: p.m]]
        assert len(q1.h[t]) == len(base) + 1
        assert q1.h[t].startswith(base)
    assert extend_detailed(p, seed=6)[0] != q1  # another seed lands elsewhere


def test_extend_respects_level_cap():
    p = simple_condition()
    q, stats = extend_detailed(p, seed=5, max_new_levels=2)
    assert q.m == 2
    assert stats.pinned_m_prime == 8
    assert stats.m_prime == 2
    assert validate(q).ok


def first_candidate_fails():
    """The weight of the value half [0] tagged at 7/16: with seed 9 and two
    new levels, the one top's candidate 0 fails its check."""
    return avoid_null(trivial_condition(), ClopenPlaneSet.from_rects([("", "1")]), Fraction(9, 16))


def test_extend_exhaustive_fallback(monkeypatch):
    monkeypatch.setattr(poset, "_RETRY_CAP", 1)
    q, stats = extend_detailed(first_candidate_fails(), seed=9, max_new_levels=2)
    assert stats.exhaustive_stems == [""] and stats.retries == [1]
    assert validate(q).ok


def only_all_ones_passes():
    """The trivial stem with the weights of x-halves [0] and [1] at value bit
    1, each tagged 1/8: of one new level's candidates 0-3, only 3, both new
    tops valued 1, passes both checks (0 and 2 fail weight #0, 1 weight #1)."""
    p = trivial_condition()
    for x in "01":
        p = attach_weight(p, Fraction(1, 8), WeightFunction((1, 1), {(x, "1"): Fraction(1, 4)}))
    return p


def test_extend_fallback_tries_its_last_pattern(monkeypatch):
    monkeypatch.setattr(poset, "_RETRY_CAP", 1)
    q, stats = extend_detailed(only_all_ones_passes(), seed=0, max_new_levels=1)
    assert stats.exhaustive_stems == [""] and stats.retries == [1]
    assert stats.chosen == 3 and stats.scores == (Fraction(1, 2), Fraction(1, 2))
    assert q.h == {"": "", "0": "1", "1": "1"} and validate(q).ok


@pytest.mark.parametrize("retry_cap", [poset._RETRY_CAP, 1], ids=["sampled", "fallback"])
def test_a_class_checks_each_candidate_once(monkeypatch, retry_cap):
    # the 256 tops of a complete depth-8 stem valued "" are one stem class,
    # and about half of them retry: the class's verdicts are kept, a failing
    # one too, so each of the 4 candidates is checked at most once per weight,
    # also when every retrying top walks the exhaustive fallback (cap 1)
    monkeypatch.setattr(poset, "_RETRY_CAP", retry_cap)
    keys = complete_keys(8)
    u = tuple(TaggedWeight(Fraction(1, 4), WeightFunction((0, 1), {("", a): Fraction(1, 16),
                                                                  ("", b): Fraction(7, 16)}))
              for a, b in ("01", "10"))
    p = Condition(8, dict.fromkeys(keys, ""), u)
    checks = [0]
    real = poset._check_sum

    def counting(check, e):
        checks[0] += 1
        return real(check, e)
    monkeypatch.setattr(poset, "_check_sum", counting)
    _, stats = extend_detailed(p, seed=5, max_new_levels=1)
    assert any(stats.retries)
    assert checks[0] <= 4 * 2


def test_extend_search_exhausted_without_fallback(monkeypatch):
    monkeypatch.setattr(poset, "_RETRY_CAP", 1)
    monkeypatch.setattr(poset, "_EXHAUSTIVE_CAP", 0)
    with pytest.raises(SearchExhausted) as info:
        extend_detailed(first_candidate_fails(), seed=9, max_new_levels=2)
    # candidate 0 was the one try, and it failed weight #0
    assert (info.value.stem, info.value.weight_index, info.value.attempts) == ("", 0, 1)


def test_extend_refuses_unmaterializable_depth():
    p = simple_condition(eps=Fraction(2 ** 40 - 1, 2 ** 40))  # sliver of slack
    with pytest.raises(ValueError):
        extend_detailed(p, seed=1)
    q, _ = extend_detailed(p, seed=1, max_new_levels=2)  # capped growth still fine
    assert q.m == 2


def test_extend_refuses_depth_past_the_limit(monkeypatch):
    monkeypatch.setattr(poset, "_MAX_DEPTH", 6)
    g = ClopenPlaneSet.from_rects([("0", "00")])
    with pytest.raises(ValueError, match="max_new_levels"):  # depth 4, then 8
        generic_run([ScheduledCover(g, Fraction(1, 4), 0)], steps=4, seed=2026,
                    max_new_levels=4)
    with pytest.raises(ValueError, match="steps 7"):  # unweighted growth too
        generic_run([], steps=7, seed=1)
    p, _ = generic_run([], steps=6, seed=1)
    assert p.m == 6


def test_generic_run_refuses_steps_past_the_limit_before_extending(monkeypatch):
    monkeypatch.setattr(poset, "_MAX_DEPTH", 3)
    extended = []
    monkeypatch.setattr(poset, "extend_detailed", lambda *a, **k: extended.append(a))
    with pytest.raises(ValueError, match="steps 4"):
        generic_run([], steps=4, seed=1)
    assert extended == []


def test_extend_rejects_invalid_input():
    bad = Condition(0, {"": ""}, (TaggedWeight(Fraction(1), FULL_W),))
    with pytest.raises(ValueError):
        extend_detailed(bad, seed=3)


# ----------------------------------------------- covers and certificates

def test_avoid_null_attaches_complement_weight():
    g = ClopenPlaneSet.from_rects([("0", "00")])
    p = avoid_null(trivial_condition(), g, Fraction(1, 4))
    assert len(p.u) == 1
    assert p.u[0].eps == Fraction(3, 4)
    assert p.u[0].phi.total() == Fraction(7, 8)


def test_avoid_null_rejects_full_cover():
    with pytest.raises(NullSet):
        full_cover = ClopenPlaneSet.from_rects([("", "")], (1, 1))
        avoid_null(trivial_condition(), full_cover, Fraction(1, 2))
    with pytest.raises(ValueError, match="^eps must lie strictly between 0 and 1, got 1$"):
        avoid_null(trivial_condition(), ClopenPlaneSet.from_rects([("0", "00")]), Fraction(1))


def test_certificate_agrees_at_full_depth():
    f = ClopenPlaneSet.from_rects([("0", "00"), ("1", "01")])
    p = Condition(1, {"": "", "0": "00", "1": "01"}, ())
    cert = certificate(p, f)
    assert cert.inside == 1
    assert cert.score_f == 1


def test_certificate_reads_partial_overlap():
    f = ClopenPlaneSet.from_rects([("0", "00")]).complement()
    p = trivial_condition()
    cert = certificate(p, f)
    assert cert.inside == 0  # the whole-space rectangle is not inside f
    assert cert.score_f == Fraction(7, 8)


def random_stem(rng, depth):
    def bits():
        return "".join(rng.choice("01") for _ in range(rng.randint(0, 2)))

    h = {"": bits()}
    for level in range(depth):
        for s in [k for k in h if len(k) == level]:
            for b in "01":
                h[s + b] = h[s] + bits()
    return Condition(depth, h, ())


def test_certificate_matches_overlap_oracle():
    # reference: the stem's score against the weight of the cover's cells,
    # and the measure of the tops whose rectangles lie inside them
    rng = random.Random(11)
    for _ in range(60):
        p = random_stem(rng, rng.randint(0, 5))
        resolution = rng.randint(0, 3), rng.randint(0, 3)
        cells = sorted(oracle.plane_cells(resolution, [("", "")]))
        picked = set(rng.sample(cells, rng.randint(0, len(cells))))
        f = ClopenPlaneSet.from_rects(picked, resolution)
        tops = {s: v for s, v in p.h.items() if len(s) == p.m}
        overlap = oracle.stem_score(tops, oracle.cell_weight(resolution, picked))
        inside = oracle.measure(
            [s for s, v in tops.items() if oracle.plane_contains(resolution, picked, s, v)])
        assert certificate(p, f) == Certificate(inside, overlap)
    empty = ClopenPlaneSet.from_rects([], (1, 1))
    assert certificate(trivial_condition(), empty) == Certificate(0, 0)


def test_certificate_counts_like_per_top_calls():
    # reference: one contains_rect call per top, on stems shallower and
    # deeper than the set's x-resolution
    rng = random.Random(17)
    seen = set()
    for _ in range(80):
        p = random_stem(rng, rng.randint(0, 6))
        r1 = rng.randint(0, 5)
        r2 = rng.randint(0, 6 - r1)
        cells = sorted(ClopenPlaneSet.from_rects([("", "")], (r1, r2)).rects)
        f = ClopenPlaneSet.from_rects(rng.sample(cells, rng.randint(0, len(cells))), (r1, r2))
        inside = Fraction(sum(f.contains_rect(s, p.h[s]) for s in p.tops()), 2 ** p.m)
        assert certificate(p, f).inside == inside
        seen.add(p.m < r1)
    assert seen == {True, False}


def oracle_scores(p):
    """The score of p's stem against each of its weights, by the oracle."""
    tops = {s: v for s, v in p.h.items() if len(s) == p.m}
    return tuple(oracle.stem_score(tops, weight_to_json(tw.phi)) for tw in p.u)


def reference_validate(p):
    # reference: validate with the oracle's score of each weight
    bad = []
    by_level = {}
    domain_ok = True
    for s in p.h:
        try:
            check_bits(s)
            check_bits(p.h[s])
        except ValueError as exc:
            bad.append(ClauseViolation("domain", str(exc)))
            domain_ok = False
            continue
        if len(s) > p.m:
            bad.append(ClauseViolation("domain", f"key {s!r} deeper than m={p.m}"))
            domain_ok = False
        by_level[len(s)] = by_level.get(len(s), 0) + 1
    for level in range(p.m + 1):
        if by_level.get(level, 0) != 2 ** level:
            bad.append(ClauseViolation(
                "domain",
                f"level {level} holds {by_level.get(level, 0)} keys, needs {2 ** level}"))
            domain_ok = False
    if domain_ok:
        for s in p.h:
            if s and not p.h[s].startswith(p.h[s[:-1]]):
                bad.append(ClauseViolation(
                    "monotone",
                    f"h({s!r}) = {p.h[s]!r} does not extend h({s[:-1]!r}) = {p.h[s[:-1]]!r}"))
    scores = oracle_scores(p) if domain_ok else ()
    for i, tw in enumerate(p.u):
        if not 0 < tw.eps < 1:
            bad.append(ClauseViolation(
                "epsilon", f"weight #{i} tag {tw.eps} outside (0,1)"))
            continue
        if domain_ok:
            sc = scores[i]
            if sc <= tw.eps:
                bad.append(ClauseViolation(
                    "score", f"weight #{i} scores {sc}, needs > {tw.eps}"))
    return not bad, tuple(bad), scores


def random_weight(rng):
    kind = rng.choice(["full", "uniform", "cover"])
    if kind == "full":
        return FULL_W
    if kind == "uniform":
        c = Fraction(rng.randint(1, 8), 8)
        return WeightFunction.scaled_uniform(c, (rng.randint(0, 2), rng.randint(0, 2)))
    return cover_weight(rng)


def cover_weight(rng):
    """The weight of the complement of a random proper cell set at
    resolution up to (3, 3)."""
    r1, r2 = rng.randint(0, 3), rng.randint(0, 3)
    cells = sorted(ClopenPlaneSet.from_rects([("", "")], (r1, r2)).rects)
    cover = ClopenPlaneSet.from_rects(rng.sample(cells, rng.randint(0, len(cells) - 1)), (r1, r2))
    return phi_from_clopen(cover.complement())


def perturbed(rng, p):
    """The condition itself and one copy per way of breaking it."""
    h = p.h
    yield p
    keys = list(h)
    dropped = rng.choice(keys)
    yield Condition(p.m, {k: v for k, v in h.items() if k != dropped}, p.u)
    yield Condition(p.m, {**h, "0" * (p.m + 1): h["0" * p.m]}, p.u)
    yield Condition(p.m, {**h, "2": ""}, p.u)
    yield Condition(p.m, {**h, rng.choice(keys): "0a"}, p.u)
    yield Condition(p.m, {**h, 5: "0"}, p.u)
    # values that are not strings stop the bulk bits check at the join
    yield Condition(p.m, {**h, keys[-1]: None}, p.u)
    yield Condition(p.m, {**h, keys[0]: 3}, p.u)
    # deeper keys on both sides of a bad value: violations stay in h's order
    deep0, deep1 = "0" * (p.m + 1), "1" * (p.m + 1)
    yield Condition(p.m, {deep0: h["0" * p.m], **h, keys[-1]: "0a", deep1: h["1" * p.m]}, p.u)
    if p.m:
        s = rng.choice([k for k in keys if k])
        parent = h[s[:-1]] or "0"
        flip = "1" if parent[0] == "0" else "0"
        yield Condition(p.m, {**h, s[:-1]: parent, s: flip + h[s]}, p.u)
        # a non-binary character in a key of the top level
        top = rng.choice([k for k in keys if len(k) == p.m])
        yield Condition(p.m, {(top[:-1] + "x" if k == top else k): v for k, v in h.items()}, p.u)
        # at least two monotone breaks, at the first and last top keys
        broken = dict(h)
        for s in ("0" * p.m, "1" * p.m):
            parent = broken[s[:-1]] = broken[s[:-1]] or "0"
            broken[s] = ("1" if parent[0] == "0" else "0") + h[s]
        yield Condition(p.m, broken, p.u)
    if p.u:
        i = rng.randrange(len(p.u))
        phi = p.u[i].phi
        above = (score(h, phi) + 1) / 2
        for eps in (Fraction(0), Fraction(1), above):
            u = p.u[:i] + (TaggedWeight(eps, phi),) + p.u[i + 1:]
            yield Condition(p.m, h, u)


def test_validate_matches_reference():
    rng = random.Random(29)
    kinds = set()
    for _ in range(150):
        stem = random_stem(rng, rng.randint(0, 6))
        u = []
        for _ in range(rng.randint(0, 3)):
            phi = random_weight(rng)
            u.append(TaggedWeight(score(stem.h, phi) * rng.randint(1, 7) / 8, phi))
        for p in perturbed(rng, Condition(stem.m, stem.h, tuple(u))):
            ok, violations, scores = reference_validate(p)
            rep = validate(p)
            assert (rep.ok, rep.violations, rep.scores) == (ok, violations, scores)
            kinds.update(v.clause for v in violations)
    assert kinds == {"domain", "monotone", "epsilon", "score"}


def test_extend_slack_is_least_over_weights():
    # slacks 1/4 then 1/2: delta = 1/16 over stem sum 2, so 2^-m' < 1/1024
    u = (TaggedWeight(Fraction(1, 2), WeightFunction.scaled_uniform(Fraction(3, 4))),
         TaggedWeight(Fraction(1, 2), FULL_W))
    p = Condition(0, {"": ""}, u)
    assert validate(p).scores == (Fraction(3, 4), Fraction(1))
    _, stats = extend_detailed(p, seed=1, max_new_levels=1)
    assert stats.pinned_m_prime == 11


def stepped_pinned_depth(p):
    """Reference: the least m' > m with 2^-m' < delta^2/(2n), found by
    trying one depth after another."""
    slack = min(sc - tw.eps for sc, tw in zip(validate(p).scores, p.u))
    delta = slack / (2 * sum(2 ** (1 + len(p.h[s])) for s in p.tops()))
    threshold = delta * delta / (2 * len(p.u))
    m2 = p.m + 1
    while Fraction(1, 2 ** m2) >= threshold:
        m2 += 1
    return m2


def test_pinned_depth_matches_the_stepping_reference():
    rng = random.Random(1901)
    for i in range(300):
        h = rng.choice([{"": ""}, DEPTH2_STEM])
        if i < 40:  # slack a power of two, so 1/threshold is one too
            eps = 1 - Fraction(1, 2 ** (i + 1))
        else:
            q = rng.randint(2, 2 ** rng.randint(1, 160))
            eps = Fraction(rng.randint(1, q - 1), q)
        u = (TaggedWeight(eps, FULL_W),)
        if rng.random() < 0.5:
            u += (TaggedWeight(eps * Fraction(3, 4), WeightFunction.scaled_uniform(Fraction(3, 4))),)
        p = Condition(max(map(len, h)), h, u)
        _, stats = extend_detailed(p, seed=i, max_new_levels=1)
        assert stats.pinned_m_prime == stepped_pinned_depth(p), eps


def sparse_stem(rng, depth, rate=0.15):
    """A monotone stem whose values gain a bit with probability rate (0.15
    by default) per level, so many tops keep values shorter than a weight's
    y-resolution and the checks reject candidates."""
    def bits():
        return rng.choice("01") if rng.random() < rate else ""

    h = {"": bits()}
    for level in range(depth):
        for s in [k for k in h if len(k) == level]:
            for b in "01":
                h[s + b] = h[s] + bits()
    return h


class FractionStemSearch:
    """Reference: one stem's search with every check built from scratch by
    the oracle's weight_at and summed in Fraction arithmetic."""

    def __init__(self, weights, s, value, m, m2, delta):
        self.count = 2 ** (m2 - m)
        self.checks = []
        for weight in weights:
            target = oracle.weight_at(weight, s, value) / 2 - delta
            m1 = weight["resolution"][0]
            k = min(max(m1 - m, 0), m2 - m)
            scale = Fraction(1, 2 ** max(0, m2 - m1))
            pairs = []
            for r in range(2 ** k):
                row = s + format(r, f"0{k}b") if k else s[:m1]
                pairs.append((oracle.weight_at(weight, row, value + "0") * scale,
                              oracle.weight_at(weight, row, value + "1") * scale))
            self.checks.append((target, self.count >> k, pairs))

    def first_failing(self, e):
        for idx, (target, block, pairs) in enumerate(self.checks):
            mask = (1 << block) - 1
            acc = Fraction(0)
            for r, (v0, v1) in enumerate(pairs):
                ones = ((e >> (r * block)) & mask).bit_count()
                acc += (block - ones) * v0 + ones * v1
            if acc <= target:
                return idx
        return -1


def new_top_sum(weight, s, value, m2, e):
    """sum over the new tops t of s of weight(t, value + bit(t)) under candidate e."""
    grow = m2 - len(s)
    return sum((oracle.weight_at(weight, s + format(i, f"0{grow}b"), value + str(e >> i & 1))
                for i in range(2 ** grow)), Fraction(0))


def compare_searches(phis, h, m, grow, deltas, seen):
    """Hold the verdict on every candidate of every top of h to the
    reference.  As in the extension, each class's verdicts are built from
    its first top and serve all its tops, so checks shared across stems are
    compared too."""
    tops = sorted(s for s in h if len(s) == m)
    weights = [weight_to_json(phi) for phi in phis]
    keys = list(poset._class_keys(phis, m, 0, [h[s] for s in tops]))
    for delta in deltas:
        classes = {}
        for s, key in zip(tops, keys):
            ref = FractionStemSearch(weights, s, h[s], m, m + grow, delta)
            if key not in classes:
                classes[key] = _Verdicts(_stem_checks(phis, s, h[s], m, m + grow, delta))
            got = classes[key]
            space = range(2 ** ref.count)
            verdicts = [ref.first_failing(e) for e in space]
            assert [got[e][0] for e in space] == verdicts, (m, grow, s, delta)
            seen["branch"].update(m < phi.resolution[0] for phi in phis)
            seen["sign"].update((t > 0) - (t < 0) for t, _, _ in ref.checks)
            if len(set(verdicts)) > 1:
                seen["mixed"].add(grow)


def test_integer_checks_match_fraction_reference():
    rng = random.Random(61)
    seen = {"branch": set(), "sign": set(), "mixed": set()}
    for grow, rounds in ((1, 40), (2, 30), (3, 4)):
        for _ in range(rounds):
            m = rng.randint(0, 3)
            h = sparse_stem(rng, m)
            phis = [random_weight(rng) for _ in range(rng.randint(0, 2))]
            phis.insert(rng.randint(0, len(phis)), cover_weight(rng))
            tops = sorted(s for s in h if len(s) == m)
            halves = [eval_phi(phi, s, h[s]) / 2 for phi in phis for s in tops]
            s0, phi0 = rng.choice(tops), rng.choice(phis)
            on_target = eval_phi(phi0, s0, h[s0]) / 2 - new_top_sum(
                weight_to_json(phi0), s0, h[s0], m + grow, rng.getrandbits(2 ** grow))
            deltas = [Fraction(1, 2 ** 30), min(halves) / 2,
                      max(halves) + Fraction(1, 2 ** 30), on_target]
            compare_searches(phis, h, m, grow, deltas, seen)
    # 2^16 candidates: one stem below a two-row weight, target ~ phi/2
    cover = phi_from_clopen(ClopenPlaneSet.from_rects([("1", "01")], (1, 2)).complement())
    compare_searches([cover], {"": "0"}, 0, 4, [Fraction(1, 2 ** 30)], seen)
    assert seen == {"branch": {True, False}, "sign": {-1, 0, 1}, "mixed": {1, 2, 3, 4}}


DEEP_WEIGHTS = (
    FULL_W,
    WeightFunction.scaled_uniform(Fraction(3, 4), (2, 1)),
    phi_from_clopen(ClopenPlaneSet.from_rects(
        [("010", "1"), ("1", "001"), ("11", "01")], (3, 3)).complement()),
)


@pytest.mark.parametrize("seed, depth, weights, levels, digest", [
    (7, 7, DEEP_WEIGHTS, 1, "6cdd609c3a7b7bd60c6ce6aaae5adf5879a39751d1ac8bfa2c131fe53ab05c84"),
    (7, 7, DEEP_WEIGHTS, 2, "b2edc6875af4cf336d0a482ea45ffc4783e3dfbd18e5b7692588668905f3ad87"),
    (8, 8, DEEP_WEIGHTS[1:], 1, "3dbaf420c15ebaf4d09a8da5cf904f352a2793903805dd9926688f4f00e1969e"),
    (8, 8, DEEP_WEIGHTS[1:], 2, "a3ae3d2d81f3c95f14d642e646769169fce46eb68f45600989df1c3d334e1697"),
], ids=["d7-w3-l1", "d7-w3-l2", "d8-w2-l1", "d8-w2-l2"])
def test_deep_stem_extension_is_pinned(seed, depth, weights, levels, digest):
    # digests of the condition and stats, pinned so the search keeps its
    # choices byte for byte
    h = sparse_stem(random.Random(seed), depth)
    u = tuple(TaggedWeight(score(h, phi) * Fraction(15, 16), phi) for phi in weights)
    p = Condition(depth, h, u)
    q, stats = extend_detailed(p, seed, max_new_levels=levels)
    assert sum(stats.retries) > 0  # some first candidates failed
    text = json.dumps(parsed(condition_to_json(q)), sort_keys=True) + json.dumps(
        [stats.pinned_m_prime, stats.m_prime, list(zip(p.tops(), stats.retries)),
         stats.exhaustive_stems])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_retries_do_not_rest_on_one_stream_draw(monkeypatch):
    # 64 tops valued "" or "0" against the weight of the plane off [""] x [00],
    # tagged at 15/16 of its score: counted over each stem class's whole
    # candidate space, the first candidates are expected to fail 20 times or
    # more, so every run seed retries somewhere
    h = {"".join(b): "0" if b[:1] == ("1",) else ""
         for k in range(7) for b in product("01", repeat=k)}
    phi = phi_from_clopen(ClopenPlaneSet.from_rects([("", "1"), ("", "01")]).complement())
    p = Condition(6, h, (TaggedWeight(score(h, phi) * Fraction(15, 16), phi),))
    built = []
    real = poset._stem_checks
    monkeypatch.setattr(poset, "_stem_checks", lambda *args: built.append(args) or real(*args))
    for run_seed in range(10):
        q, stats = extend_detailed(p, run_seed, max_new_levels=3)
        assert sum(stats.retries) > 0 and stats.exhaustive_stems == []
    phi_list, _, _, m, m2, delta = built[0]
    assert (m, m2) == (6, 9)
    space = range(2 ** 2 ** (m2 - m))
    failing = {}  # per stem class: the share of its candidates that fail
    expected = Fraction(0)
    values = [p.h[s] for s in p.tops()]
    for s, value, key in zip(p.tops(), values, poset._class_keys(phi_list, m, 0, values)):
        if key not in failing:
            verdicts = _Verdicts(real(phi_list, s, value, m, m2, delta))
            failing[key] = Fraction(sum(verdicts[e][0] >= 0 for e in space), len(space))
        expected += failing[key]
    assert len(failing) == 2 and expected >= 20


def reference_search(p, seed, max_new_levels):
    """The per-stem search loop of the earlier extend_detailed on the oracle:
    checks built per stem (FractionStemSearch), candidates hashed per stem,
    then the grown tops' scores.  (m', retries, exhaustive stems, chosen,
    scores), or the SearchExhausted it raises."""
    m, tops = p.m, p.tops()
    weights = [weight_to_json(tw.phi) for tw in p.u]
    slack = min(sc - tw.eps for sc, tw in zip(oracle_scores(p), p.u))
    delta = slack / (2 * sum(2 ** (1 + len(p.h[s])) for s in tops))
    threshold = delta * delta / (2 * len(p.u))
    m2 = max(m + 1, (threshold.denominator // threshold.numerator).bit_length())
    m2 = min(m2, m + max_new_levels)
    count = 2 ** (m2 - m)
    space = 2 ** count if count < 64 and 2 ** count <= poset._EXHAUSTIVE_CAP else 0
    retries, exhaustive, chosen, scores = [], [], [], [Fraction(0)] * len(p.u)
    for t, s in enumerate(tops):
        search = FractionStemSearch(weights, s, p.h[s], m, m2, delta)
        draws = (oracle.candidate(seed, m, m2, t, s, a) for a in range(poset._RETRY_CAP))
        last_fail = 0
        for attempt, e in chain(enumerate(draws), zip(repeat(poset._RETRY_CAP), range(space))):
            last_fail = search.first_failing(e)
            if last_fail < 0:
                break
        else:
            raise SearchExhausted(s, last_fail, poset._RETRY_CAP)
        retries.append(attempt)
        if attempt == poset._RETRY_CAP:
            exhaustive.append(s)
        chosen.append(e)
        for i, weight in enumerate(weights):
            scores[i] += 2 ** (len(p.h[s]) + 1) * new_top_sum(weight, s, p.h[s], m2, e)
    return m2, retries, exhaustive, chosen, tuple(scores)


def test_class_search_matches_per_stem_reference(monkeypatch):
    # stems of one class share their checks and verdicts and one candidate
    # stream; the per-stem loop must choose, retry, fall back and give up
    # exactly alike
    rng = random.Random(2401)
    seen = set()
    for i in range(160):
        retry_cap, exhaustive_cap = rng.choice(
            [(64, 2 ** 20), (2, 2 ** 20), (1, 2 ** 20), (2, 0), (1, 0)])
        monkeypatch.setattr(poset, "_RETRY_CAP", retry_cap)
        monkeypatch.setattr(poset, "_EXHAUSTIVE_CAP", exhaustive_cap)
        # the search counts its tops in runs of _GROUPED: runs of one and of
        # three tops split classes and their shared candidates across runs
        monkeypatch.setattr(poset, "_GROUPED", (1, 3, 2 ** 9)[i % 3])
        if i < 150:
            m = rng.randint(0, 5)
            h = sparse_stem(rng, m, rng.choice([0.15, 0.6]))
            u, n = [], rng.randint(1, 3)
            while len(u) < n:
                phi = random_weight(rng)
                if sc := score(h, phi):
                    u.append(TaggedWeight(sc * rng.choice([Fraction(1, 2), Fraction(15, 16)]), phi))
        else:
            # one class of 32 tops against the value half [0]: a candidate with
            # both new bits 1 fails, so several tops draw it and retry
            m, h = 5, dict.fromkeys(complete_keys(5), "")
            u = [TaggedWeight(Fraction(15, 32), ZERO_HALF)]
        p = Condition(m, h, tuple(u))
        seed, levels = rng.getrandbits(32), rng.randint(1, 3) if i < 150 else 1
        try:
            want = reference_search(p, seed, levels)
        except SearchExhausted as exc:
            with pytest.raises(SearchExhausted) as info:
                extend_detailed(p, seed, max_new_levels=levels)
            got = (info.value.stem, info.value.weight_index, info.value.attempts)
            assert got == (exc.stem, exc.weight_index, exc.attempts)
            seen.add(("exhausted", retry_cap, exhaustive_cap))
            continue
        q, stats = extend_detailed(p, seed, max_new_levels=levels)
        assert (stats.m_prime, stats.retries, stats.exhaustive_stems, patterns(p, stats),
                stats.scores) == want
        assert q.h == reference_growth(p, stats.m_prime, patterns(p, stats))[0]
        seen.add(("weights", len(u)))
        seen.add(("levels", stats.m_prime - m))
        for tw in u:
            m1, r2 = tw.phi.resolution
            seen.add(("stems", "above" if m < m1 else "at or below"))
            seen.update(("values", "shorter" if len(h[s]) < r2 else "not shorter")
                        for s in p.tops())
        seen.update(["retried"] * any(stats.retries) + ["exhaustive"] * bool(
            stats.exhaustive_stems))
        if len(stats.exhaustive_stems) > 1:  # in key order, as the reference appends them
            seen.add("exhaustive stems in key order")
        if any(stats.retries[poset._GROUPED:]):
            seen.add(("retried in a later run of", poset._GROUPED))
        if shares_a_failing_first_candidate(p, seed, stats):
            seen.add("shared failing first candidate")
            if len(p.tops()) > poset._GROUPED:
                seen.add("shared failing first candidate, counted in runs")
    assert seen == {("weights", 1), ("weights", 2), ("weights", 3), ("levels", 1), ("levels", 2),
                    ("levels", 3), ("stems", "above"), ("stems", "at or below"),
                    ("values", "shorter"), ("values", "not shorter"), "retried", "exhaustive",
                    "exhaustive stems in key order",
                    ("exhausted", 1, 0), ("exhausted", 2, 0), ("retried in a later run of", 1),
                    ("retried in a later run of", 3), "shared failing first candidate",
                    "shared failing first candidate, counted in runs"}


# the weight of the value half [0]: a new top valued h(s) + "1" scores 0
ZERO_HALF = phi_from_clopen(ClopenPlaneSet.from_rects([("", "0")]))


def shares_a_failing_first_candidate(p, seed, stats):
    """Whether two or more tops of one stem class drew the same candidate 0
    and it failed (a retried top's candidate 0 failed)."""
    tops = p.tops()
    keys = poset._class_keys([tw.phi for tw in p.u], p.m, 0, [p.h[s] for s in tops])
    failed = Counter(
        (key, oracle.candidate(seed, p.m, stats.m_prime, t, s, 0))
        for t, (s, key) in enumerate(zip(tops, keys))
        if stats.retries[t])
    return any(n > 1 for n in failed.values())


def test_retries_are_reported_by_position_past_the_first_run(tmp_path):
    # a complete depth-10 stem valued "" against the value half [0]: about a
    # quarter of its 1,024 tops draw a failing candidate 0 and retry, in each
    # run of _GROUPED tops, whatever the seed; the report pairs each top with
    # its own retries, and the retries and patterns are the per-stem search's
    u = (TaggedWeight(Fraction(15, 32), ZERO_HALF),)
    p = Condition(10, dict.fromkeys(complete_keys(10), ""), u)
    scenario, out = tmp_path / "scenario.json", tmp_path / "report.json"
    scenario.write_text(written({"condition": condition_to_json(p)}))
    for seed in range(3):
        argv = ["extend", "--seed", str(seed), "--max-new-levels", "1", "-i", str(scenario)]
        assert cli.main(argv + ["-o", str(out)]) == 0
        report = json.loads(out.read_text())["report"]
        q, stats = extend_detailed(p, seed, max_new_levels=1)
        assert len(p.tops()) > poset._GROUPED and any(stats.retries[poset._GROUPED:])
        assert report["stats"]["retries"] == [[s, n] for s, n in zip(p.tops(), stats.retries)]
        m2, retries, _, chosen, _ = reference_search(p, seed, 1)
        assert (m2, stats.retries, patterns(p, stats)) == (q.m, retries, chosen)
        ref = reference_growth(p, m2, chosen)[0]
        assert report["condition"]["h"] == [list(pair) for pair in sorted(ref.items())]


SHAKE_PROBE = """
import json, sys
for name in sys.argv[1:]:
    sys.modules[name] = None  # an import of a None entry raises ImportError
from forcing_lab.poset import _shake
out = [_shake(text, size).hex() for text, size in json.loads(sys.stdin.read())]
print(json.dumps([out, "_hashlib" in sys.modules]))
"""


@pytest.mark.parametrize("blocked", [[], ["_sha3"]], ids=["builtin", "fallback"])
def test_shake_hashes_alike_with_and_without_the_builtin_module(blocked):
    # without the interpreter's own SHAKE-256 the streams come from hashlib,
    # and so from OpenSSL; with it, OpenSSL is never loaded
    if not blocked and importlib.util.find_spec("_sha3") is None:
        pytest.skip("this Python has no built-in _sha3 module")
    pairs = [["0|0|1", 1], ["7|1|2", 2], ["2026|12|15", 1024], ["-1|3|0110|5", 3]]
    done = subprocess.run(
        [sys.executable, "-c", SHAKE_PROBE, *blocked], input=json.dumps(pairs),
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(poset.__file__).resolve().parents[1])})
    assert done.returncode == 0, done.stderr
    out, openssl = json.loads(done.stdout)
    assert out == [hashlib.shake_256(text.encode()).digest(size).hex() for text, size in pairs]
    assert openssl == bool(blocked)


# (top, attempt, e) of the depth-7 stem pinned above, extended with seed 7 by
# 1, 2 and 4 levels (candidates of 2, 4 and 16 bits, read from 1, 1 and 2
# bytes); e is checked against the oracle's candidate, so against hashlib
PINNED_CANDIDATES = {
    1: [("0000000", 0, 2), ("0000001", 0, 3), ("0101010", 2, 2), ("1010011", 3, 2)],
    2: [("0000001", 0, 9), ("0000010", 0, 15), ("1001100", 4, 5), ("1010100", 5, 12)],
    4: [("0000000", 0, 19971), ("0000001", 0, 19215), ("0100001", 1, 47416),
        ("0101000", 3, 27825)],
}


@pytest.mark.parametrize("levels", [1, 2, 4])
def test_extension_draws_the_pinned_stream(levels):
    h = sparse_stem(random.Random(7), 7)
    u = tuple(TaggedWeight(score(h, phi) * Fraction(15, 16), phi) for phi in DEEP_WEIGHTS)
    p = Condition(7, h, u)
    _, stats = extend_detailed(p, 7, max_new_levels=levels)
    tops = p.tops()
    for s, attempt, e in PINNED_CANDIDATES[levels]:
        t = tops.index(s)
        assert oracle.candidate(7, 7, 7 + levels, t, s, attempt) == e
        assert (stats.retries[t], patterns(p, stats)[t]) == (attempt, e)


def test_unretried_layer_of_bytes_is_the_stream():
    # with at least 8 bits per top and no retry, the patterns concatenated
    # in key order, the first top lowest, are the stream read little-endian
    rng = random.Random(3102)
    checked = 0
    for _ in range(40):
        m = rng.randint(0, 3)
        h = sparse_stem(rng, m)
        p = Condition(m, h, seeded_weights(rng, h))
        seed = rng.getrandbits(32)
        q, stats = extend_detailed(p, seed, max_new_levels=rng.randint(3, 5))
        count = 2 ** (q.m - m)
        if count < 8 or any(stats.retries):
            continue
        stream = hashlib.shake_256(f"{seed}|{m}|{q.m}".encode()).digest(2 ** m * count // 8)
        assert q._layers[-1] == (q.m, stats.chosen)
        assert stats.chosen == int.from_bytes(stream, "little")
        checked += 1
    assert checked >= 10


def test_generic_run_steps_extend_with_the_run_seed():
    # each step's layer is the extension, with the run's own seed, of the
    # condition the step started from once its covers attached
    covers = [ClopenPlaneSet.from_rects([("0", "01")], (1, 2)),
              ClopenPlaneSet.from_rects([("10", "1")], (2, 1))]
    schedule = [ScheduledCover(covers[0], Fraction(1, 2), 0),
                ScheduledCover(covers[1], Fraction(1, 2), 2)]
    p, _ = generic_run(schedule, 4, 2026, max_new_levels=2)
    q = trivial_condition()
    for step in range(4):
        for c in schedule:
            if c.at_step == step:
                q = avoid_null(q, c.cover, c.eps)
        q, _ = extend_detailed(q, 2026, max_new_levels=2)
        assert q._layers[-1] == p._layers[step]
    assert q == p


def test_a_depth_18_generic_run_holds_no_pair_per_top():
    # the README cover run to depth 18, 6 steps of 3 levels: every layer is
    # (m', E), two ints, and each level's values are read in bounded runs,
    # so the run peaks at about 1 MiB traced; layers that held their old
    # tops' (top, value) pairs peaked at 6 MiB
    g = ClopenPlaneSet.from_rects([("0", "00")])
    tracemalloc.start()
    try:
        p, _ = generic_run([ScheduledCover(g, Fraction(1, 4), 0)], steps=6, seed=2026)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert p.m == 18 and len(p._layers) == 6
    assert peak < 1.5 * 2 ** 20, peak


def reference_growth(p, m2, chosen):
    """The growth loop of the earlier extend_detailed: one format per key,
    every key of a level at once, then the full validate of the result."""
    h2 = dict(p.h)
    for s, e in zip(p.tops(), chosen):
        base = p.h[s]
        for depth in range(p.m + 1, m2):
            h2.update(dict.fromkeys(_extensions(s, depth), base))
        for i, t in enumerate(_extensions(s, m2)):
            h2[t] = base + ("1" if (e >> i) & 1 else "0")
    rep = validate(Condition(m2, h2, p.u))
    assert rep.ok, rep.first
    return h2, rep.scores


def patterns(p, stats):
    """The pattern accepted for each of p's tops, in key order, read from
    the layer E of p's extension (stats.chosen), 2^(m' - m) bits a top."""
    count = 2 ** (stats.m_prime - p.m)
    return [(stats.chosen >> (t * count)) & ((1 << count) - 1) for t in range(2 ** p.m)]


def seeded_weights(rng, h):
    """One to three full, scaled-uniform or cover-complement weights, each
    tagged below its positive score."""
    u, n = [], rng.randint(1, 3)
    while len(u) < n:
        phi = random_weight(rng)
        sc = score(h, phi)
        if sc:
            u.append(TaggedWeight(sc * rng.randint(1, 4) / 8, phi))
    return tuple(u)


def test_extension_matches_reference_growth():
    rng = random.Random(83)
    branches = set()
    for fresh in [True] * 12 + [False] * 8:
        m = rng.randint(0, 3) if fresh else rng.randint(6, 8)
        h = sparse_stem(rng, m)
        p = Condition(m, h, seeded_weights(rng, h) if rng.random() < 0.9 else ())
        # fresh depths are capped at 12, deep ones grow 1-2 levels
        levels = 12 - m if fresh else rng.randint(1, 2)
        q, stats = extend_detailed(p, rng.getrandbits(32), max_new_levels=levels)
        h2, scores = reference_growth(p, stats.m_prime, patterns(p, stats))
        assert q.h == h2
        assert list(q.h) == sorted(q.h)
        assert stats.scores == scores == validate(q).scores
        branches.update(m < tw.phi.resolution[0] for tw in p.u)
    assert branches == {True, False}


def test_layered_conditions_match_their_materialized_stems():
    # conditions extended 1-3 times by 1-4 levels, some with a tightly tagged
    # weight attached between extensions: each read of the layers against
    # the same read of Condition(q.m, q.h, q.u), and q.h and the wire pairs
    # against a map grown key by key (reference_growth), never from layers
    rng = random.Random(2901)
    chains, retries, resolutions = set(), 0, set()
    for _ in range(30):
        m = rng.randint(0, 3)
        ref = sparse_stem(rng, m)
        q = Condition(m, ref, seeded_weights(rng, ref))
        for step in range(rng.randint(1, 3)):
            if q.m >= 12:
                break
            if step and rng.random() < 0.5:
                phi = cover_weight(rng)
                if sc := score(q, phi):
                    q = attach_weight(q, sc * Fraction(15, 16), phi)
            p = q
            q, stats = extend_detailed(p, rng.getrandbits(32),
                                       max_new_levels=min(rng.randint(1, 4), 12 - p.m))
            ref, scores = reference_growth(Condition(p.m, ref, p.u), q.m, patterns(p, stats))
            retries += sum(stats.retries)
            chains.add(step)
            wire = parsed(condition_to_json(q))["h"]  # written from the layers: h is not built yet
            assert "h" not in vars(q)
            plain = Condition(q.m, q.h, q.u)
            assert q.h == ref and list(q.h) == sorted(ref)
            assert wire == [list(pair) for pair in sorted(ref.items())]
            assert validate(q) == validate(plain) and validate(q).scores == scores
            for phi in [tw.phi for tw in q.u] + [cover_weight(rng) for _ in range(3)]:
                assert score(q, phi) == score(plain, phi) == score(ref, phi)
                resolutions.add(phi.resolution[0])
            assert q.tops() == plain.tops()
            cover = cover_weight(rng)
            f = ClopenPlaneSet.from_rects(list(cover.table), cover.resolution)
            assert certificate(q, f) == certificate(plain, f)
            assert sigma_centered_index(q) == sigma_centered_index(plain)
    assert chains == {0, 1, 2} and resolutions == {0, 1, 2, 3} and retries > 0


WRITER_SHAPES = {**{f"k{k}": (k,) for k in range(1, 13)},
                 "run-2": (3, 3), "run-3": (2, 3, 1), "run-4": (3, 1, 3, 2)}


@pytest.mark.parametrize("shape", WRITER_SHAPES)
def test_stem_text_is_what_json_writes_of_the_grown_pairs(shape):
    # one layer of k levels, k <= _CHUNK a filled template per top and k >
    # _CHUNK one per string of length k - _CHUNK, or 2-4 layers of a run
    # with a cover's complement weight attached between extensions, its
    # table sharing one value: the wire text against json.dumps of the
    # pairs grown key by key (reference_growth), and pairs() and h against
    # those pairs, before and after h is read, and the given stem's own text
    levels = WRITER_SHAPES[shape]
    rng = random.Random(shape)
    m = 0 if sum(levels) > 9 else rng.randint(0, 2)
    ref = sparse_stem(rng, m)
    q = given = Condition(m, ref, (TaggedWeight(score(ref, FULL_W) * Fraction(255, 256), FULL_W),))
    for i, k in enumerate(levels):
        if i:
            q = avoid_null(q, ClopenPlaneSet.from_rects([("1", "010")], (1, 3)), Fraction(1, 2))
        p = q
        q, stats = extend_detailed(p, rng.getrandbits(32), max_new_levels=k)
        assert q.m == p.m + k
        ref = reference_growth(Condition(p.m, ref, p.u), q.m, patterns(p, stats))[0]
    assert len(q._layers) == len(levels)
    if len(levels) > 1:
        assert len(set(map(id, q.u[-1].phi.table.values()))) == 1 < len(q.u[-1].phi.table)
    for cond, pairs in ((given, sorted(given.h.items())), (q, sorted(ref.items()))):
        expected = json.dumps({**condition_to_json(cond), "h": pairs}, sort_keys=True,
                              separators=(",", ":"))
        for _ in range(2):  # h not read yet, then read
            assert written(condition_to_json(cond)) == expected
            assert cond.pairs() == pairs and cond.h == dict(pairs)


@pytest.mark.parametrize("case", range(12))
def test_a_decoded_complete_base_is_written_under_its_layers(case):
    # a decoded complete base of depth 3-6, given in scrambled order, under
    # 1-3 layers of 1-3 levels with a cover's weight attached between them:
    # stem_text cuts the base at its tops, so the wire text is checked
    # against json.dumps of the pairs grown key by key (reference_growth)
    rng = random.Random(f"decoded-{case}")
    m = rng.randint(3, 6)
    ref = sparse_stem(rng, m)
    given = [list(pair) for pair in ref.items()]
    rng.shuffle(given)
    u = (TaggedWeight(score(ref, FULL_W) * Fraction(255, 256), FULL_W),)
    q = jsonio.condition_from_json({**condition_to_json(Condition(m, ref, u)), "h": given})
    levels = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
    for i, k in enumerate(levels):
        if i:
            q = avoid_null(q, ClopenPlaneSet.from_rects([("1", "010")], (1, 3)), Fraction(1, 2))
        p = q
        q, stats = extend_detailed(p, rng.getrandbits(32), max_new_levels=k)
        ref = reference_growth(Condition(p.m, ref, p.u), q.m, patterns(p, stats))[0]
    assert len(q._layers) == len(levels) and "h" not in vars(q)
    expected = json.dumps({**condition_to_json(q), "h": sorted(ref.items())}, sort_keys=True,
                          separators=(",", ":"))
    assert written(condition_to_json(q)) == expected


def test_an_unlayered_stem_that_is_not_complete_is_written_pair_for_pair():
    # only a layered base is complete and so cut at its tops; a condition
    # with no layer may be invalid, and each of its pairs is written
    p = Condition(1, {"": "", "0": "", "1": "", "00": ""})
    assert not validate(p).ok
    assert written(condition_to_json(p)) == (
        '{"h":[["",""],["0",""],["00",""],["1",""]],"m":1,"u":[]}')


def test_a_given_stem_in_scrambled_key_order_reads_as_its_sorted_twin():
    # a given stem is its own base, its pairs sorted on first use: a map
    # listed in scrambled key order gives the pairs, tops, wire form and
    # extension of the same map listed in key order
    rng = random.Random(3001)
    for _ in range(12):
        m = rng.randint(2, 6)
        ref = sparse_stem(rng, m)
        u = seeded_weights(rng, ref)
        items = sorted(ref.items())
        while items == sorted(items):
            rng.shuffle(items)
        scrambled, ordered = Condition(m, dict(items), u), Condition(m, dict(sorted(items)), u)
        assert list(scrambled.h) != sorted(scrambled.h)
        assert scrambled.pairs() == ordered.pairs() == sorted(items)
        assert scrambled.tops() == ordered.tops() == sorted(s for s in ref if len(s) == m)
        assert parsed(condition_to_json(scrambled)) == parsed(condition_to_json(ordered))
        seed, levels = rng.getrandbits(32), rng.randint(1, 3)
        q1, stats1 = extend_detailed(scrambled, seed, max_new_levels=levels)
        q2, stats2 = extend_detailed(ordered, seed, max_new_levels=levels)
        assert (list(zip(scrambled.tops(), patterns(scrambled, stats1)))
                == list(zip(ordered.tops(), patterns(ordered, stats2))))
        assert parsed(condition_to_json(q1))["h"] == parsed(condition_to_json(q2))["h"]
        assert q1.h == reference_growth(scrambled, q1.m, patterns(scrambled, stats1))[0]


def test_extension_post_check_refuses_a_failing_candidate(monkeypatch):
    # the weight of [0] on the value axis: new tops valued h(s) + "1" score 0
    g = ClopenPlaneSet.from_rects([("", "1")])
    p = avoid_null(trivial_condition(), g, Fraction(9, 16))  # score 1/2, tag 7/16
    q, stats = extend_detailed(p, seed=3, max_new_levels=2)
    assert stats.scores == validate(q).scores and stats.scores[0] > Fraction(7, 16)
    real = poset._Verdicts
    ones = 2 ** 2 ** (q.m - p.m) - 1

    def all_ones_accepted(checks):
        assert real(checks)[ones][0] == 0  # the real verdict refuses it
        sums = tuple(poset._check_sum(check, ones) for check in checks)
        return {e: (-1, sums) if e == ones else (0, None) for e in range(ones + 1)}

    monkeypatch.setattr(poset, "_Verdicts", all_ones_accepted)
    with pytest.raises(RuntimeError, match="weight #0 scores 0, needs > 7/16"):
        extend_detailed(p, seed=3, max_new_levels=2)


def test_grown_census_matches_materialized_groups():
    # the census counted from the accepted patterns against _top_groups of
    # the grown stem, at every cut from 0 to past the new depth
    rng = random.Random(89)
    seen = set()
    for _ in range(40):
        m = rng.randint(0, 5)
        h = sparse_stem(rng, m)
        p = Condition(m, h, seeded_weights(rng, h) if rng.random() < 0.85 else ())
        q, stats = extend_detailed(p, rng.getrandbits(32), max_new_levels=rng.randint(1, 3))
        assert q._layers[-1] == (q.m, stats.chosen)
        for cut in range(q.m + 2):
            assert poset._layer_runs(q)[:2] == (m, q.m)
            grown = poset._grown_census(*poset._layer_runs(q), cut)
            assert dict(grown) == dict(poset._top_groups(q.h, q.m, cut)), (m, q.m, cut)
            seen.add((cut > m) + (cut >= q.m))
        seen.add(("weights", bool(p.u)))
    assert seen == {0, 1, 2, ("weights", True), ("weights", False)}


def counted_cuts(monkeypatch) -> list:
    """The cut of each pass over a given stem's tops (_top_groups), in order."""
    cuts = []

    def counting(h, m, cut, real=poset._top_groups):
        cuts.append(cut)
        return real(h, m, cut)
    monkeypatch.setattr(poset, "_top_groups", counting)
    return cuts


def test_a_given_stem_is_counted_once_by_its_readers(monkeypatch):
    # attach_weight counts the tops at x-resolution 2 and keeps the census;
    # validate and a certificate at x-resolution 1 read it again
    rng = random.Random(3501)
    h = sparse_stem(rng, 4, rate=0.5)
    phi = phi_from_clopen(ClopenPlaneSet.from_rects([("01", "1")]).complement())
    f = ClopenPlaneSet.from_rects([("1", "0")]).complement()
    assert (phi.resolution[0], f.resolution[0]) == (2, 1)
    tag = score(h, phi) / 2
    cuts = counted_cuts(monkeypatch)
    p = attach_weight(Condition(4, h), tag, phi)
    rep, cert = validate(p), certificate(p, f)
    assert cuts == [2]
    twin = Condition(4, dict(h), p.u)
    assert rep == validate(twin) and rep.ok and cert == certificate(twin, f)


def test_generic_run_counts_its_trivial_stem_once(monkeypatch):
    # attaching the cover counts the trivial stem's one top; the attach
    # certificate and the first extension's validate read that count
    cuts = counted_cuts(monkeypatch)
    g = ClopenPlaneSet.from_rects([("0", "00")])
    generic_run([ScheduledCover(g, Fraction(1, 4), 0)], steps=3, seed=2026)
    assert cuts == [1]


def test_a_finer_cut_recounts_the_kept_census():
    # a reader at a finer x-resolution than the census kept counts again,
    # for a given stem and an extended one alike, and scores as the sum
    # over the tops of their materialized twins does
    rng = random.Random(3502)
    h = sparse_stem(rng, 5, rate=0.5)

    def weight_at(r):  # of a random quarter of the cells at resolution (r, 2)
        cells = [(format(a, f"0{r}b"), format(b, "02b")) for a in range(2 ** r) for b in range(4)]
        return phi_from_clopen(ClopenPlaneSet.from_rects(rng.sample(cells, 2 ** r), (r, 2)))
    coarse, fine = weight_at(1), weight_at(3)
    p = Condition(5, h, (TaggedWeight(score(h, coarse) / 2, coarse),))
    q, _ = extend_detailed(p, 7, max_new_levels=2)
    for c in (p, Condition(p.m, dict(h), p.u), q):
        twin = Condition(c.m, poset._stem_map(c) if c._layers else c.h)
        want = [sum(2 ** len(v) * eval_phi(phi, s, v) for s, v in twin.h.items() if len(s) == c.m)
                for phi in (coarse, fine)]
        assert [score(c, coarse), score(c, fine), score(c, coarse)] == [*want, want[0]]
        assert c._kept_census[0] == 3


def test_an_extension_counts_its_own_census(monkeypatch):
    # the parent keeps a census before it is extended; the extension's own
    # census, at cuts below and above the parent's, is that of its stem,
    # whether its readers count it from the layer or the search counts it
    # from the runs of tops it reads (census_cut), in runs of 2 tops too
    rng = random.Random(3503)
    kept = set()
    for i in range(24):
        monkeypatch.setattr(poset, "_GROUPED", (2, 2 ** 9)[i % 2])
        m = rng.randint(1, 4)
        h = sparse_stem(rng, m)
        p = Condition(m, h, seeded_weights(rng, h))
        assert validate(p).ok
        kept.add(p._kept_census[0])
        seed, levels = rng.getrandbits(32), rng.randint(1, 2)
        q, _ = extend_detailed(p, seed, max_new_levels=levels)
        stem = poset._stem_map(q)
        for cut in range(q.m + 2):
            assert poset._census(q, cut) == poset._top_groups(stem, q.m, cut), (m, q.m, cut)
            counted, _ = extend_detailed(p, seed, max_new_levels=levels, census_cut=cut)
            assert counted._kept_census == (cut, poset._top_groups(stem, q.m, cut))
    assert {0, 3} <= kept


def test_every_layer_of_an_extended_condition_is_two_ints():
    # a layer is (m', E): no string, tuple or list per top; the tops are
    # implied, and an extension's and a sharing condition's layers are its
    # parent's plus one, the same objects
    rng = random.Random(3504)
    h = sparse_stem(rng, 4)
    p = jsonio.condition_from_json(parsed(condition_to_json(Condition(4, h, seeded_weights(rng, h)))))
    q, stats = extend_detailed(p, rng.getrandbits(32), max_new_levels=2)
    assert p._layers == () and q._layers == ((q.m, stats.chosen),)
    assert p.tops() == sorted(s for s in h if len(s) == 4)
    attached = attach_weight(q, score(q, FULL_W) / 2, FULL_W)
    assert attached._layers is q._layers
    r, _ = extend_detailed(attached, rng.getrandbits(32), max_new_levels=1)
    assert r._layers[:-1] == q._layers and r._layers[0][1] is stats.chosen
    for c in (q, r):
        assert all(len(layer) == 2 and {type(x) for x in layer} == {int} for layer in c._layers)
        assert c.tops() == sorted(s for s in c.h if len(s) == c.m) and len(c.tops()) == 2 ** c.m


def record_conditions(monkeypatch):
    """Spy on generic_run's actions: the condition after each attach and
    each extension, in trace order."""
    conditions = []
    for name in ("avoid_null", "extend_detailed"):
        def spy(*args, real=getattr(poset, name), **kwargs):
            out = real(*args, **kwargs)
            conditions.append(out[0] if isinstance(out, tuple) else out)
            return out
        monkeypatch.setattr(poset, name, spy)
    return conditions


def test_generic_run_certificates_equal_public_certificate(monkeypatch):
    # covers at coarser and finer x-resolutions than the ones attached
    # before them, so the census is reused and recounted
    conditions = record_conditions(monkeypatch)
    rng = random.Random(97)
    finer = set()
    for _ in range(10):
        steps = rng.randint(2, 4)
        schedule = []
        for at in [0] + sorted(rng.sample(range(1, steps), rng.randint(0, steps - 1))):
            r1 = rng.randint(0, 3)
            cell = (format(rng.getrandbits(r1), f"0{r1}b") if r1 else "",
                    format(rng.getrandbits(4 - r1), f"0{4 - r1}b"))
            cover = ClopenPlaneSet.from_rects([cell], (r1, 4 - r1))
            schedule.append(ScheduledCover(cover, Fraction(rng.choice([2, 3]), 4), at))
        finer.update(c.cover.resolution[0] > max(d.cover.resolution[0] for d in schedule[:i])
                     for i, c in enumerate(schedule) if i)
        conditions.clear()
        p, trace = generic_run(schedule, steps, rng.getrandbits(32), max_new_levels=2)
        assert len(conditions) == len(trace) and conditions[-1] is p
        for q, entry in zip(conditions, trace):
            assert entry.certificates == tuple(
                (i, certificate(q, schedule[i].cover.complement())) for i, _ in entry.certificates)
    assert finer == {True, False}


def test_one_cell_8x8_cover_builds_its_weight_once(monkeypatch):
    # the complement of one cell at (8, 8) is a 65,535-entry weight table:
    # built once per run, and read one row of at most 256 entries per miss
    built, read = [], []
    real_phi, real_read = poset.phi_from_clopen, poset._read_row

    def counting_phi(f):
        built.append(f)
        return real_phi(f)

    def counting_read(phi, s1, t1):
        read.append((id(phi), s1, t1, len(phi._integer_form[1].get(s1, ((), ()))[0])))
        return real_read(phi, s1, t1)

    monkeypatch.setattr(poset, "phi_from_clopen", counting_phi)
    monkeypatch.setattr(poset, "_read_row", counting_read)
    cover = ClopenPlaneSet.from_rects([("0" * 8, "0" * 8)])
    p, trace = generic_run([ScheduledCover(cover, Fraction(1, 2), 0)], steps=1, seed=1)
    assert [e.action for e in trace] == ["attach", "extend"]
    assert len(built) == 1
    assert read and len(set(read)) == len(read)
    assert {key[0] for key in read} == {id(p.u[0].phi)}
    assert max(entries for *_, entries in read) <= 256


def test_one_cell_8x8_cover_converts_its_shared_weight_value_once(monkeypatch):
    # phi_from_clopen hands one Fraction to all 65,535 keys of the complement
    made = []
    real = poset.Fraction

    def counting(*args):
        made.append(args)
        return real(*args)

    f = ClopenPlaneSet.from_rects([("0" * 8, "0" * 8)]).complement()
    monkeypatch.setattr(poset, "Fraction", counting)
    phi = phi_from_clopen(f)
    monkeypatch.undo()
    assert len(phi.table) == 2 ** 16 - 1
    assert len({id(v) for v in phi.table.values()}) == 1
    assert len(made) <= 3  # the shared value, its one conversion and the range cap


def test_generic_run_complements_each_cover_once(monkeypatch):
    calls = []
    real = ClopenPlaneSet.complement

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(ClopenPlaneSet, "complement", counting)
    covers = [ClopenPlaneSet.from_rects([(s, t)]) for s, t in (("0", "00"), ("11", "1"), ("1", "0"))]
    generic_run([ScheduledCover(g, Fraction(1, 2), i) for i, g in enumerate(covers)], 3, seed=5)
    assert list(map(id, calls)) == list(map(id, covers))


def test_generic_run_trace_and_invariants():
    g = ClopenPlaneSet.from_rects([("0", "00")])
    p, trace = generic_run([ScheduledCover(g, Fraction(1, 4), 0)], steps=2, seed=2026)
    assert p.m == 6
    assert [e.action for e in trace] == ["attach", "extend", "extend"]
    assert [e.depth for e in trace] == [0, 3, 6]
    floor = Fraction(3, 4)
    for entry in trace:
        for _, cert in entry.certificates:
            assert cert.score_f > floor
    final = trace[-1].certificates[0][1]
    assert final.inside == final.score_f  # depth 6 resolves the (1,2) cover


def test_generic_run_rejects_late_cover():
    g = ClopenPlaneSet.from_rects([("0", "0")])
    with pytest.raises(ValueError):
        generic_run([ScheduledCover(g, Fraction(1, 2), 5)], steps=2, seed=1)


@pytest.mark.parametrize("at_step", [-1, 2], ids=["before", "at-end"])
def test_generic_run_rejects_cover_outside_the_run(at_step):
    g = ClopenPlaneSet.from_rects([("0", "0")])
    with pytest.raises(ValueError, match=f"cover scheduled at step {at_step}, run has 2"):
        generic_run([ScheduledCover(g, Fraction(1, 2), at_step)], steps=2, seed=1)


def test_generic_run_error_carries_step():
    full_cover = ClopenPlaneSet.from_rects([("", "")], (1, 1))
    with pytest.raises(NullSet) as info:
        generic_run([ScheduledCover(full_cover, Fraction(1, 2), 0)], steps=1, seed=1)
    assert info.value.step == 0


# ------------------------------------------------------------ centeredness

def test_sigma_centered_index_example():
    p = simple_condition()  # one weight, eps 1/2, total and score 1
    idx = sigma_centered_index(p)
    assert idx.size == 1
    assert idx.k == 2  # least k with 1/k at most the 1/2 slack
    assert idx.tags == (Fraction(1, 2),)
    assert sigma_centered_index(trivial_condition()) == CenteredIndex(0, 1, (("", ""),), ())
    at_tag = Condition(0, {"": ""}, (TaggedWeight(Fraction(1), FULL_W),))  # score 1, tag 1
    with pytest.raises(ValueError, match="^condition must be valid with positive-mass weights$"):
        sigma_centered_index(at_tag)


def test_same_index_conditions_merge():
    h = {"": "", "0": "0", "1": ""}
    u1 = (TaggedWeight(Fraction(1, 4), WeightFunction.scaled_uniform(Fraction(1, 2), (0, 1))),)
    u2 = (TaggedWeight(Fraction(1, 4), WeightFunction.scaled_uniform(Fraction(1, 2), (1, 1))),)
    p1, p2 = Condition(1, h, u1), Condition(1, h, u2)
    assert sigma_centered_index(p1) == sigma_centered_index(p2)
    merged = merge_same_stem(p1, p2)
    assert validate(merged).ok
    assert len(merged.u) == 2


def test_merging_extended_conditions_matches_merging_their_twins():
    # two equal extended conditions, one layer or two: the merge shares the
    # first one's stem state, as attach_weight does, and equals the merge of
    # their materialized twins
    rng = random.Random(3002)
    for layers in (1, 2):
        h = sparse_stem(rng, 3)
        p = Condition(3, h, seeded_weights(rng, h))
        seeds = [rng.getrandbits(32) for _ in range(layers)]

        def extended():
            q = p
            for seed in seeds:
                q, _ = extend_detailed(q, seed, max_new_levels=2)
            return q

        q1, q2 = extended(), extended()
        merged = merge_same_stem(q1, q2)
        twin = merge_same_stem(Condition(q1.m, q1.h, q1.u), Condition(q2.m, q2.h, q2.u))
        assert merged == twin and merged.u == q1.u + q2.u
        assert merged._layers is q1._layers and len(merged._layers) == layers
        assert merged.pairs() == twin.pairs() == sorted(twin.h.items())
        assert validate(merged) == validate(twin)
        assert parsed(condition_to_json(merged)) == parsed(condition_to_json(twin))
        assert twin.h is q1.h  # a given stem's map is shared, not copied


def test_equal_extensions_merge_as_their_twins_and_unequal_ones_are_refused():
    p = simple_condition()  # one full weight tagged 1/2 pins depth 8
    q1, q2, other = (extend_detailed(p, seed)[0] for seed in (7, 7, 8))
    assert q1.m == other.m == 8
    merged = merge_same_stem(q1, q2)
    assert merged.u == q1.u + q2.u
    assert merged == merge_same_stem(Condition(8, q1.h, q1.u), Condition(8, q2.h, q2.u))
    assert q1.pairs() != other.pairs()
    with pytest.raises(ValueError, match="do not share a stem"):
        merge_same_stem(q1, other)
    assert merge_same_stem(Condition(8, q1.h, ()), q2).u == q2.u  # equal stems, built apart


def test_merge_requires_shared_stem():
    p1 = Condition(1, {"": "", "0": "0", "1": ""}, ())
    p2 = Condition(1, {"": "", "0": "1", "1": ""}, ())
    with pytest.raises(ValueError):
        merge_same_stem(p1, p2)
