"""Weighted conditions: weights, scores, validation, extension, certificates."""

import hashlib
import json
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from forcing_lab import (
    Certificate,
    ClopenPlaneSet,
    ClopenSet,
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
from forcing_lab import poset
from forcing_lab.cantor import _extensions, check_bits
from forcing_lab.jsonio import condition_to_json, weight_to_json
from forcing_lab.poset import ClauseViolation, _stem_searches

FULL_W = WeightFunction.full()


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
    for s, t in [("", ""), ("0", "0"), ("0", "00"), ("1", ""), ("00", "000")]:
        assert eval_phi(phi, s, t) == f.rect_overlap_measure(s, t)
    with pytest.raises(NullSet):
        phi_from_clopen(ClopenPlaneSet.from_rects([], (1, 1)))


def scanning_eval_phi(phi, s, t):
    """Reference: the weight at (s, t) from a Fraction scan of the whole
    table on every call."""
    check_bits(s)
    check_bits(t)
    m1, m2 = phi.resolution
    acc = Fraction(0)
    for (a, b), v in phi.table.items():
        if (a.startswith(s) or s.startswith(a)) and (b.startswith(t) or t.startswith(b)):
            acc += v
    shift = max(0, len(s) - m1) + max(0, len(t) - m2)
    return acc / 2 ** shift if shift else acc


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
        for ls in {0, m1 // 2, m1, m1 + 1, m1 + 3}:
            for lt in {0, m2 // 2, m2, m2 + 1, m2 + 3}:
                for _ in range(3):
                    s = format(rng.getrandbits(ls), f"0{ls}b") if ls else ""
                    t = format(rng.getrandbits(lt), f"0{lt}b") if lt else ""
                    want = scanning_eval_phi(phi, s, t)
                    assert eval_phi(phi, s, t) == want, (phi.resolution, s, t)
                    assert eval_phi(phi, s, t) == want  # again, from the memo
                    seen.add(((ls > m1) - (ls < m1), (lt > m2) - (lt < m2)))
    assert seen == {(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)}


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
    tops = [s for s in h if len(s) == 4]
    direct = sum((2 ** len(h[s]) * eval_phi(phi, s, h[s]) for s in tops), Fraction(0))
    assert score(h, phi) == direct


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
    assert stats.retries == {} and stats.exhaustive_stems == []


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


def test_extend_exhaustive_fallback(monkeypatch):
    monkeypatch.setattr(poset, "_RETRY_CAP", 0)
    p = simple_condition()
    q, stats = extend_detailed(p, seed=5, max_new_levels=2)
    assert stats.exhaustive_stems == [""]
    assert validate(q).ok


def test_extend_search_exhausted_without_fallback(monkeypatch):
    monkeypatch.setattr(poset, "_RETRY_CAP", 0)
    monkeypatch.setattr(poset, "_EXHAUSTIVE_CAP", 0)
    p = simple_condition()
    with pytest.raises(SearchExhausted):
        extend_detailed(p, seed=5, max_new_levels=2)


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
    # reference: per-top rectangle overlaps, and the canonical measure of
    # the inside tops as a clopen set
    rng = random.Random(11)
    for _ in range(60):
        p = random_stem(rng, rng.randint(0, 5))
        r1, r2 = rng.randint(0, 3), rng.randint(0, 3)
        cells = sorted(ClopenPlaneSet.from_rects([("", "")], (r1, r2)).rects)
        f = ClopenPlaneSet.from_rects(
            rng.sample(cells, rng.randint(0, len(cells))), (r1, r2))
        tops = p.tops()
        overlap = sum(
            (2 ** len(p.h[s]) * f.rect_overlap_measure(s, p.h[s]) for s in tops),
            Fraction(0))
        inside = ClopenSet.from_strings(
            [s for s in tops if f.contains_rect(s, p.h[s])]).measure()
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


def reference_validate(p):
    # reference: validate with one score() call per weight over the whole stem
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
    for i, tw in enumerate(p.u):
        if not 0 < tw.eps < 1:
            bad.append(ClauseViolation(
                "epsilon", f"weight #{i} tag {tw.eps} outside (0,1)"))
            continue
        if domain_ok:
            sc = score(p.h, tw.phi)
            if sc <= tw.eps:
                bad.append(ClauseViolation(
                    "score", f"weight #{i} scores {sc}, needs > {tw.eps}"))
    return not bad, tuple(bad), domain_ok


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
    # deeper keys on both sides of a bad value: violations stay in key order
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
            ok, violations, domain_ok = reference_validate(p)
            rep = validate(p)
            assert (rep.ok, rep.violations) == (ok, violations)
            expected = tuple(score(p.h, tw.phi) for tw in p.u) if domain_ok else ()
            assert rep.scores == expected
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


def sparse_stem(rng, depth):
    """A monotone stem whose values gain a bit with probability 0.15 per
    level, so many tops keep values shorter than a weight's y-resolution
    and the checks reject candidates."""
    def bits():
        return rng.choice("01") if rng.random() < 0.15 else ""

    h = {"": bits()}
    for level in range(depth):
        for s in [k for k in h if len(k) == level]:
            for b in "01":
                h[s + b] = h[s] + bits()
    return h


class FractionStemSearch:
    """Reference: one stem's search with every check built from scratch and
    summed in Fraction arithmetic."""

    def __init__(self, phi_list, s, value, m, m2, delta):
        self.count = 2 ** (m2 - m)
        self.checks = []
        for phi in phi_list:
            target = eval_phi(phi, s, value) / 2 - delta
            m1 = phi.resolution[0]
            k = min(max(m1 - m, 0), m2 - m)
            scale = Fraction(1, 2 ** max(0, m2 - m1))
            pairs = []
            for r in range(2 ** k):
                row = s + format(r, f"0{k}b") if k else s[:m1]
                pairs.append((eval_phi(phi, row, value + "0") * scale,
                              eval_phi(phi, row, value + "1") * scale))
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


def new_top_sum(phi, s, value, m2, e):
    """sum over the new tops t of s of phi(t, value + bit(t)) under candidate e."""
    grow = m2 - len(s)
    return sum((eval_phi(phi, s + format(i, f"0{grow}b"), value + str(e >> i & 1))
                for i in range(2 ** grow)), Fraction(0))


def compare_searches(phis, h, m, grow, deltas, seen):
    """Hold the verdict on every candidate of every top of h to the
    reference.  One builder serves all tops of a delta, so checks shared
    across stems are compared too."""
    tops = sorted(s for s in h if len(s) == m)
    for delta in deltas:
        search = _stem_searches(phis, m, m + grow, delta)
        for s in tops:
            ref = FractionStemSearch(phis, s, h[s], m, m + grow, delta)
            got, _ = search(s, h[s])
            space = range(2 ** ref.count)
            verdicts = [ref.first_failing(e) for e in space]
            assert [got(e) for e in space] == verdicts, (m, grow, s, delta)
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
                phi0, s0, h[s0], m + grow, rng.getrandbits(2 ** grow))
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
    (7, 7, DEEP_WEIGHTS, 1, "7bc4ffabbffd3677e030039ef1e3da30097515f9097224d1232d2fd320d38f65"),
    (7, 7, DEEP_WEIGHTS, 2, "704c0a9fb181bfcd03052e3f641dd7d67dd9406ef70b039a2d8f39cc810ce689"),
    (8, 8, DEEP_WEIGHTS[1:], 1, "86482b3be3b14cb66215a70587b84e9c8ec2006fc12e9e936f8b1b10cc1145ba"),
    (8, 8, DEEP_WEIGHTS[1:], 2, "5cf3038bdde3febdd6e56894756a1e2094ea298c357b6847c9d5708b78a10708"),
], ids=["d7-w3-l1", "d7-w3-l2", "d8-w2-l1", "d8-w2-l2"])
def test_deep_stem_extension_is_pinned(seed, depth, weights, levels, digest):
    # digests of the condition and stats, pinned so the search keeps its
    # choices byte for byte
    h = sparse_stem(random.Random(seed), depth)
    u = tuple(TaggedWeight(score(h, phi) * Fraction(15, 16), phi) for phi in weights)
    q, stats = extend_detailed(Condition(depth, h, u), seed, max_new_levels=levels)
    assert sum(stats.retries.values()) > 0  # some first candidates failed
    text = json.dumps(condition_to_json(q), sort_keys=True) + json.dumps(
        [stats.pinned_m_prime, stats.m_prime, sorted(stats.retries.items()),
         stats.exhaustive_stems])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def record_accepted(monkeypatch):
    """Spy on the stem searches: the candidate each stem accepted."""
    accepted = {}
    real = poset._stem_searches

    def spy(phi_list, m, m2, delta):
        search = real(phi_list, m, m2, delta)

        def stem(s, value):
            first_failing, sums = search(s, value)

            def verdict(e):
                idx = first_failing(e)
                if idx < 0:
                    accepted[s] = e
                return idx

            return verdict, sums

        return stem

    monkeypatch.setattr(poset, "_stem_searches", spy)
    return accepted


def reference_growth(p, m2, accepted):
    """The growth loop of the earlier extend_detailed: one format per key,
    every key of a level at once, then the full validate of the result."""
    h2 = dict(p.h)
    for s in p.tops():
        e, base = accepted.get(s, 0), p.h[s]
        for depth in range(p.m + 1, m2):
            h2.update(dict.fromkeys(_extensions(s, depth), base))
        for i, t in enumerate(_extensions(s, m2)):
            h2[t] = base + ("1" if (e >> i) & 1 else "0")
    rep = validate(Condition(m2, h2, p.u))
    assert rep.ok, rep.first
    return h2, rep.scores


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


def test_extension_matches_reference_growth(monkeypatch):
    accepted = record_accepted(monkeypatch)
    rng = random.Random(83)
    branches = set()
    for fresh in [True] * 12 + [False] * 8:
        m = rng.randint(0, 3) if fresh else rng.randint(6, 8)
        h = sparse_stem(rng, m)
        p = Condition(m, h, seeded_weights(rng, h) if rng.random() < 0.9 else ())
        accepted.clear()  # fresh depths are capped at 12, deep ones grow 1-2 levels
        levels = 12 - m if fresh else rng.randint(1, 2)
        q, stats = extend_detailed(p, rng.getrandbits(32), max_new_levels=levels)
        h2, scores = reference_growth(p, stats.m_prime, accepted)
        assert q.h == h2
        assert list(q.h) == sorted(q.h)
        assert stats.scores == scores == validate(q).scores
        branches.update(m < tw.phi.resolution[0] for tw in p.u)
    assert branches == {True, False}


def test_extension_post_check_refuses_a_failing_candidate(monkeypatch):
    # the weight of [0] on the value axis: new tops valued h(s) + "1" score 0
    g = ClopenPlaneSet.from_rects([("", "1")])
    p = avoid_null(trivial_condition(), g, Fraction(9, 16))  # score 1/2, tag 7/16
    q, stats = extend_detailed(p, seed=3, max_new_levels=2)
    assert stats.scores == validate(q).scores and stats.scores[0] > Fraction(7, 16)
    real = poset._stem_searches

    def all_ones_accepted(phi_list, m, m2, delta):
        search = real(phi_list, m, m2, delta)
        ones = 2 ** 2 ** (m2 - m) - 1

        def stem(s, value):
            first_failing, sums = search(s, value)
            assert first_failing(ones) == 0  # the real verdict refuses it
            return (lambda e: -1 if e == ones else 0), sums

        return stem

    monkeypatch.setattr(poset, "_stem_searches", all_ones_accepted)
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
        assert sorted(stats.chosen) == p.tops()
        for cut in range(q.m + 2):
            grown = poset._grown_census(p.h, stats.chosen, p.m, q.m, cut)
            assert dict(grown) == dict(poset._top_groups(q.h, q.m, cut)), (m, q.m, cut)
            seen.add((cut > m) + (cut >= q.m))
        seen.add(("weights", bool(p.u)))
    assert seen == {0, 1, 2, ("weights", True), ("weights", False)}


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


def test_same_index_conditions_merge():
    h = {"": "", "0": "0", "1": ""}
    u1 = (TaggedWeight(Fraction(1, 4), WeightFunction.scaled_uniform(Fraction(1, 2), (0, 1))),)
    u2 = (TaggedWeight(Fraction(1, 4), WeightFunction.scaled_uniform(Fraction(1, 2), (1, 1))),)
    p1, p2 = Condition(1, h, u1), Condition(1, h, u2)
    assert sigma_centered_index(p1) == sigma_centered_index(p2)
    merged = merge_same_stem(p1, p2)
    assert validate(merged).ok
    assert len(merged.u) == 2


def test_merge_requires_shared_stem():
    p1 = Condition(1, {"": "", "0": "0", "1": ""}, ())
    p2 = Condition(1, {"": "", "0": "1", "1": ""}, ())
    with pytest.raises(ValueError):
        merge_same_stem(p1, p2)
