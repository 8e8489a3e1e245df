"""End-to-end runs of cli.main with file and stdio plumbing.

The bundled selftest command is exercised by the acceptance tests, not
here; these cases pin envelope shape, exit codes, and determinism, and
hold the compiled schema check (forcing_lab.schemacheck) to the verdicts
and error paths of jsonschema's Draft 2020-12 validator on the packaged
schemas.
"""

import ast
import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import math
import os
import random
import re
import shlex
import struct
import subprocess
import sys
import time
import tokenize
import tracemalloc
from collections import Counter
from fractions import Fraction as Rational
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import forcing_lab
from forcing_lab import cli, jsonio, poset, schemacheck
from forcing_lab.diagram import NODES
from forcing_lab.schemacheck import compile_schema

HALVES_NAME = {
    "horizon": 2,
    "coords": [
        [{"label": 0, "cells": ["0"]}, {"label": 1, "cells": ["1"]}],
        [{"label": 0, "cells": ["0"]}, {"label": 1, "cells": ["1"]}],
    ],
}

SIMPLE_CONDITION = {
    "m": 0,
    "h": [["", ""]],
    "u": [{"eps": "1/2",
           "phi": {"resolution": [0, 0], "table": [["", "", "1/1"]]}}],
}


ONE_COVER_RUN = {
    "steps": 2,
    "covers": [{"cover": {"resolution": [1, 2], "rects": [["0", "00"]]},
                "eps": "1/4"}],
}

REPORT_SCHEMA = json.loads(resources.files("forcing_lab.schemas")
                           .joinpath("report.schema.json").read_text())

README = Path(__file__).resolve().parent.parent / "README.md"


def labels(**over):
    base = {n: "aleph1" for n in NODES}
    base.update(over)
    return base


def report_digest(env):
    # pins the report bytes, so refactors must keep them identical
    return hashlib.sha256(json.dumps(env["report"], sort_keys=True).encode()).hexdigest()


@contextlib.contextmanager
def digit_limit(digits):
    """Run the block under `digits` as the limit on int-text conversion."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def run(tmp_path, argv, scenario=None, raw=None):
    argv = list(argv)
    if scenario is not None or raw is not None:
        path = tmp_path / "scenario.json"
        path.write_text(raw if raw is not None else json.dumps(scenario))
        argv += ["--input", str(path)]
    out = tmp_path / "report.json"
    argv += ["--out", str(out)]
    digits = sys.get_int_max_str_digits()
    code = cli.main(argv)
    assert sys.get_int_max_str_digits() == digits  # main gives back what it lifts
    with digit_limit(0):  # a report may hold an int past the limit
        return code, json.loads(out.read_text())


def replaced(x, path, value):
    if not path:
        return value
    copy = dict(x) if isinstance(x, dict) else list(x)
    copy[path[0]] = replaced(x[path[0]], path[1:], value)
    return copy


def test_diagram_consistent_exits_zero(tmp_path):
    scenario = {"assignment": labels()}
    code, env = run(tmp_path, ["diagram"], scenario)
    assert code == 0
    assert env["command"] == "diagram"
    assert env["ok"] is True
    assert env["report"] == {
        "inputs": scenario, "consistent": True, "violations": []}
    assert "wall_time_ms" in env["meta"]


def test_diagram_violation_exits_one_with_report(tmp_path):
    code, env = run(tmp_path, ["diagram"],
                    {"assignment": labels(add_null="aleph2")})
    assert code == 1
    assert env["ok"] is False
    kinds = {v["kind"] for v in env["report"]["violations"]}
    assert kinds == {"edge"}


def test_diagram_extension_pair(tmp_path):
    high = dict(b="aleph2", d="aleph2", non_meager="aleph2",
                cof_meager="aleph2", cof_null="aleph2", non_null="aleph2",
                cov_star="aleph2", non_star="aleph2")
    scenario = {"ground": labels(**high),
                "extension": labels(cov_null="aleph2", **high)}
    code, env = run(tmp_path, ["diagram"], scenario)
    assert code == 0 and env["report"]["consistent"] is True


def test_diagram_bad_label_exits_two(tmp_path):
    code, env = run(tmp_path, ["diagram"],
                    {"assignment": labels(b="alephomega")})
    assert code == 2
    assert env["error"]["type"] == "ValueError"
    assert "report" not in env and "meta" not in env


def test_stdin_stdout_defaults(monkeypatch, capsys):
    # the scenario is read from stdin's bytes, so the double has them
    monkeypatch.setattr(
        "sys.stdin", io.TextIOWrapper(io.BytesIO(json.dumps({"assignment": labels()}).encode())))
    code = cli.main(["diagram"])
    env = json.loads(capsys.readouterr().out)
    assert code == 0 and env["ok"] is True


def test_refine_reports_set_and_cutoff(tmp_path):
    scenario = {"name": HALVES_NAME, "function": [99, 99],
                "condition_set": [""]}
    code, env = run(tmp_path, ["refine"], scenario)
    assert code == 0
    assert env["report"] == {"inputs": scenario, "refined": [""],
                             "measure": "1/1", "cutoff": 3}


def test_refine_long_generator_set(tmp_path):
    scenario = {"name": HALVES_NAME, "function": [2, 2],
                "condition_set": ["0" * 5000, "1"]}
    code, env = run(tmp_path, ["refine"], scenario)
    assert code == 0
    assert env["ok"] is True
    assert env["report"]["refined"] == ["0" * 5000, "1"]
    jsonschema.validate(env, REPORT_SCHEMA)


def test_refine_tiny_set_takes_closed_form_cutoff(tmp_path):
    scenario = {"name": HALVES_NAME, "function": [2, 2],
                "condition_set": ["0" * 64]}
    code, env = run(tmp_path, ["refine"], scenario)
    assert code == 0
    assert env["report"]["cutoff"] == 2 ** 64 + 2
    assert env["report"]["refined"] == ["0" * 64]


def test_refine_slalom_violation_exits_one(tmp_path):
    scenario = {"name": HALVES_NAME, "function": [0, 0],
                "condition_set": [""]}
    code, env = run(tmp_path, ["refine"], scenario)
    assert code == 1
    assert env["error"]["type"] == "SlalomViolation"
    assert "report" not in env


def test_smz_tolerances_and_flatten(tmp_path):
    scenario = {
        "eps": ["1/2"] * 9,
        "horizon": 2,
        "heavy": [[], [["0/1", "1/4"], ["1/2", "3/4"]]],
    }
    code, env = run(tmp_path, ["smz"], scenario)
    assert code == 0
    assert env["report"]["delta"] == ["1/4", "1/4"]
    assert env["report"]["delta_prime"] == ["1/8", "1/8"]
    assert env["report"]["flattened"] == [["0/1", "1/4"], ["1/2", "3/4"]]


def test_smz_short_tolerance_list_exits_one(tmp_path):
    code, env = run(tmp_path, ["smz"], {"eps": ["1/2"] * 8, "horizon": 2})
    assert code == 1
    assert env["error"]["type"] == "HorizonTooShort"


def test_extend_is_deterministic_for_a_seed(tmp_path):
    scenario = {"condition": SIMPLE_CONDITION}
    code1, env1 = run(tmp_path, ["extend", "--seed", "7"], scenario)
    code2, env2 = run(tmp_path, ["extend", "--seed", "7"], scenario)
    assert code1 == code2 == 0
    env1.pop("meta"), env2.pop("meta")
    assert env1 == env2
    assert env1["report"]["seed"] == 7
    assert env1["report"]["inputs"] == scenario
    stats = env1["report"]["stats"]
    assert stats["pinned_depth"] == 8  # slack 1/2 and stem sum 2 pin depth 8
    assert stats["depth"] == 8
    assert stats["exhaustive_stems"] == []
    assert env1["report"]["condition"]["m"] == 8
    assert report_digest(env1) == (
        "b65f206e4849e3a6478ddda9c6ff5dfcb7e8115e81f76d2dbf294c59a8a0d091")


def deep_extend_condition(seed, weights):
    """A condition shaped like the benchmark's extend-deep traffic: a
    monotone stem of depth 10 whose children add 0-2 bits to their
    parent's value, up to 8 bits, and `weights` weights, the first the
    complement of one random cell, the others full or scaled uniform,
    each tagged at a quarter or half of its score.  The root value has at
    most 2 bits, so some tops keep values shorter than the cell's
    y-resolution, where the search refuses candidates."""
    rng = random.Random(seed)

    def bits(k):
        return format(rng.getrandbits(k), f"0{k}b") if k else ""

    def strings(k):
        return [format(i, f"0{k}b") if k else "" for i in range(2 ** k)]

    h = {"": bits(rng.randint(0, 2))}
    for level in range(10):
        for s in strings(level):
            for b in "01":
                h[s + b] = h[s] + bits(min(8 - len(h[s]), rng.choice([0, 0, 0, 1, 1, 2])))
    u = []
    for i in range(weights):
        if i == 0:
            r1, r2 = rng.randint(1, 3), rng.randint(1, 3)
            cell = (bits(r1), bits(r2))
            table = [[a, b, f"1/{2 ** (r1 + r2)}"] for a in strings(r1) for b in strings(r2)
                     if (a, b) != cell]
        else:
            r1, r2 = rng.choice([(0, 0), (rng.randint(0, 2), rng.randint(0, 2))])
            c = Rational(rng.choice([6, 7, 8]), 8) / 2 ** (r1 + r2)
            table = [[a, b, str(c)] for a in strings(r1) for b in strings(r2)]
        phi = forcing_lab.WeightFunction((r1, r2), {(a, b): Rational(v) for a, b, v in table})
        eps = forcing_lab.score(h, phi) * rng.choice([Rational(1, 4), Rational(1, 2)])
        u.append({"eps": str(eps), "phi": {"resolution": [r1, r2], "table": table}})
    return {"m": 10, "h": [[s, v] for s, v in sorted(h.items())], "u": u}


@pytest.mark.installed
@pytest.mark.parametrize("seed, run_seed, weights, levels, digest", [
    # seed 2403's stream accepts every first candidate of the w3 condition,
    # which expects 1.5 failures over its 1,024 tops; 2404 retries once
    (2403, 2404, 3, "1", "89009010f29757b3b7cf19bd3844dfe3ed9758e7a856ab141415d318b0ac4e00"),
    (2403, 2403, 2, "2", "97397af6053d189d6912fdc17b8fda17714630190949f86f6fb131f1e0f99978"),
], ids=["w3-l1", "w2-l2"])
def test_deep_extend_report_is_pinned(tmp_path, seed, run_seed, weights, levels, digest):
    # 1,024 tops sharing few search classes: the report, retries and chosen
    # values included, stays byte for byte what the per-stem search wrote
    scenario = {"condition": deep_extend_condition(seed, weights)}
    code, env = run(tmp_path, ["extend", "--seed", str(run_seed), "--max-new-levels", levels],
                    scenario)
    assert code == 0, env.get("error")
    assert env["report"]["condition"]["m"] == 10 + int(levels)
    assert any(n for _, n in env["report"]["stats"]["retries"])
    assert report_digest(env) == digest


def one_class_condition(depth):
    """A complete stem of the given depth whose inner keys are valued "" and
    whose tops are valued the parity of their ones, with one full weight
    tagged at 255/256 of its score (1): every top is in one search class."""
    keys = [""]
    for level in range(depth):
        keys += [k + b for k in keys if len(k) == level for b in "01"]
    h = {s: str(s.count("1") % 2) if len(s) == depth else "" for s in keys}
    return {"m": depth, "h": [[s, v] for s, v in sorted(h.items())], "u": [
        {"eps": "255/256", "phi": {"resolution": [0, 0], "table": [["", "", "1/1"]]}}]}


@pytest.mark.installed
@pytest.mark.parametrize("levels, digest", [
    ("1", "a3b61482e1cbaf194ca9702ef2542b19533c7b0fe8bff7317b8ecfc419bc6713"),
    ("2", "cbe03428a88b735c0c0302266749f53c1ed0e30ec90636fa6506444674857212"),
], ids=["l1", "l2"])
def test_one_class_given_stem_extension_is_pinned(tmp_path, levels, digest):
    # 4,096 given tops in one class: the bulk search, its verdict per distinct
    # candidate 0 and the writer's pieces must give the per-top report byte
    # for byte
    code, env = run(tmp_path, ["extend", "--seed", "3", "--max-new-levels", levels],
                    {"condition": one_class_condition(12)})
    assert code == 0, env.get("error")
    assert env["report"]["condition"]["m"] == 12 + int(levels)
    assert report_digest(env) == digest


class CountingRaw(io.RawIOBase):
    """A raw output stream that keeps the bytes it is given and counts its write calls."""

    def __init__(self):
        self.calls, self.data = 0, bytearray()

    def writable(self):
        return True

    def write(self, b):
        self.calls += 1
        self.data += b
        return len(b)


def test_a_write_through_stdout_takes_the_envelope_in_few_writes(tmp_path, monkeypatch):
    # python -u makes stdout write-through, one write call per piece of the
    # envelope; main buffers the pieces and gives the setting back
    raw = CountingRaw()
    out = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"condition": deep_extend_condition(2403, 2)}))
    monkeypatch.setattr("sys.stdout", out)
    code = cli.main(["extend", "--seed", "2403", "--max-new-levels", "1", "--input", str(path)])
    assert code == 0 and out.write_through
    assert raw.calls <= len(raw.data) / 4096 + 16, (raw.calls, len(raw.data))
    with digit_limit(0):
        assert json.loads(raw.data)["report"]["condition"]["m"] == 11


SHALLOW_CONDITIONS = {
    # one top valued "1": a full weight tagged 3/4 and a cover complement
    # at resolution (1, 2) pin depth 13
    "m0": {"m": 0, "h": [["", "1"]], "u": [
        {"eps": "3/4", "phi": {"resolution": [0, 0], "table": [["", "", "1/1"]]}},
        {"eps": "1/4", "phi": {"resolution": [1, 2], "table": [
            [a, b, "1/8"] for a in "01" for b in ("00", "01", "10", "11")
            if (a, b) != ("1", "00")]}}]},
    # four tops valued "0", "", "1", "": a uniform weight at resolution
    # (1, 2) and a cover complement at (2, 1) pin depth 15
    "m2": {"m": 2, "h": [["", ""], ["0", ""], ["00", "0"], ["01", ""], ["1", ""],
                         ["10", "1"], ["11", ""]], "u": [
        {"eps": "3/8", "phi": {"resolution": [1, 2], "table": [
            [a, b, "7/64"] for a in "01" for b in ("00", "01", "10", "11")]}},
        {"eps": "1/2", "phi": {"resolution": [2, 1], "table": [
            [a, b, "1/8"] for a in ("00", "01", "10", "11") for b in "01"
            if (a, b) != ("01", "1")]}}]},
}


@pytest.mark.parametrize("name, depth, digest", [
    ("m0", 13, "10aa0a9221fbbfe7a35f6372a1db4f2d4654f3fa4801da5a58e198713fd496a1"),
    ("m2", 15, "4eb9a525c2a4c0d39aada0daf7f66ea56501c391e13eb7bbbb55f157ea8a754e"),
], ids=["m0", "m2"])
def test_shallow_extend_report_is_pinned(tmp_path, name, depth, digest):
    # one grown layer under few tops, written pair by pair in key order
    code, env = run(tmp_path, ["extend", "--seed", "13"],
                    {"condition": SHALLOW_CONDITIONS[name]})
    assert code == 0, env.get("error")
    assert env["report"]["stats"]["pinned_depth"] == env["report"]["condition"]["m"] == depth
    assert len(env["report"]["condition"]["h"]) == 2 ** (depth + 1) - 1
    assert report_digest(env) == digest


def test_chained_generic_run_report_is_pinned(tmp_path):
    # four extensions of three levels each: the final stem chains four layers
    code, env = run(tmp_path, ["generic-run", "--seed", "2026"], {**ONE_COVER_RUN, "steps": 4})
    assert code == 0, env.get("error")
    assert env["report"]["depth"] == 12
    assert len(env["report"]["final"]["h"]) == 2 ** 13 - 1
    assert report_digest(env) == (
        "d583b8aae2c29b38cffa3cc8121cbd00c20ee931507b934e2599bd967c88b842")


def test_generic_run_counts_the_trivial_stem_once_at_the_finest_cut(tmp_path, monkeypatch):
    # the step-0 cover sits at x-resolution 1 and the step-1 cover at 2: the
    # trivial stem is counted once, at 2, and the first attachment's score
    # reads that count
    cuts = []

    def counting(h, m, cut, real=poset._top_groups):
        cuts.append(cut)
        return real(h, m, cut)
    monkeypatch.setattr(poset, "_top_groups", counting)
    scenario = {"steps": 3, "covers": [
        {"cover": {"resolution": [1, 2], "rects": [["0", "00"]]}, "eps": "1/4", "at_step": 0},
        {"cover": {"resolution": [2, 1], "rects": [["11", "1"]]}, "eps": "1/4", "at_step": 1}]}
    code, env = run(tmp_path, ["generic-run", "--seed", "2026"], scenario)
    assert (code, cuts) == (0, [2])
    assert report_digest(env) == (
        "e3dceb4522d92879a2b7933bb00f63177333949d5d765a43be25aae2f848dbd9")


def test_extend_without_seed_exits_two(tmp_path, capsys):
    # a missing --seed is refused with the other bad arguments, before the
    # scenario is read or --out opened, so the envelope goes to stdout and
    # the usage line to stderr, for generic-run too
    good, bad, out = tmp_path / "scenario.json", tmp_path / "bad.json", tmp_path / "out.json"
    bad.write_text('{"bogus_key": 1}')
    for command, scenario in (("extend", {"condition": SIMPLE_CONDITION}),
                              ("generic-run", ONE_COVER_RUN)):
        good.write_text(json.dumps(scenario))
        for rest in (["--input", str(good)], ["--input", str(good), "--out", str(out)],
                     ["--out", str(out), "--input", str(bad)]):
            code = cli.main([command, *rest])
            captured = capsys.readouterr()
            assert code == 2
            assert json.loads(captured.out) == {"command": command, "ok": False, "error": {
                "type": "UsageError", "message": "this command draws random bits; pass --seed"}}
            assert captured.err.startswith("usage:")
            assert not out.exists()


@pytest.mark.parametrize("condition, named", [
    ({"m": 1, "h": [["", ""], ["0", "0"], ["1", "1"], ["0", "1"]], "u": []},
     "repeated stem key '0'"),
    ({**SIMPLE_CONDITION, "u": [{"eps": "1/2", "phi": {
        "resolution": [1, 1], "table": [["0", "1", "1/8"], ["1", "0", "1/8"],
                                        ["0", "1", "1/4"]]}}]},
     "repeated weight table key ('0', '1')"),
])
def test_repeated_key_exits_two(tmp_path, condition, named):
    code, env = run(tmp_path, ["extend", "--seed", "1", "--max-new-levels", "1"],
                    {"condition": condition})
    assert code == 2
    assert env["error"] == {"type": "ValueError", "message": named}


@pytest.mark.parametrize("raw, key", [
    ('{"condition": %s, "condition": %s}' % (
        json.dumps(SIMPLE_CONDITION), json.dumps({**SIMPLE_CONDITION, "u": []})),
     "condition"),
    ('{"condition": {"m": 0, "h": [["", ""]], "u": [{"eps": "1/2", "phi": '
     '{"resolution": [0, 0], "table": [["", "", "1/1"]], "resolution": [1, 1]}}]}}',
     "resolution"),
], ids=["top-level", "in-phi"])
def test_repeated_scenario_key_exits_two(tmp_path, raw, key):
    code, env = run(tmp_path, ["extend", "--seed", "1", "--max-new-levels", "1"], raw=raw)
    assert code == 2
    assert env["error"] == {"type": "UsageError", "message": f"repeated scenario key {key!r}"}


def test_generic_run_trace_shape(tmp_path):
    code, env = run(tmp_path, ["generic-run", "--seed", "2026"], ONE_COVER_RUN)
    assert code == 0
    assert env["report"]["depth"] == 6  # three levels per step, two extends
    trace = env["report"]["trace"]
    assert [e["action"] for e in trace] == ["attach", "extend", "extend"]
    assert [e["depth"] for e in trace] == [0, 3, 6]
    for entry in trace:
        for cert in entry["certificates"]:
            assert Rational(cert["scoreF"]) >= Rational(3, 4)
    last = trace[-1]["certificates"][0]
    assert last["inside"] == last["scoreF"]  # stem resolves the cover fully
    assert report_digest(env) == (
        "5798039f45f45039d3c6b45737f03cf28760a1d58e611e4c71f905d1d568b74c")


def test_generic_run_lists_certificates_in_attachment_order(tmp_path):
    # a trace entry's certificates follow the order the covers were attached:
    # by step, then by position in the schedule; they are not sorted by index
    rects = ([1, 2], [["0", "00"]]), ([2, 1], [["11", "1"]]), ([1, 3], [["1", "010"]])
    covers = [{"cover": {"resolution": r, "rects": c}, "eps": "1/4", "at_step": step}
              for (r, c), step in zip(rects, (1, 0, 0))]
    code, env = run(tmp_path, ["generic-run", "--seed", "3"], {"steps": 2, "covers": covers})
    assert code == 0
    trace = env["report"]["trace"]
    assert [(e["step"], e["action"]) for e in trace] == [
        (0, "attach"), (0, "attach"), (0, "extend"), (1, "attach"), (1, "extend")]
    assert [[c["index"] for c in e["certificates"]] for e in trace] == [
        [1], [1, 2], [1, 2], [1, 2, 0], [1, 2, 0]]


@pytest.mark.parametrize("h, details", [
    ([["1", "0"], ["0", "0"], ["", "1"]],
     ["h('1') = '0' does not extend h('') = '1'", "h('0') = '0' does not extend h('') = '1'"]),
    ([["0", "0"], ["1", "0"], ["", "1"]],
     ["h('0') = '0' does not extend h('') = '1'", "h('1') = '0' does not extend h('') = '1'"]),
    ([["1", "2"], ["0", "x"], ["", ""]],
     ["not a binary string: '2'", "not a binary string: 'x'", "level 1 holds 0 keys, needs 2"]),
], ids=["one-first", "zero-first", "domain"])
def test_a_decoded_stem_is_checked_in_its_given_order(tmp_path, h, details):
    # validate words a clause's violations in h's own order, which for a
    # decoded stem is the order given on the wire, not key order; extend
    # refuses with the first of them
    condition = {"m": 1, "h": h, "u": []}
    rep = poset.validate(jsonio.condition_from_json(condition))
    assert [v.detail for v in rep.violations] == details
    if all(set(v) <= set("01") for _, v in h):  # the scenario schema refuses other bits first
        code, env = run(tmp_path, ["extend", "--seed", "0"], {"condition": condition})
        assert code == 2
        assert env["error"] == {"type": "ValueError",
                                "message": f"cannot extend invalid condition: {details[0]}"}


@pytest.mark.parametrize("levels", ["0", "-1"])
@pytest.mark.parametrize("command, scenario", [
    ("extend", {"condition": SIMPLE_CONDITION}),
    ("generic-run", ONE_COVER_RUN),
], ids=["extend", "generic-run"])
def test_level_cap_below_one_exits_two(tmp_path, command, scenario, levels):
    code, env = run(
        tmp_path, [command, "--seed", "7", "--max-new-levels", levels], scenario)
    assert code == 2
    assert env["error"]["type"] == "ValueError"
    assert "max_new_levels" in env["error"]["message"]
    jsonschema.validate(env, REPORT_SCHEMA)


def test_oversized_plane_resolution_exits_two(tmp_path):
    cover = {"resolution": [40, 40], "rects": [["0", "00"]]}
    started = time.perf_counter()
    code, env = run(tmp_path, ["generic-run", "--seed", "1"],
                    {"steps": 1, "covers": [{"cover": cover, "eps": "1/4"}]})
    assert time.perf_counter() - started < 1
    assert code == 2
    assert env["error"]["type"] == "ValueError"
    assert "resolution (40, 40)" in env["error"]["message"]
    jsonschema.validate(env, REPORT_SCHEMA)


def test_input_depth_past_the_limit_exits_two(tmp_path):
    started = time.perf_counter()
    code, env = run(tmp_path, ["extend", "--seed", "1"],
                    {"condition": {"m": 20000, "h": [["", ""]], "u": []}})
    assert time.perf_counter() - started < 1
    assert code == 2
    assert env["error"]["type"] == "ValueError"
    assert "past the limit of 20" in env["error"]["message"]


def test_tag_with_a_long_denominator_exits_two_in_time(tmp_path):
    # slack 2^-14000 pins depth 28006, which is refused as past the limit
    d = 2 ** 14000
    condition = {**SIMPLE_CONDITION, "u": [{**SIMPLE_CONDITION["u"][0], "eps": f"{d - 1}/{d}"}]}
    started = time.perf_counter()
    code, env = run(tmp_path, ["extend", "--seed", "1"], {"condition": condition})
    assert time.perf_counter() - started < 1
    assert code == 2
    assert env["error"] == {"type": "ValueError", "message": (
        "extension would need depth 28006 from 0, past the limit of 20; "
        "pass max_new_levels to bound the growth")}


def deep_row_condition(m1, count):
    """The trivial stem with one weight at resolution (m1, 0): count random
    rows, each carrying the cap 2^-m1, tagged at 2^-(m1 + 1), below the
    stem's score."""
    rng = random.Random(m1)
    rows = sorted({format(rng.getrandbits(m1), f"0{m1}b") for _ in range(count)})
    return {"m": 0, "h": [["", ""]], "u": [{"eps": f"1/{2 ** (m1 + 1)}", "phi": {
        "resolution": [m1, 0], "table": [[a, "", f"1/{2 ** m1}"] for a in rows]}}]}


def test_extend_over_deep_weight_rows_stays_small(tmp_path):
    # 40 rows at x-resolution 3000: no prefix of a row is stored or recursed on
    scenario = {"condition": deep_row_condition(3000, 40)}
    tracemalloc.start()
    try:
        code, env = run(tmp_path, ["extend", "--seed", "1", "--max-new-levels", "2"], scenario)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0, env.get("error")
    assert env["report"]["condition"]["m"] == 2
    assert peak < 40 * 2 ** 20, f"{peak / 2 ** 20:.1f} MB"


@pytest.mark.installed
def test_steps_past_the_depth_limit_exit_two_before_any_extension(tmp_path):
    started = time.perf_counter()
    code, env = run(tmp_path, ["generic-run", "--seed", "1"], {"steps": 21, "covers": []})
    assert time.perf_counter() - started < 1
    assert code == 2
    assert env["error"]["type"] == "ValueError"
    assert "steps 21" in env["error"]["message"]
    jsonschema.validate(env, REPORT_SCHEMA)


@pytest.mark.installed
def test_deeply_nested_scenario_exits_two(tmp_path):
    code, env = run(tmp_path, ["slalom"], raw="[" * 100000 + "]" * 100000)
    assert code == 2
    assert env["error"] == {"type": "UsageError", "message": "scenario is nested too deeply"}
    jsonschema.validate(env, REPORT_SCHEMA)


@pytest.mark.installed
def test_rejection_messages_are_bounded(tmp_path):
    # the rejected value is shown by a bounded repr, however large or deep it is
    code, env = run(tmp_path, ["slalom"], {"name": list(range(200000))})
    assert code == 2
    assert env["error"]["message"] == (
        "scenario fails schema at name: [0, 1, 2, 3, 4, 5, ...] is not of type 'object'")
    assert (tmp_path / "report.json").stat().st_size < 1024
    code, env = run(tmp_path, ["refine"], raw='{"function": %s}' % ("[" * 900 + "]" * 900))
    assert code == 2
    assert env["error"]["message"].startswith("scenario fails schema at function/0: ")
    assert (tmp_path / "report.json").stat().st_size < 1024
    jsonschema.validate(env, REPORT_SCHEMA)


def random_bits(rng, count, k):
    return [format(rng.getrandbits(k), f"0{k}b") for _ in range(count)]


@pytest.mark.installed
def test_refine_over_large_random_cells_answers_in_time(tmp_path):
    # each coordinate: a light cell of 400 random 16-bit generators and its
    # complement; the condition set is the complement of 400 more, so every
    # subtraction meets thousands of generators on both sides
    rng = random.Random(21)
    coords = []
    for _ in range(6):
        light = forcing_lab.ClopenSet(random_bits(rng, 400, 16))
        coords.append([{"label": 0, "cells": sorted(light.generators)},
                       {"label": 1, "cells": sorted((~light).generators)}])
    condition = ~forcing_lab.ClopenSet(random_bits(rng, 400, 16))
    scenario = {"name": {"horizon": 6, "coords": coords}, "function": [0] * 6,
                "condition_set": sorted(condition.generators)}
    assert len(json.dumps(scenario)) > 340_000
    code, env = run(tmp_path, ["refine"], scenario)
    assert code == 0, env.get("error")
    assert env["report"]["cutoff"] == 3
    assert env["meta"]["wall_time_ms"] < 1000


@pytest.mark.installed
def test_overlap_among_many_cells_is_named_in_time(tmp_path):
    # 3,000 one-generator 12-bit cells; only the last two overlap
    rng = random.Random(21)
    gens = [format(v, "012b") for v in rng.sample(range(4096), 2999)]
    gens.append(gens[-1])
    name = {"horizon": 1, "coords": [[{"label": i, "cells": [g]} for i, g in enumerate(gens)]]}
    started = time.perf_counter()
    code, env = run(tmp_path, ["slalom"], {"name": name})
    assert time.perf_counter() - started < 1
    assert code == 1
    assert env["error"] == {"type": "NotAPartition",
                            "message": "coordinate 0: cells 2998 and 2999 overlap"}


def pinned_names_scenario(command, seed):
    """A names-mix-shaped scenario of horizon 24: each coordinate splits the
    space down to depth 8 and deals its shuffled leaves to 2-8 labels, so
    cells hold sibling leaves that merge.  Coordinate 3's first cell also
    holds an extension of its first generator, and coordinate 5's second
    cell repeats its first.  `refine` takes a function that picks a light
    label where one exists, else one the coordinate does not use."""
    rng = random.Random(seed)
    coords, f = [], []
    for n in range(24):
        leaves, stack = [], [""]
        while stack:
            s = stack.pop()
            if len(s) < 8 and (len(s) < 2 or rng.random() < 0.62):
                stack += [s + "1", s + "0"]
            else:
                leaves.append(s)
        labels = rng.sample(range(50), min(len(leaves), rng.randint(2, 8)))
        rng.shuffle(leaves)
        groups = [[leaf] for leaf in leaves[:len(labels)]]
        for leaf in leaves[len(labels):]:
            rng.choice(groups).append(leaf)
        coords.append([{"label": lab, "cells": sorted(g)} for lab, g in zip(labels, groups)])
        light = [lab for lab, g in zip(labels, groups)
                 if sum(Rational(1, 2 ** len(s)) for s in g) <= Rational(1, (n + 1) ** 2)]
        f.append(rng.choice(light) if light else 50 + rng.randrange(50))
    inside = coords[3][0]["cells"]
    inside.append(inside[0] + "01")
    coords[5][1]["cells"].append(coords[5][1]["cells"][0])
    name = {"horizon": 24, "coords": coords}
    if command == "slalom":
        return {"name": name}
    cells = sorted(rng.sample([format(v, "04b") for v in range(16)], rng.randint(8, 14)))
    return {"name": name, "function": f, "condition_set": cells, "start": rng.randint(1, 3)}


@pytest.mark.installed
@pytest.mark.parametrize("command, seed, digest", [
    ("slalom", 3901, "f83005980126075e57c49e52b5d9dbd07177396976490b4ded794339186c574e"),
    ("refine", 3902, "293a55cbc67991c11385b26671245f3f47402282ffe1f88bae03bd54610e4b0f"),
])
def test_names_report_is_pinned(tmp_path, command, seed, digest):
    # the name is canonicalized cell by cell: merged siblings, the absorbed
    # extension and the repeat all leave the report as the parent wrote it
    scenario = pinned_names_scenario(command, seed)
    cells = [set(c["cells"]) for coord in scenario["name"]["coords"] for c in coord]
    assert any(s[:-1] + "1" in cell for cell in cells for s in cell if s.endswith("0"))
    code, env = run(tmp_path, [command], scenario)
    assert code == 0, env.get("error")
    assert report_digest(env) == digest


@pytest.mark.parametrize("argv, scenario", [
    (["smz"], {"horizon": 1, "eps": ["1/0", "1/2"]}),
    (["extend", "--seed", "1"], {"condition": {**SIMPLE_CONDITION, "u": [{"eps": "1/2", "phi": {
        "resolution": [0, 0], "table": [["", "", "1/0"]]}}]}}),
], ids=["smz", "extend"])
def test_zero_denominator_exits_two(tmp_path, argv, scenario):
    code, env = run(tmp_path, argv, scenario)
    assert code == 2
    assert env["error"] == {"type": "ValueError",
                            "message": "rational '1/0' has a zero denominator"}


@pytest.mark.parametrize("command, scenario, flag", [
    ("extend", {"condition": SIMPLE_CONDITION}, "--retry-cap"),
    ("generic-run", ONE_COVER_RUN, "--exhaustive-cap"),
], ids=["extend", "generic-run"])
def test_search_cap_flag_is_refused(tmp_path, capsys, command, scenario, flag):
    # the search caps are constants of poset, not options; a refused argument
    # list has no --out yet, so the envelope goes to stdout
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    code = cli.main([command, "--seed", "1", flag, "5", "--input", str(path)])
    env = json.loads(capsys.readouterr().out)
    assert code == 2
    assert env["error"] == {"type": "UsageError",
                            "message": f"unrecognized arguments: {flag} 5"}
    jsonschema.validate(env, REPORT_SCHEMA)


def test_envelope_failing_its_schema_exits_three(tmp_path, monkeypatch):
    monkeypatch.setitem(cli.HANDLERS, "diagram", lambda args, scenario: ("yes", {}))
    code, env = run(tmp_path, ["diagram"], {"assignment": labels()})
    assert code == 3
    assert env == {"command": "diagram", "ok": False, "error": {
        "type": "InternalError",
        "message": "RuntimeError: report fails schema at ok: 'yes' is not of type 'boolean'"}}
    jsonschema.validate(env, REPORT_SCHEMA)


def test_unexpected_failure_exits_three(tmp_path, monkeypatch):
    def broken(args, scenario):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.HANDLERS, "diagram", broken)
    code, env = run(tmp_path, ["diagram"], {"assignment": labels()})
    assert code == 3
    assert env["ok"] is False
    assert env["error"] == {"type": "InternalError", "message": "RuntimeError: boom"}
    jsonschema.validate(env, REPORT_SCHEMA)


@pytest.mark.parametrize("exc, code, error", [
    (KeyError("cover"), 3, {"type": "InternalError", "message": "KeyError: 'cover'"}),
    (TypeError("bad operand"), 3, {"type": "InternalError", "message": "TypeError: bad operand"}),
    (ValueError("refused"), 2, {"type": "ValueError", "message": "refused"}),
], ids=["KeyError", "TypeError", "ValueError"])
def test_only_a_deliberate_refusal_exits_two(tmp_path, monkeypatch, exc, code, error):
    # a KeyError or TypeError past the schema is this program's fault; a
    # ValueError is how the decoders and the layers refuse a value
    def failing(args, scenario):
        raise exc

    monkeypatch.setitem(cli.HANDLERS, "diagram", failing)
    assert run(tmp_path, ["diagram"], {"assignment": labels()}) == (
        code, {"command": "diagram", "ok": False, "error": error})


RAPID_SCENARIO = {
    "set": [k ** 3 for k in range(10)],
    "blocks": 5,
    "rapid": [j * j for j in range(30)],
    "selection": [1, 6, 15],
    "checkpoints": [1, 5, 9, 20, 29],
    "product": {"start": 0, "stop": 20},
}


def test_rapid_combined_report(tmp_path):
    code, env = run(tmp_path, ["rapid"], RAPID_SCENARIO)
    assert code == 0
    assert env["report"]["thin"]["ok"] is True
    assert env["report"]["rapidity"] == {
        "ok": True, "witness": None, "counts": [0, 1, 1, 1, 1]}


def floated(x):
    """`x` with every int in it written as a float."""
    if isinstance(x, dict):
        return {k: floated(v) for k, v in x.items()}
    if isinstance(x, list):
        return [floated(v) for v in x]
    return float(x) if type(x) is int else x


def run_twins(tmp_path, argv, scenario, path):
    """Exit code and envelope text without meta of `scenario` and of its
    twin whose ints under `path` are written as floats (8.0 for 8); text,
    because 8.0 == 8 would let a float echo pass as the int."""
    node = scenario
    for key in path:
        node = node[key]
    twin = replaced(scenario, path, floated(node))
    assert json.dumps(twin) != json.dumps(scenario)
    results = []
    for x in (scenario, twin):
        code, env = run(tmp_path, argv, x)
        env.pop("meta", None)
        results.append((code, json.dumps(env, sort_keys=True)))
    return results


@pytest.mark.installed
@pytest.mark.parametrize("key", ["set", "selection", "rapid", "checkpoints"])
def test_rapid_reads_integral_floats_as_integers(tmp_path, key):
    # Draft 2020-12 counts 8.0 as an integer, so the schema lets it through
    ints, floats = run_twins(tmp_path, ["rapid"], RAPID_SCENARIO, (key,))
    assert floats == ints
    assert ints[0] == 0 and "product" in json.loads(ints[1])["report"]


@pytest.mark.installed
@pytest.mark.parametrize("function, want", [([99, 99], 0), ([0, 0], 1)],
                         ids=["passes", "slalom-violation"])
def test_refine_reads_integral_floats_as_integers(tmp_path, function, want):
    scenario = {"name": HALVES_NAME, "function": function, "condition_set": [""]}
    ints, floats = run_twins(tmp_path, ["refine"], scenario, ("function",))
    assert floats == ints
    assert ints[0] == want


WEIGHT_ONE = replaced(SIMPLE_CONDITION, ("u", 0, "phi", "table", 0, 2), 1)
TWIN_CASES = {
    "smz-eps": (["smz"], {"eps": [1, "1/2"], "horizon": 1}, ("eps",)),
    "smz-horizon": (["smz"], {"eps": [1, "1/2"], "horizon": 1}, ("horizon",)),
    "smz-heavy": (["smz"], {"eps": ["1/2"] * 9, "horizon": 2,
                            "heavy": [[], [[0, "1/4"], ["1/2", 1]]]}, ("heavy",)),
    "extend-weight-value": (["extend", "--seed", "7"], {"condition": WEIGHT_ONE},
                            ("condition", "u", 0, "phi", "table")),
    "extend-eps": (["extend", "--seed", "7"],
                   {"condition": replaced(WEIGHT_ONE, ("u", 0, "eps"), 1)},
                   ("condition", "u", 0, "eps")),
    "extend-m": (["extend", "--seed", "7"], {"condition": SIMPLE_CONDITION},
                 ("condition", "m")),
    "extend-resolution": (["extend", "--seed", "7"], {"condition": SIMPLE_CONDITION},
                          ("condition", "u", 0, "phi", "resolution")),
    "generic-run-eps": (["generic-run", "--seed", "2026"],
                        replaced(ONE_COVER_RUN, ("covers", 0, "eps"), 1), ("covers", 0, "eps")),
    "generic-run-steps": (["generic-run", "--seed", "2026"], ONE_COVER_RUN, ("steps",)),
    "generic-run-at-step": (["generic-run", "--seed", "2026"],
                            replaced(ONE_COVER_RUN, ("covers", 0),
                                     {**ONE_COVER_RUN["covers"][0], "at_step": 0}),
                            ("covers", 0, "at_step")),
    "generic-run-resolution": (["generic-run", "--seed", "2026"], ONE_COVER_RUN,
                               ("covers", 0, "cover", "resolution")),
    **{f"refine-{field}": (["refine"], {"name": HALVES_NAME, "function": [99, 99],
                                        "condition_set": [""], "start": 1}, path)
       for field, path in (("start", ("start",)), ("horizon", ("name", "horizon")),
                           ("label", ("name", "coords")))},
    "slalom-horizon": (["slalom"], {"name": HALVES_NAME}, ("name", "horizon")),
    "slalom-label": (["slalom"], {"name": HALVES_NAME}, ("name", "coords")),
    "rapid-blocks": (["rapid"], RAPID_SCENARIO, ("blocks",)),
    "rapid-product": (["rapid"], RAPID_SCENARIO, ("product",)),
}


@pytest.mark.installed
@pytest.mark.parametrize("argv, scenario, path", TWIN_CASES.values(), ids=TWIN_CASES)
def test_integral_floats_read_as_their_integers(tmp_path, argv, scenario, path):
    # the twin's whole envelope, inputs included, is the int scenario's; the
    # tests above do the same for refine's function and rapid's four lists
    ints, floats = run_twins(tmp_path, argv, scenario, path)
    assert floats == ints


@pytest.mark.parametrize("text, message", [
    ("2.5", "scenario fails schema at horizon: 2.5 is not of type 'integer'"),
    # its double is 0.0, which the schema would count as an integer
    pytest.param("1e-400", "scenario number 1e-400 is not an integer", id="1e-400"),
    pytest.param("2.0000000000000001", "scenario number 2.0000000000000001 is not an integer",
                 id="2.0000000000000001"),
])
def test_non_integral_numbers_are_refused(tmp_path, text, message):
    code, env = run(tmp_path, ["smz"], raw=f'{{"eps": ["1/2"], "horizon": {text}}}')
    assert (code, env["error"]) == (2, {"type": "UsageError", "message": message})


def test_integral_numbers_past_a_double_are_read_exactly(tmp_path):
    # 1e23 is 10^23, as its integer literal is, not the double 99999999999999991611392
    for r3 in ("1e23", "100000000000000000000000"):
        raw = f'{{"rapid": [0, 1, 4, {r3}], "set": [], "blocks": 1, "selection": [3], '
        code, env = run(tmp_path, ["rapid"], raw=raw + '"checkpoints": [1]}')
        assert (code, env["error"]["message"]) == (
            2, "r(3) = 100000000000000000000000 outside block [9, 16)")
    code, env = run(tmp_path, ["smz"], raw='{"eps": ["1/2"], "horizon": 1e400}')
    assert (code, env["error"]["type"]) == (1, "HorizonTooShort")  # read, then run


@pytest.mark.parametrize("text", ["1e5000", "1e1000000000", "1e-1000000000"])
def test_numbers_with_huge_exponents_are_refused_at_once(tmp_path, text):
    started = time.perf_counter()
    code, env = run(tmp_path, ["smz"], raw=f'{{"eps": ["1/2"], "horizon": {text}}}')
    assert time.perf_counter() - started < 0.1
    assert (code, env["error"]["type"]) == (2, "UsageError")


def test_refine_writes_an_exact_answer_past_the_digit_limit(tmp_path):
    # the measure 2^-15000 and the cutoff 2^15000 + 2 have 4,516 digits
    scenario = {"name": {"horizon": 1, "coords": [[{"label": 0, "cells": [""]}]]},
                "function": [0], "condition_set": ["0" * 15000]}
    code, env = run(tmp_path, ["refine"], scenario)
    assert code == 0
    assert env["report"]["cutoff"] == 2 ** 15000 + 2
    with digit_limit(0):
        assert env["report"]["measure"] == f"1/{2 ** 15000}"


def test_rapid_writes_an_exact_product_past_the_digit_limit(tmp_path):
    scenario = {"set": [k ** 3 for k in range(4000)], "blocks": 10,
                "selection": [math.isqrt(k ** 3) for k in range(1, 4000)],
                "product": {"start": 0, "stop": 252888}}
    code, env = run(tmp_path, ["rapid"], scenario)
    assert code == 0
    per_block = Counter(math.isqrt(a) for a in scenario["set"])
    want = math.prod((1 - Rational(per_block[m], 2 * m + 1) for m in set(scenario["selection"])),
                     start=Rational(1))
    assert len(env["report"]["product"]) > 4300
    with digit_limit(0):
        assert Rational(env["report"]["product"]) == want


def test_rational_parts_past_the_digit_limit_are_refused(tmp_path):
    code, env = run(tmp_path, ["smz"], {"eps": ["1" * 4301], "horizon": 1})
    assert code == 2
    assert env["error"]["message"].startswith("scenario fails schema at eps/0: ")
    code, env = run(tmp_path, ["smz"], {"eps": [f"1/{'1' * 4300}", "1" * 4300], "horizon": 1})
    assert code == 0


def test_integer_literals_past_the_digit_limit_are_refused(tmp_path):
    code, env = run(tmp_path, ["smz"], raw=f'{{"eps": [], "horizon": {"1" * 4301}}}')
    assert (code, env["error"]) == (2, {"type": "UsageError", "message": (
        "scenario has an integer of more than 4300 digits, the limit")})
    code, env = run(tmp_path, ["smz"], raw=f'{{"eps": [], "horizon": {"1" * 4300}}}')
    assert (code, env["error"]["type"]) == (1, "HorizonTooShort")  # read, then run


@pytest.mark.parametrize("scenario, want", [
    ({"eps": [1, "1/2"], "horizon": 1}, 0),
    ({"eps": [1, "1/2"], "horizon": "1"}, 2),
    ({"eps": [1, "1/0"], "horizon": 1}, 2),
], ids=["success", "schema-refusal", "decode-refusal"])
def test_main_gives_back_the_callers_digit_limit(tmp_path, scenario, want):
    with digit_limit(5000):
        code, _ = run(tmp_path, ["smz"], scenario)  # run checks the limit is kept
    assert code == want


@pytest.mark.parametrize("argv, scenario, message", [
    (["extend", "--seed", "1" * 4301], {"condition": SIMPLE_CONDITION},
     "argument --seed: more than 4300 digits, the limit"),
    (["smz"], {"eps": [], "horizon": 10 ** 4300},
     "scenario has an integer of more than 4300 digits, the limit"),
], ids=["seed", "literal"])
def test_the_digit_limit_is_4300_with_no_limit_set(argv, scenario, message):
    # PYTHONINTMAXSTRDIGITS sets the interpreter's limit; the CLI reads its
    # argv and scenario under the schema's 4,300 digits all the same
    with digit_limit(0):  # the 4,301-digit literal is written here
        done = run_module(argv, scenario, PYTHONINTMAXSTRDIGITS="0")
    assert done.returncode == 2
    assert json.loads(done.stdout)["error"] == {"type": "UsageError", "message": message}


def test_a_seed_past_a_lower_set_limit_is_read():
    seed = "7" * 700
    done = run_module(["extend", "--seed", seed], {"condition": SIMPLE_CONDITION},
                      PYTHONINTMAXSTRDIGITS="640")
    assert done.returncode == 0, done.stdout
    assert json.loads(done.stdout)["report"]["seed"] == int(seed)


def test_rapid_needs_some_section(tmp_path):
    code, env = run(tmp_path, ["rapid"], {})
    assert code == 2


def test_rapid_runs_in_time_bounded_by_the_set(tmp_path):
    started = time.perf_counter()
    code, env = run(tmp_path, ["rapid"], {"set": [1, 8], "blocks": 10 ** 12})
    assert time.perf_counter() - started < 1
    assert code == 0
    assert env["report"]["thin"] == {"ok": True, "max_ratio": "1/3", "witness": None}


@pytest.mark.parametrize("scenario, section", [
    ({"set": [1, 8], "blocks": 3, "product": {"start": 0, "stop": 2}}, "product"),
    ({"rapid": [0, 1], "selection": [1], "checkpoints": [1],
      "product": {"start": 0, "stop": 2}}, "product"),
    ({"set": [1, 8], "rapid": [0, 1], "selection": [1], "checkpoints": [1]}, "set"),
    ({"blocks": 3, "rapid": [0, 1], "selection": [1], "checkpoints": [1]}, "blocks"),
    ({"set": [1, 8], "blocks": 3, "checkpoints": [1]}, "checkpoints"),
    ({"set": [1, 8], "blocks": 3, "selection": [1]}, "selection"),
], ids=["product-without-selection", "product-without-set", "set-without-blocks",
        "blocks-without-set", "checkpoints-without-rapid", "selection-alone"])
def test_rapid_refuses_an_ignored_section(tmp_path, scenario, section):
    code, env = run(tmp_path, ["rapid"], scenario)
    assert code == 2
    assert env["error"]["type"] == "UsageError"
    assert env["error"]["message"].startswith(f"rapid's {section!r} section needs")


@pytest.mark.parametrize("argv, message", [
    (["slalom", "--seed", "3"], "unrecognized arguments: --seed 3"),
    (["extend", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
    (["diagram", "--bogus"], "unrecognized arguments: --bogus"),
    (["extend", "--seed"], "argument --seed: expected one argument"),
    (["extend", "--seed", "--out", "x"], "argument --seed: expected one argument"),
    (["generic-run", "--seed", "1", "--max-new-levels", "1.5"],
     "argument --max-new-levels: invalid int value: '1.5'"),
    (["extend", "--seed", "1" * 4301], "argument --seed: more than 4300 digits, the limit"),
    (["generic-run", "--seed", "1", "--max-new-levels", "-" + "1" * 4301],
     "argument --max-new-levels: more than 4300 digits, the limit"),
    (["extend", "--seed", "1" * 4300 + "x"],
     "argument --seed: invalid int value: '11111111111111111111...11111111111x'"),
    (["refine", "--out"], "argument --out/-o: expected one argument"),
    (["diagram", "-i", "a.json", "stray", "--inp", "b.json"],
     "unrecognized arguments: stray --inp b.json"),
    (["smz", "--input=a.json"], "unrecognized arguments: --input=a.json"),
    (["bogus"], "argument command: invalid choice: 'bogus' (choose from 'slalom', 'refine', "
                "'extend', 'generic-run', 'smz', 'rapid', 'diagram', 'selftest')"),
    ([], None),
], ids=["seed-on-slalom", "bad-seed", "unknown-flag", "no-seed-value", "option-as-value",
        "bad-levels", "long-seed", "long-levels", "long-bad-seed", "no-out-value",
        "stray-words", "equals-form", "unknown-command", "no-command"])
def test_bad_arguments_exit_two_with_envelope(capsys, argv, message):
    # one envelope on stdout (no --out is open yet), the usage line on stderr
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    env = json.loads(captured.out)
    assert captured.out.count("\n") == 1
    assert env["command"] == (argv[0] if argv and argv[0] in cli.HANDLERS else "")
    assert env["error"]["type"] == "UsageError"
    if message is not None:
        assert env["error"]["message"] == message
    assert captured.err.startswith("usage:")
    jsonschema.validate(env, REPORT_SCHEMA)


@pytest.mark.parametrize("text, seed", [("-5", -5), ("+7", 7), (" 8 ", 8), ("1_0", 10)])
def test_seed_reads_as_int_reads_it(tmp_path, text, seed):
    code, env = run(tmp_path, ["extend", "--seed", text], {"condition": SIMPLE_CONDITION})
    assert code == 0, env.get("error")
    code, twin = run(tmp_path, ["extend", "--seed", str(seed)], {"condition": SIMPLE_CONDITION})
    assert env["report"]["seed"] == seed and env["report"] == twin["report"]


def test_options_of_as_many_digits_as_the_limit_are_read(tmp_path):
    # 4,300 digits, the limit on int-text conversion, is read; 4,301 is refused above
    many = "1" * 4300
    code, env = run(tmp_path, ["extend", "--seed", many], {"condition": SIMPLE_CONDITION})
    assert code == 0, env.get("error")
    assert env["report"]["seed"] == int(many)
    argv = ["extend", "--seed", "3"]
    code, env = run(tmp_path, [*argv, "--max-new-levels", many], {"condition": SIMPLE_CONDITION})
    assert code == 0, env.get("error")
    assert env["report"] == run(tmp_path, argv, {"condition": SIMPLE_CONDITION})[1]["report"]


def test_options_repeat_and_come_in_any_order(tmp_path):
    # a repeated option keeps its last value; --out may come before --input
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"condition": SIMPLE_CONDITION}))
    out = tmp_path / "report.json"
    code = cli.main(["extend", "-o", str(tmp_path / "first.json"), "--out", str(out),
                     "--seed", "1", "-i", str(tmp_path / "missing.json"),
                     "--max-new-levels", "9", "--input", str(path), "--seed", "7",
                     "--max-new-levels", "1"])
    env = json.loads(out.read_text())
    assert code == 0 and not (tmp_path / "first.json").exists()
    assert env["report"]["seed"] == 7 and env["report"]["condition"]["m"] == 1


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["extend", "--seed", "1", "-h"],
                                  ["slalom", "--out", "report.json", "--help"]],
                         ids=["h", "help", "h-after-command", "help-after-out"])
def test_help_lists_every_command_without_an_envelope(tmp_path, argv):
    done = subprocess.run([sys.executable, "-m", "forcing_lab.cli", *argv], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:") and done.stderr == ""
    text = " ".join(done.stdout.split())  # the docstrings as a wrapping help prints them
    for name, handler in cli.HANDLERS.items():
        assert f"{name} {handler.__doc__}" in text
    assert '"command"' not in done.stdout and not (tmp_path / "report.json").exists()


def test_unwritable_out_exits_two_on_stdout(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"assignment": labels()}))
    out = tmp_path / "missing_dir" / "out.json"
    code = cli.main(["diagram", "--input", str(path), "--out", str(out)])
    env = json.loads(capsys.readouterr().out)
    assert code == 2
    assert env["error"]["type"] == "UsageError"
    assert "cannot write report" in env["error"]["message"]
    jsonschema.validate(env, REPORT_SCHEMA)


def test_out_may_name_the_input_file(tmp_path):
    path = tmp_path / "scenario.json"
    scenario = {"assignment": labels()}
    path.write_text(json.dumps(scenario))
    code = cli.main(["diagram", "--input", str(path), "--out", str(path)])
    env = json.loads(path.read_text())
    assert code == 0
    assert env["report"]["inputs"] == scenario
    jsonschema.validate(env, REPORT_SCHEMA)


def test_missing_input_exits_two(tmp_path):
    code, env = run(tmp_path, ["diagram", "--input", str(tmp_path / "nope.json")])
    assert code == 2
    assert env["error"]["type"] == "UsageError"
    assert "cannot read scenario" in env["error"]["message"]
    jsonschema.validate(env, REPORT_SCHEMA)


def test_bad_json_exits_two(tmp_path):
    code, env = run(tmp_path, ["diagram"], raw="{oops")
    assert code == 2
    assert env["error"]["type"] == "UsageError"
    assert "not JSON" in env["error"]["message"]


def test_schema_violation_exits_two(tmp_path):
    code, env = run(tmp_path, ["smz"], {"bogus_key": 1})
    assert code == 2
    assert env["error"] == {"type": "UsageError", "message": (
        "scenario fails schema at <root>: "
        "Additional properties are not allowed ('bogus_key' was unexpected)")}


SCHEMA_FILES = ("scenario.schema.json", "report.schema.json")


def packaged_schema(name):
    return json.loads(resources.files("forcing_lab.schemas").joinpath(name).read_text())


@pytest.mark.installed
@pytest.mark.parametrize("name", SCHEMA_FILES)
def test_packaged_schema_meets_the_metaschema(name):
    jsonschema.Draft202012Validator.check_schema(packaged_schema(name))


def cover(**over):
    return {"covers": [{"cover": {"resolution": [1, 1], "rects": [["0", "1"]]},
                        "eps": "1/2", **over}]}


def weighted(phi=None, **over):
    phi = phi or {"resolution": [0, 0], "table": [["", "", "1"]]}
    return {"condition": {"m": 0, "h": [["", ""]], "u": [{"eps": "1/2", "phi": phi, **over}]}}


def named(**over):
    return {"name": {"horizon": 1, "coords": [[{"label": 0, "cells": [""], **over}]]}}


# at least one broken scenario per $defs entry of the scenario schema
BROKEN_SCENARIOS = {
    "bits": {"condition_set": ["01", "012"]},
    "clopen": {"condition_set": "01"},
    "rational": {"eps": ["1/2", "half"]},
    "resolution-negative": {"covers": [{"cover": {"resolution": [1, -1], "rects": []},
                                        "eps": "1/2"}]},
    "resolution-short": {"covers": [{"cover": {"resolution": [1], "rects": []},
                                     "eps": "1/2"}]},
    "rect-one-item": {"covers": [{"cover": {"resolution": [1, 1], "rects": [["0"]]},
                                  "eps": "1/2"}]},
    "plane": {"covers": [{"cover": {"resolution": [1, 1]}, "eps": "1/2"}]},
    "namedCell-unknown-key": named(weight=1),
    "namedCell-bad-bits": named(cells=["0", "1b"]),
    "name": {"name": {"horizon": -1, "coords": []}},
    "weight-unknown-key": weighted({"resolution": [0, 0], "table": [], "scale": 2}),
    "weight-bad-rational": weighted({"resolution": [0, 0], "table": [["", "", "1/x"]]}),
    "taggedWeight-unknown-key": weighted(tag="a"),
    "condition": {"condition": {"m": -1, "h": [], "u": []}},
    "interval": {"heavy": [[["0", "1/2", "1"]]]},
    "scheduledCover-unknown-key": cover(when=0),
    "scheduledCover-bad-step": cover(at_step=-2),
    "assignment": {"assignment": {"b": "aleph1", "d": 2}},
}


@pytest.mark.installed
@pytest.mark.parametrize("scenario", BROKEN_SCENARIOS.values(), ids=BROKEN_SCENARIOS)
def test_loaded_schema_reports_like_packaged(scenario):
    # the check compiled from the file as loaded words the error as
    # jsonschema does on the packaged file, references and all
    name = "scenario.schema.json"
    with pytest.raises(jsonschema.ValidationError) as info:
        jsonschema.validate(scenario, packaged_schema(name))
    path, _, message = cli._compiled(name)(scenario)
    assert (message, list(path)) == (info.value.message, list(info.value.absolute_path))


BAD_BITS_MESSAGE = "scenario fails schema at name/coords/1/1/cells/1: '1a' does not match '^[01]*$'"


def test_bad_bits_deep_in_name_keep_their_message(tmp_path):
    name = json.loads(json.dumps(HALVES_NAME))
    name["coords"][1][1]["cells"] = ["10", "1a"]
    code, env = run(tmp_path, ["slalom"], {"name": name})
    assert code == 2
    # the text jsonschema gives for the packaged schema
    assert env["error"] == {"type": "UsageError", "message": BAD_BITS_MESSAGE}


@pytest.mark.installed
def test_jsonschema_stays_unimported_on_accepted_runs(tmp_path):
    name = json.loads(json.dumps(HALVES_NAME))
    name["coords"][1][1]["cells"] = ["10", "1a"]
    # the forcing_lab this test imported, installed or from src/
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    probe = ("import sys, forcing_lab.cli as cli\n"
             "code = cli.main(sys.argv[1:])\n"
             "print('jsonschema' in sys.modules, file=sys.stderr)\n"
             "sys.exit(code)\n")

    def cli_run(argv, scenario):
        done = subprocess.run([sys.executable, "-c", probe, *argv], input=json.dumps(scenario),
                              capture_output=True, text=True, env=env, timeout=60)
        return done.returncode, json.loads(done.stdout), done.stderr.split()[-1]

    code, out, imported = cli_run(["extend", "--seed", "7"], {"condition": SIMPLE_CONDITION})
    assert (code, out["ok"], imported) == (0, True, "False")
    code, out, imported = cli_run(["slalom"], {"name": name})
    assert (code, imported) == (2, "False")
    assert out["error"] == {"type": "UsageError", "message": BAD_BITS_MESSAGE}


@pytest.mark.installed
def test_commands_run_without_jsonschema(tmp_path):
    name = json.loads(json.dumps(HALVES_NAME))
    name["coords"][1][1]["cells"] = ["10", "1a"]
    # the forcing_lab this test imported, installed or from src/
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    probe = ("import sys\n"
             "sys.modules['jsonschema'] = None  # any import of it now fails\n"
             "import forcing_lab.cli as cli\n"
             "sys.exit(cli.main(sys.argv[1:]))\n")

    def cli_run(argv, scenario):
        done = subprocess.run([sys.executable, "-c", probe, *argv], input=json.dumps(scenario),
                              capture_output=True, text=True, env=env, timeout=60)
        return done.returncode, json.loads(done.stdout)

    code, out = cli_run(["extend", "--seed", "7"], {"condition": SIMPLE_CONDITION})
    assert (code, out["ok"]) == (0, True)
    code, out = cli_run(["slalom"], {"name": name})
    assert code == 2
    assert out["error"] == {"type": "UsageError", "message": BAD_BITS_MESSAGE}
    code, out = cli_run(["diagram"], {"assignment": labels()})
    assert (code, out["report"]["consistent"]) == (0, True)


def run_module(argv, scenario, *flags, **env):
    """`python <flags> -m forcing_lab.cli <argv>` on a scenario from stdin,
    for the forcing_lab this test imported (installed or from src/), with
    FORCING_LAB_LOG unset unless given.  Returns the finished process."""
    base = {k: v for k, v in os.environ.items() if k != "FORCING_LAB_LOG"}
    base["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *flags, "-m", "forcing_lab.cli", *argv],
                          input=json.dumps(scenario), capture_output=True, text=True,
                          env={**base, **env}, timeout=60)


def spawn_module(argv, stdout):
    """`python -m forcing_lab.cli <argv>` started as run_module starts it,
    stdin and stderr piped, stdout given."""
    env = {k: v for k, v in os.environ.items() if k != "FORCING_LAB_LOG"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.Popen([sys.executable, "-m", "forcing_lab.cli", *argv], env=env,
                            stdin=subprocess.PIPE, stdout=stdout, stderr=subprocess.PIPE)


def pinned_by(eps):
    """An extend scenario: the trivial stem with one full weight tagged eps."""
    return {"condition": {**SIMPLE_CONDITION, "u": [{**SIMPLE_CONDITION["u"][0], "eps": eps}]}}


@pytest.mark.installed
@pytest.mark.parametrize("argv, scenario, read", [
    (["extend", "--seed", "0"], pinned_by("125/128"), 10),
    (["slalom"], {"name": HALVES_NAME}, 0),
], ids=["large", "tiny"])
def test_a_closed_stdout_ends_the_run_quietly(argv, scenario, read):
    # the reader leaves after 10 bytes of a depth-16 envelope (3.1 MB), or
    # before a 0.3 KB one is written: the run keeps its exit code, and
    # neither the write nor the exit-time flush prints a traceback
    r, w = os.pipe()
    if not read:
        os.close(r)
    proc = spawn_module(argv, w)
    os.close(w)
    proc.stdin.write(json.dumps(scenario).encode())
    proc.stdin.close()
    if read:
        assert os.read(r, read).startswith(b'{"command"')
        os.close(r)
    with proc.stderr:
        stderr = proc.stderr.read()
    assert (proc.wait(timeout=60), stderr) == (0, b"")


# a depth-16 envelope (3.1 MB) fails in its stem, a tiny one at its flush
FULL_WRITES = pytest.mark.parametrize("argv, scenario", [
    (["extend", "--seed", "0"], pinned_by("125/128")),
    (["smz"], {"eps": ["1/2"], "horizon": 0}),
], ids=["large", "tiny"])
NEEDS_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="this system has no /dev/full")


@pytest.mark.installed
@NEEDS_DEV_FULL
@FULL_WRITES
def test_a_full_out_file_exits_two_with_its_envelope_on_stdout(argv, scenario):
    done = run_module([*argv, "--out", "/dev/full"], scenario)
    assert (done.returncode, done.stderr) == (2, "")
    env = json.loads(done.stdout)
    assert env["command"] == argv[0] and env["error"]["type"] == "UsageError"
    assert env["error"]["message"].startswith("cannot write report: ")
    jsonschema.validate(env, REPORT_SCHEMA)


@pytest.mark.installed
@NEEDS_DEV_FULL
@FULL_WRITES
def test_a_full_stdout_exits_two_with_one_line_on_stderr(argv, scenario):
    with open("/dev/full", "wb") as full:
        proc = spawn_module(argv, full)
    _, stderr = proc.communicate(json.dumps(scenario).encode(), timeout=60)
    assert proc.returncode == 2
    assert stderr.startswith(b"forcing-lab: cannot write report: ") and stderr.count(b"\n") == 1


@NEEDS_DEV_FULL
def test_help_on_a_full_buffered_stdout_exits_two_with_one_line_on_stderr():
    # the help stays in stdout's buffer until _emit flushes it, as it
    # flushes an envelope, and says on stderr that it cannot
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    with open("/dev/full", "wb") as full:
        done = subprocess.run([sys.executable, "-m", "forcing_lab.cli", "-h"], stdout=full,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    assert done.returncode == 2
    assert done.stderr.startswith(b"forcing-lab: cannot write help: ")
    assert done.stderr.count(b"\n") == 1


BOGUS = {"command": "", "ok": False, "error": {
    "type": "UsageError", "message": "argument command: invalid choice: 'bogus' (choose from "
    "'slalom', 'refine', 'extend', 'generic-run', 'smz', 'rapid', 'diagram', 'selftest')"}}


@pytest.mark.installed
@pytest.mark.parametrize("shell, env, code, envelope, stderr", [
    pytest.param("-h > /dev/full", {"PYTHONUNBUFFERED": "1"}, 2, None,
                 "forcing-lab: cannot write help: ", marks=NEEDS_DEV_FULL),
    ("diagram >&-", {}, 2, None, "forcing-lab: cannot write report: "),
    ("-h >&-", {}, 2, None, "forcing-lab: cannot write help: "),
    ("smz 2>&-", {}, 0, {"command": "smz", "ok": True, "report": {
        "delta": [], "delta_prime": [], "inputs": {"eps": ["1/2"], "horizon": 0}}}, ""),
    ("bogus 2>&-", {}, 2, BOGUS, ""),
    pytest.param("bogus 2>/dev/full", {}, 2, BOGUS, "", marks=NEEDS_DEV_FULL),
    ("smz <&-", {}, 2, {"command": "smz", "ok": False, "error": {
        "type": "UsageError", "message": "cannot read scenario: stdin is closed"}}, ""),
    pytest.param("diagram > /dev/full 2>&-", {}, 2, None, "", marks=NEEDS_DEV_FULL),
], ids=["help-full-unbuffered", "closed-stdout", "help-closed-stdout", "closed-stderr",
        "usage-closed-stderr", "usage-full-stderr", "closed-stdin", "full-stdout-closed-stderr"])
def test_a_closed_or_full_standard_stream_ends_in_its_exit_code(shell, env, code, envelope,
                                                                 stderr):
    # the child closes or redirects the stream itself; stdout holds one
    # envelope (meta aside) or nothing, stderr at most one line, and a
    # closed or failing stderr changes neither the code nor stdout
    base = {k: v for k, v in os.environ.items()
            if k not in ("FORCING_LAB_LOG", "PYTHONUNBUFFERED")}
    base["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    scenario = {"eps": ["1/2"], "horizon": 0} if shell.startswith("smz") else {
        "assignment": labels()}
    done = subprocess.run(["sh", "-c", f'exec "$0" -m forcing_lab.cli {shell}', sys.executable],
                          input=json.dumps(scenario), capture_output=True, text=True,
                          env={**base, **env}, timeout=60)
    assert "Traceback" not in done.stdout + done.stderr
    assert done.returncode == code, done.stderr
    if envelope is None:
        assert done.stdout == ""
    else:
        assert done.stdout.endswith("\n") and done.stdout.count("\n") == 1
        assert {k: v for k, v in json.loads(done.stdout).items() if k != "meta"} == envelope
    assert done.stderr.startswith(stderr) and done.stderr.count("\n") == (stderr != "")


NOT_UTF8 = "scenario is not UTF-8: 'utf-8' codec can't decode byte 0xff in position {}: " \
    "invalid start byte"


@pytest.mark.installed
@pytest.mark.parametrize("command, source, env, code, error", [
    ("smz", b"\xff\xfe", {}, 2, {"type": "UsageError", "message": NOT_UTF8.format(0)}),
    ("smz", b'{"eps": ["1/2"], "horizon": 0, "bogus\xff": 1}', {}, 2,
     {"type": "UsageError", "message": NOT_UTF8.format(37)}),
    ("diagram", json.dumps({"assignment": labels(b="aleph1\u00e9")}, ensure_ascii=False).encode(),
     {"PYTHONIOENCODING": "latin-1"}, 2,
     {"type": "ValueError", "message": "unknown cardinal label 'aleph1\u00e9'"}),
    pytest.param("smz", "/proc/self/mem", {}, 2, {
        "type": "UsageError", "message": "cannot read scenario: [Errno 5] Input/output error"},
        marks=pytest.mark.skipif(not os.path.exists("/proc/self/mem"),
                                 reason="this system has no /proc/self/mem")),
], ids=["not-utf8", "not-utf8-key", "latin-1-stdio", "open-but-unreadable"])
def test_stdin_and_input_read_the_same_bytes_alike(tmp_path, command, source, env, code, error):
    # the same bytes give the same envelope from stdin and from --input,
    # whatever the locale or PYTHONIOENCODING say; /proc/self/mem opens but
    # its first page cannot be read
    path = source
    if isinstance(source, bytes):
        path = tmp_path / "scenario.json"
        path.write_bytes(source)
    base = {k: v for k, v in os.environ.items() if k != "FORCING_LAB_LOG"}
    base["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    runs = []
    for argv, stdin in (([command], path), ([command, "-i", str(path)], os.devnull)):
        with open(stdin, "rb") as fh:
            runs.append(subprocess.run([sys.executable, "-m", "forcing_lab.cli", *argv],
                                       stdin=fh, capture_output=True, env={**base, **env},
                                       timeout=60))
    piped, named = runs
    assert (piped.returncode, piped.stdout, piped.stderr) == (named.returncode, named.stdout, b"")
    assert named.returncode == code and named.stderr == b""
    assert json.loads(named.stdout) == {"command": command, "ok": False, "error": error}


@NEEDS_DEV_FULL
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="this system has no /proc/self/fd")
def test_failed_writes_leave_no_file_descriptor_open(tmp_path, capsys):
    # each failed --out write points the file at os.devnull and closes both
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"eps": ["1/2"], "horizon": 0}))
    argv = ["smz", "--input", str(path), "--out", "/dev/full"]
    before = len(os.listdir("/proc/self/fd"))
    assert [cli.main(argv) for _ in range(3)] == [2, 2, 2]
    assert len(os.listdir("/proc/self/fd")) == before
    assert capsys.readouterr().out.count('"type":"UsageError"') == 3


# Linux carries the peak RSS of the image a process replaces at exec into
# its own, so the CLI is spawned by a small process, not by pytest's
RSS_PROBE = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE)
head, size = proc.stdout.read(60), 0
while chunk := proc.stdout.read(2 ** 20):
    size += len(chunk)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, size, head.decode())
"""


def test_a_depth_20_extend_writes_58_megabytes_in_little_memory():
    # 2,097,151 keys written from the layers piece by piece: the process
    # peaks at 15-17 MB RSS on Python 3.11; writing the whole envelope with
    # json.dumps from one pair per key peaked at 431 MB
    argv = ["extend", "--seed", "0", "--max-new-levels", "20"]
    done = run_module(argv, pinned_by("255/256"), "-c", RSS_PROBE, sys.executable)
    code, rss_kb, size, head = done.stdout.split(" ", 3)
    assert (code, done.stderr) == ("0", "")
    assert head.startswith('{"command":"extend","meta":{"wall_time_ms":') and '"ok":true' in head
    assert int(size) > 57 * 10 ** 6
    assert int(rss_kb) < 64 * 1024, f"{int(rss_kb) / 1024:.1f} MB"


def given_stem(tmp_path, depth):
    """An extend scenario whose condition is a complete given stem of depth:
    the condition of the report that extends pinned_by("255/256") to it."""
    code, env = run(tmp_path, ["extend", "--seed", "0", "--max-new-levels", str(depth)],
                    pinned_by("255/256"))
    assert code == 0 and env["report"]["condition"]["m"] == depth
    return {"condition": env["report"]["condition"]}


def test_a_given_depth_16_stem_extends_in_little_memory(tmp_path):
    # 131,071 given keys (3.3 MB in, 11 MB out) grown one level: on Python
    # 3.11 the process peaked at 46 MB with each key held once, at 48 MB with
    # the extension's chosen and retries as maps keyed by top, and at 63 MB
    # with the raw bytes kept, a tuple per key in the base, the inputs echo
    # in one dumps call and a tuple per top in stats.retries
    argv = ["extend", "--seed", "0", "--max-new-levels", "1"]
    done = run_module(argv, given_stem(tmp_path, 16), "-c", RSS_PROBE, sys.executable)
    code, rss_kb, size, head = done.stdout.split(" ", 3)
    assert (code, done.stderr) == ("0", "")
    assert head.startswith('{"command":"extend","meta":') and int(size) > 10 ** 7
    assert int(rss_kb) < 55 * 1024, f"{int(rss_kb) / 1024:.1f} MB"


def test_a_given_stem_is_held_once_from_read_to_write(tmp_path):
    # a given complete depth-14 stem (32,767 keys) grown one level through
    # cli.main holds each key once: its decoded [key, value] list and key
    # string, its entry in h, a pointer per top in each of the extension's
    # chosen and retries lists (half the keys are tops), and a pointer in the
    # scenario's list, the base and the tops.  On Python 3.11 that read 217 B
    # per key; with chosen and retries as maps keyed by top, 226 B; and
    # keeping the raw bytes, a tuple per key in the base, the inputs echo in
    # one dumps call and a tuple per top in stats.retries, 371 B
    path, out = tmp_path / "given.json", tmp_path / "out.json"
    scenario = given_stem(tmp_path, 14)
    path.write_text(json.dumps(scenario))
    pairs = scenario["condition"]["h"]
    pair = sys.getsizeof(json.loads(json.dumps(pairs[-1])))  # as the decoder sizes a pair
    entry = sys.getsizeof(dict(pairs)) / len(pairs)
    per_key = (pair + sys.getsizeof(pairs[-1][0]) + entry + struct.calcsize("P")
               + 3 * struct.calcsize("P"))
    argv = ["extend", "--seed", "0", "--max-new-levels", "1", "-i", str(path), "-o", str(out)]
    assert cli.main(argv) == 0  # compiles the schemas and fills the stem templates, kept
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * per_key * len(pairs), (
        f"{peak / len(pairs):.1f} B per key against {per_key:.1f}")


class WriteFailsOnce:
    """A text stream whose fifth write raises MemoryError, once; every other
    write and attribute is stream's."""

    def __init__(self, stream):
        self.stream, self.writes = stream, 0

    def write(self, text):
        self.writes += 1
        if self.writes == 5:
            raise MemoryError
        return self.stream.write(text)

    def __getattr__(self, name):
        return getattr(self.stream, name)


def test_a_write_failing_with_memory_error_exits_three_in_one_line(tmp_path, monkeypatch, capsys):
    # a MemoryError in the writer (seen in the inputs echo's dumps call under an
    # address-space limit) is this program's fault, not the reader's: exit 3
    # and one line on stderr, with the envelope cut short and no traceback
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"condition": SIMPLE_CONDITION}))
    stdout = WriteFailsOnce(io.StringIO())
    monkeypatch.setattr(sys, "stdout", stdout)
    assert cli.main(["extend", "--seed", "7", "-i", str(path)]) == 3
    assert stdout.writes == 5 and stdout.getvalue().startswith('{"command":"extend"')
    assert capsys.readouterr().err == "forcing-lab: cannot write report: MemoryError: \n"


def test_an_out_write_failing_with_memory_error_exits_three_on_stdout(tmp_path, monkeypatch,
                                                                       capsys):
    # as a failed --out write sends its UsageError, the failure goes to stdout
    # as an InternalError envelope; the --out file is closed
    path, out = tmp_path / "scenario.json", tmp_path / "out.json"
    path.write_text(json.dumps({"condition": SIMPLE_CONDITION}))
    opened = []

    def opening(file, mode="r", **kwargs):
        fh = open(file, mode, **kwargs)
        if mode == "w":
            opened.append(fh)
            return WriteFailsOnce(fh)
        return fh

    monkeypatch.setattr(cli, "open", opening, raising=False)
    assert cli.main(["extend", "--seed", "7", "-i", str(path), "-o", str(out)]) == 3
    captured = capsys.readouterr()
    env = json.loads(captured.out)
    assert env == {"command": "extend", "ok": False,
                   "error": {"type": "InternalError", "message": "MemoryError: "}}
    jsonschema.validate(env, REPORT_SCHEMA)
    assert captured.err == "" and opened[0].closed
    assert out.read_text().startswith('{"command":"extend"')


# candidate streams come from the interpreter's built-in SHAKE-256 where it
# has one, so an extension process never loads hashlib and with it OpenSSL
NEEDS_BUILTIN_SHA3 = pytest.mark.skipif(
    importlib.util.find_spec("_sha3") is None,
    reason="this Python has no built-in _sha3 module")


def imported_modules(done) -> set:
    """The modules a `-X importtime` process names on its stderr."""
    return {line.rsplit("|", 1)[1].strip()
            for line in done.stderr.splitlines() if line.startswith("import time:")}


# what the CLI never needs, least of all to open its packaged schemas; the
# oracle and the acceptance suite are for selftest alone
UNUSED = ("dataclasses", "inspect", "logging", "hashlib", "jsonschema",
          "importlib.resources", "pathlib", "zipfile", "tempfile", "typing",
          "argparse", "gettext", "locale", "shutil", "forcing_lab.oracle",
          "forcing_lab.acceptance")


@pytest.mark.installed
@pytest.mark.parametrize("argv, scenario, unused", [
    (["slalom"], {"name": HALVES_NAME}, UNUSED),
    pytest.param(["extend", "--seed", "7"], {"condition": SIMPLE_CONDITION},
                 (*UNUSED, "_hashlib"), marks=NEEDS_BUILTIN_SHA3),
    pytest.param(["generic-run", "--seed", "2026"], ONE_COVER_RUN,
                 (*UNUSED, "_hashlib"), marks=NEEDS_BUILTIN_SHA3),
], ids=["slalom", "extend", "generic-run"])
def test_commands_import_only_what_they_use(argv, scenario, unused):
    # -S keeps site and its .pth files from importing anything first, and
    # -X importtime names every module the process imports; the command
    # itself runs as __main__, and imports the layers
    done = run_module(argv, scenario, "-S", "-X", "importtime")
    assert done.returncode == 0, done.stdout
    bare = subprocess.run([sys.executable, "-S", "-X", "importtime", "-c", "pass"],
                          capture_output=True, text=True, timeout=60)
    imported = imported_modules(done) - imported_modules(bare)
    assert "forcing_lab.jsonio" in imported
    assert imported.isdisjoint(unused), sorted(imported & set(unused))


def test_log_lines_go_to_stderr_when_asked():
    done = run_module(["extend", "--seed", "7"], {"condition": SIMPLE_CONDITION},
                      FORCING_LAB_LOG="info")
    assert done.returncode == 0
    assert done.stderr.splitlines() == [
        "INFO forcing_lab.cli: extended depth 0 -> 8 (pinned 8)",
        "INFO forcing_lab.cli: extend finished with exit code 0"]


@pytest.mark.parametrize("value", ["basic_format", "no_such_level"])
def test_a_log_value_that_names_no_level_logs_warnings(value):
    # logging.BASIC_FORMAT is a format string, not a level
    done = run_module(["diagram"], {"assignment": labels()}, FORCING_LAB_LOG=value)
    quiet = run_module(["diagram"], {"assignment": labels()})
    assert done.returncode == quiet.returncode == 0
    assert done.stderr == ""  # nothing of this run is logged at warning level
    assert len(done.stdout.splitlines()) == 1
    assert json.loads(done.stdout)["ok"] is True


def test_no_log_lines_by_default():
    done = run_module(["extend", "--seed", "7"], {"condition": SIMPLE_CONDITION})
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["ok"] is True


def test_log_lines_go_to_stderr_when_the_envelope_goes_to_out(tmp_path):
    out = tmp_path / "out.json"
    done = run_module(["extend", "--seed", "7", "--out", str(out)],
                      {"condition": SIMPLE_CONDITION}, FORCING_LAB_LOG="info")
    assert (done.returncode, done.stdout) == (0, "")
    assert done.stderr.splitlines() == [
        "INFO forcing_lab.cli: extended depth 0 -> 8 (pinned 8)",
        "INFO forcing_lab.cli: extend finished with exit code 0"]
    assert json.loads(out.read_text())["ok"] is True


@pytest.mark.installed
@pytest.mark.parametrize("argv, scenario, code", [
    (["extend", "--seed", "0"], pinned_by("125/128"), 0),
    (["diagram"], {"assignment": labels(add_null="aleph2")}, 1),
    (["smz"], {"bogus_key": 1}, 2),
], ids=["ok", "failed-check", "refused"])
@pytest.mark.parametrize("to_out", [False, True], ids=["stdout", "out"])
def test_the_program_entry_writes_one_whole_envelope(tmp_path, capsys, argv, scenario,
                                                      code, to_out):
    # the process ends in os._exit once main returns: its envelope (3.1 MB
    # for the depth-16 extend) is one whole line on a pipe or in --out, and
    # its exit code and envelope are those of main run in this process
    path, out = tmp_path / "scenario.json", tmp_path / "out.json"
    path.write_text(json.dumps(scenario))
    argv = [*argv, "--input", str(path), *(["--out", str(out)] if to_out else [])]
    done = run_module(argv, None)
    assert (done.returncode, done.stderr) == (code, "")
    text = done.stdout + (out.read_text() if to_out else "")  # the one it went to
    assert text.endswith("\n") and text.count("\n") == 1
    assert cli.main(argv) == code
    mine = out.read_text() if to_out else capsys.readouterr().out
    unmetered = [{k: v for k, v in json.loads(t).items() if k != "meta"} for t in (text, mine)]
    assert unmetered[0] == unmetered[1] and unmetered[0]["command"] == argv[0]


def test_help_on_a_pipe_is_written_whole(capsys):
    # the help goes to a block-buffered pipe through _emit, which flushes it
    # before main returns and the process ends in os._exit
    done = run_module(["-h"], None)
    assert cli.main(["-h"]) == done.returncode == 0
    assert (done.stdout, done.stderr) == (capsys.readouterr().out, "")


# the CLI module run as __main__ under an exit handler that marks a
# normal interpreter exit; the -c process's argv is ["-c", "-m", module, ...]
AT_EXIT_PROBE = """
import atexit, runpy, sys
atexit.register(print, "interpreter torn down", file=sys.stderr)
sys.argv = sys.argv[2:]
runpy.run_module(sys.argv[0], run_name="__main__")
"""


def test_the_module_ends_without_tearing_down_the_interpreter():
    # os._exit skips the exit handlers and the freeing of every object and
    # module, and keeps the run's exit code
    done = run_module(["diagram"], {"assignment": labels(add_null="aleph2")},
                      "-c", AT_EXIT_PROBE)
    assert (done.returncode, done.stderr) == (1, "")
    assert json.loads(done.stdout)["ok"] is False


@pytest.mark.installed
def test_the_console_script_is_the_program_entry():
    from importlib import metadata
    scripts = [ep.value for ep in metadata.entry_points(group="console_scripts")
               if ep.name == "forcing-lab"]
    if not scripts:
        pytest.skip("forcing-lab is not installed")
    assert scripts == ["forcing_lab.cli:program"]


@pytest.mark.parametrize("argv, scenario, code", [
    (["slalom"], pinned_names_scenario("slalom", 3901), 0),
    (["refine"], pinned_names_scenario("refine", 3902), 0),
    (["extend", "--seed", "7"], {"condition": SIMPLE_CONDITION}, 0),
    (["extend", "--seed", "3", "--max-new-levels", "1"], {"condition": one_class_condition(8)}, 0),
    (["generic-run", "--seed", "2026"], ONE_COVER_RUN, 0),
    (["smz"], {"eps": ["1/2"] * 9, "horizon": 2, "heavy": [[], [["0/1", "1/4"]]]}, 0),
    (["rapid"], RAPID_SCENARIO, 0),
    (["diagram"], {"assignment": labels()}, 0),
    (["diagram"], {"assignment": labels(add_null="aleph2")}, 1),
    (["smz"], {"bogus_key": 1}, 2),
], ids=["slalom", "refine", "extend-fresh", "extend-given", "generic-run", "smz", "rapid",
        "diagram", "failed-check", "refused"])
def test_a_run_leaves_no_reference_cycle(tmp_path, argv, scenario, code):
    # program runs main with the cyclic collector off, which frees nothing
    # only while no run leaves a cycle for it to find
    gc.collect()
    gc.disable()
    try:
        assert run(tmp_path, argv, scenario)[0] == code
        assert gc.collect() == 0
    finally:
        gc.enable()


# cli.main replaced by one that tells whether the collector is on, then the
# process entry run as the forcing-lab script runs it
COLLECTOR_PROBE = """
import gc, sys
from forcing_lab import cli
def main():
    print("collector on in main:", gc.isenabled(), file=sys.stderr, flush=True)
    return 0
print("collector on before:", gc.isenabled(), file=sys.stderr, flush=True)
cli.main = main
cli.program()
"""


@pytest.mark.installed
def test_the_program_entry_runs_main_without_the_cycle_collector():
    done = run_module([], None, "-c", COLLECTOR_PROBE)
    assert (done.returncode, done.stderr.splitlines()) == (
        0, ["collector on before: True", "collector on in main: False"])


def test_the_cli_module_loads_every_layer():
    # perfbench/launcher.py wraps each layer it finds in sys.modules after
    # importing forcing_lab.cli alone, and fails on a layer not loaded yet.
    # This goes once the launcher imports the layers it wraps itself
    # (ROADMAP, "Untie the benchmark from the CLI's internals").
    layers = [f"forcing_lab.{name}" for name in ("cantor", "names", "poset", "smz", "diagram")]
    done = run_module([], None, "-c", "import sys, forcing_lab.cli\n"
                      f"print([m for m in {layers!r} if m not in sys.modules])")
    assert (done.returncode, done.stdout) == (0, "[]\n")


def in_property(keyword):
    """A schema whose one property, "a", is `keyword`."""
    return {"type": "object", "properties": {"a": keyword}, "$defs": {"a": {"items": {}}}}


@pytest.mark.installed
@pytest.mark.parametrize("schema, named", [
    (in_property({"enum": [1]}), ["enum"]),
    (in_property({"format": "date"}), ["format"]),
    (in_property({"$ref": "#/$defs/x"}), "#/$defs/x"),
    (in_property({"$ref": "https://example.com/a.json"}), "https://example.com/a.json"),
    (in_property({"$ref": "#/$defs/a/items"}), "#/$defs/a/items"),
    ({"type": "object", "properties": {"a": {"type": "string"}, "b": {"$ref": "#/$defs/b"}},
      "$defs": {"b": {"type": "array", "items": {"uniqueItems": True}}}}, ["uniqueItems"]),
    ({"type": "object", "properties": {"a": {"type": "object", "properties": {
        "b": {"type": "object", "properties": {"c": {"const": 1}}}}}}}, ["const"]),
], ids=["enum", "format", "$ref", "$ref-remote", "$ref-pointer", "$defs-unused", "nested"])
def test_compile_refuses_unknown_keywords(schema, named):
    # a reference is compiled only when it names an entry of the root's
    # $defs; a property's check is compiled when an instance first has the
    # property, but the whole schema is checked when it is compiled
    with pytest.raises(NotImplementedError, match=re.escape(repr(named))):
        compile_schema(schema)


REFERRING_SCHEMA = {
    "type": "object",
    "properties": {
        "words": {"$ref": "#/$defs/words"},
        "zeros": {"$ref": "#/$defs/bits", "pattern": "^0*$"},
        "count": {"$ref": "#/$defs/natural", "type": "integer"},
    },
    "$defs": {
        "bits": {"type": "string", "pattern": "^[01]*$"},
        "word": {"$ref": "#/$defs/bits"},
        "words": {"type": "array", "items": {"$ref": "#/$defs/word"}, "maxItems": 2},
        "natural": {"minimum": 0},
    },
}


@pytest.mark.installed
def test_compiled_references_match_jsonschema():
    # words -> word -> bits is a two-step chain; zeros and count add a
    # sibling keyword to the entry they name
    compiled = compile_schema(REFERRING_SCHEMA)
    reference = jsonschema.Draft202012Validator(REFERRING_SCHEMA)
    values = [None, True, 0, -1, 2.0, 2.5, "", "0", "01", "2", [], ["0"], ["01", "2"],
              ["0", "1", "0"], [1], {}]
    instances = [{k: v} for k in ("words", "zeros", "count") for v in values]
    for x in instances:
        assert_agrees(compiled, reference, x)
    accepted = sum(compiled(x) is None for x in instances)
    assert 0 < accepted < len(instances)
    path, _, message = compiled({"words": ["0", "2"]})
    assert (message, path) == ("'2' does not match '^[01]*$'", ("words", 1))


@pytest.mark.installed
@pytest.mark.parametrize("schema", [
    {"minimum": 2}, {"pattern": "^a"}, {"required": ["a"]}, {"minItems": 1}, {"maxItems": 1},
    {"properties": {"a": {"type": "string"}}}, {"additionalProperties": False},
    {"prefixItems": [{"type": "string"}], "items": {"type": "integer"}},
    {"type": ["integer", "null"], "minimum": 1},
], ids=repr)
def test_keywords_pass_other_types_like_jsonschema(schema):
    # the packaged schemas never use these keywords without a "type" beside them
    compiled = compile_schema(schema)
    reference = jsonschema.Draft202012Validator(schema)
    for x in [False, True, 0, 1, 2, 2.0, "", "a", "b", None, [], ["a"], ["a", 1], ["a", "b"],
              [1], {}, {"a": 1}, {"a": "x"}, {"b": 1}]:
        assert_agrees(compiled, reference, x)


def assert_agrees(compiled, reference, x):
    """The compiled check accepts `x` exactly when the jsonschema validator
    `reference` does, and rejects it at a path and keyword jsonschema names."""
    error = compiled(x)
    assert (error is None) == reference.is_valid(x), (x, error)
    if error is not None:
        named = {(tuple(e.absolute_path), e.validator) for e in reference.iter_errors(x)}
        assert error[:2] in named, (x, error, named)


def compiled_and_reference(name):
    return (compile_schema(packaged_schema(name)),
            jsonschema.Draft202012Validator(packaged_schema(name)))


COMPILED_SCENARIO, REFERENCE_SCENARIO = compiled_and_reference("scenario.schema.json")
COMPILED_REPORT, REFERENCE_REPORT = compiled_and_reference("report.schema.json")

INTEGER_EDGES = [2.0, True, math.nan, math.inf, -0.0, 10 ** 30]
EDGE_SCENARIOS = [
    {"condition_set": ["01\n"]},
    *({"horizon": v} for v in INTEGER_EDGES),
    *({"set": [v]} for v in INTEGER_EDGES),
    *({"condition": {"m": v, "h": [], "u": []}} for v in INTEGER_EDGES),
    *({"name": {"horizon": 1, "coords": [[{"label": v, "cells": []}]]}} for v in INTEGER_EDGES),
    *(cover(at_step=v) for v in INTEGER_EDGES),
    *({"covers": [{"cover": {"resolution": [v, 1], "rects": []}, "eps": v}]}
      for v in INTEGER_EDGES),
    {"condition_set": [], "covers": [], "set": [], "heavy": [[]], "function": []},
    *({"covers": [{"cover": {"resolution": [1, 1], "rects": [rect]}, "eps": "1/2"}]}
      for rect in ([], ["0"], ["0", "1", "0"], ["0", "1"])),
    *({"assignment": {"b": v}} for v in (1, None, True, ["aleph1"], {}, 2.0, "aleph1")),
]


@pytest.mark.installed
def test_compiled_check_matches_jsonschema_on_edge_values():
    for x in EDGE_SCENARIOS:
        assert_agrees(COMPILED_SCENARIO, REFERENCE_SCENARIO, x)
    accepted = sum(COMPILED_SCENARIO(x) is None for x in EDGE_SCENARIOS)
    assert 0 < accepted < len(EDGE_SCENARIOS)


BITS = ["0", "", "01", "110", "1"]
# where each bit-string array sits in a scenario, and its array of pairs
BIT_ARRAYS = {
    "condition_set": lambda items: {"condition_set": items},
    "cells": lambda items: {"name": {"horizon": 1, "coords": [[
        {"label": 0, "cells": BITS}, {"label": 1, "cells": items}]]}},
}
PAIR_ARRAYS = {
    "h": lambda pairs: {"condition": {"m": 0, "h": pairs, "u": []}},
    "rects": lambda pairs: {"covers": [{"cover": {"resolution": [1, 1], "rects": pairs},
                                        "eps": "1/2"}]},
}
BAD_ITEMS = [7, True, None, ["0"], "012"]


def assert_same_first_error(x, path):
    """The compiled check rejects `x` at `path` with jsonschema's message
    for the one error jsonschema finds there."""
    errors = list(REFERENCE_SCENARIO.iter_errors(x))
    assert [tuple(e.absolute_path) for e in errors] == [path], errors
    assert COMPILED_SCENARIO(x) == (path, errors[0].validator, errors[0].message)


@pytest.mark.installed
@pytest.mark.parametrize("bad", BAD_ITEMS, ids=repr)
@pytest.mark.parametrize("index", [0, 2, 4], ids=["first", "middle", "last"])
@pytest.mark.parametrize("section", BIT_ARRAYS)
def test_bulk_bit_arrays_give_jsonschemas_verdict(section, index, bad):
    # the compiled check matches these arrays in one pass; a failing item
    # must still be named at its own index, with jsonschema's wording
    build = BIT_ARRAYS[section]
    assert COMPILED_SCENARIO(build(BITS)) is None and REFERENCE_SCENARIO.is_valid(build(BITS))
    x = build(replaced(BITS, (index,), bad))
    path = (("condition_set",) if section == "condition_set"
            else ("name", "coords", 0, 1, "cells"))
    assert_same_first_error(x, (*path, index))


@pytest.mark.installed
@pytest.mark.parametrize("bad", BAD_ITEMS, ids=repr)
@pytest.mark.parametrize("slot", [0, 1])
@pytest.mark.parametrize("index", [0, 1, 2], ids=["first", "middle", "last"])
@pytest.mark.parametrize("section", PAIR_ARRAYS)
def test_bulk_bit_pairs_give_jsonschemas_verdict(section, index, slot, bad):
    build = PAIR_ARRAYS[section]
    pairs = [["0", "1"], ["", "01"], ["10", ""]]
    assert COMPILED_SCENARIO(build(pairs)) is None and REFERENCE_SCENARIO.is_valid(build(pairs))
    x = build(replaced(pairs, (index, slot), bad))
    path = ("condition", "h") if section == "h" else ("covers", 0, "cover", "rects")
    assert_same_first_error(x, (*path, index, slot))


# near misses of an array of pairs: (the pairs, where the one error is, or None)
PAIR_NEAR_MISSES = {
    "newline-last": ([["0", "1"], ["", "01"], ["10", "01\n"]], None),
    "newline-first": ([["0\n", "1"], ["", "01"], ["10", ""]], None),
    "three-items": ([["0", "1"], ["", "01", "1"], ["10", ""]], (1,)),
    "one-item": ([["0", "1"], ["", "01"], ["10"]], (2,)),
    "object": ([["0", "1"], {"": "01"}, ["10", ""]], (1,)),
    "number": ([["0", "1"], ["", "01"], 7], (2,)),
    "nested": ([["0", "1"], [[""], "01"], ["10", ""]], (1, 0)),
    "empty": ([], None),
}


def per_item_check(monkeypatch):
    """The compiled scenario check with no bulk short cut: every array goes
    through its per-item loop."""
    monkeypatch.setattr(schemacheck, "_bulk", lambda items, defs: None)
    return compile_schema(packaged_schema("scenario.schema.json"))


@pytest.mark.installed
@pytest.mark.parametrize("miss", PAIR_NEAR_MISSES)
@pytest.mark.parametrize("section", PAIR_ARRAYS)
def test_bulk_bit_pairs_give_the_per_item_verdict_on_near_misses(section, miss, monkeypatch):
    # the bulk pass over an array of pairs must give the per-item loop's and
    # jsonschema's verdict and message; a string ending in a newline passes
    # both, since re.search's $ matches before a final newline
    pairs, at = PAIR_NEAR_MISSES[miss]
    x = PAIR_ARRAYS[section](pairs)
    assert COMPILED_SCENARIO(x) == per_item_check(monkeypatch)(x)
    if at is None:
        assert COMPILED_SCENARIO(x) is None and REFERENCE_SCENARIO.is_valid(x)
    else:
        path = ("condition", "h") if section == "h" else ("covers", 0, "cover", "rects")
        assert_same_first_error(x, (*path, *at))


@pytest.mark.installed
def test_no_bit_string_of_a_valid_scenario_is_checked_alone(monkeypatch):
    # every bit string of a name's cells, a condition set, a given stem and
    # a cover's rects is matched by its array's short cut, so an edit that
    # switches the short cut off fails here; a weight table's rows hold a
    # rational, so they are checked item by item, and the stem has no weights
    alone = Counter()
    string = schemacheck._string

    def counted(schema, sub, defs):
        if (check := string(schema, sub, defs)) is None:
            return None

        def counting(x):
            alone[schema["pattern"]] += 1
            return check(x)
        return counting
    monkeypatch.setattr(schemacheck, "KINDS", tuple(
        (cls, counted if build is string else build) for cls, build in schemacheck.KINDS))
    check = compile_schema(packaged_schema("scenario.schema.json"))
    scenario = {
        "name": HALVES_NAME,
        "condition_set": ["0", "10", ""],
        "condition": {"m": 1, "h": [["", ""], ["0", "1"], ["1", "10"]], "u": []},
        "covers": [{"cover": {"resolution": [1, 1], "rects": [["0", "1"], ["1", ""]]},
                    "eps": "1/2"}],
    }
    assert check(scenario) is None
    # the cover's eps, a rational, is checked alone: the count sees strings
    assert alone["^[01]*$"] == 0 and sum(alone.values()) == 1


def test_bits_with_trailing_newline_pass_schema_and_fail_decoding(tmp_path):
    scenario = {"name": HALVES_NAME, "function": [2, 2], "condition_set": ["01\n"]}
    assert COMPILED_SCENARIO(scenario) is None and REFERENCE_SCENARIO.is_valid(scenario)
    code, env = run(tmp_path, ["refine"], scenario)
    assert code == 2
    assert env["error"]["type"] == "ValueError"


EDGE_VALUES = [None, True, 0, -1, 2.0, 2.5, -0.0, math.nan, math.inf, 10 ** 30,
               "", "01\n", "1/2", "x", [], [""], {}, {"zz": 1}]


def node_paths(x, path=()):
    yield path
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for k, v in items:
        yield from node_paths(v, path + (k,))


def variants(node):
    """Values to put in place of `node`: every edge value, and `node` with
    one key or item dropped or added."""
    yield from EDGE_VALUES
    if isinstance(node, dict):
        yield {**node, "zz": 0}
        yield from ({k: v for k, v in node.items() if k != gone} for gone in node)
    elif isinstance(node, list):
        yield node[:-1]
        yield node + node[-1:] if node else [0]


def mutants(x):
    """`x` with one node replaced, for every node and variant."""
    for path in node_paths(x):
        node = x
        for k in path:
            node = node[k]
        yield from (replaced(x, path, v) for v in variants(node))


@pytest.mark.installed
@pytest.mark.parametrize("scenario", BROKEN_SCENARIOS.values(), ids=BROKEN_SCENARIOS)
def test_compiled_check_matches_jsonschema_on_broken_mutants(scenario):
    for x in [scenario, *mutants(scenario)]:
        assert_agrees(COMPILED_SCENARIO, REFERENCE_SCENARIO, x)
        assert_agrees(COMPILED_REPORT, REFERENCE_REPORT, x)


bit_strings = st.text(alphabet="01", max_size=3)
rationals = st.one_of(st.integers(-2, 5), st.sampled_from(["1/2", "-3", "0/1", "7/8"]))
pairs = st.lists(st.lists(bit_strings, min_size=2, max_size=2), max_size=3)
naturals = st.lists(st.integers(0, 20), max_size=3)
weights = st.fixed_dictionaries({
    "resolution": st.lists(st.integers(0, 2), min_size=2, max_size=2),
    "table": st.lists(st.tuples(bit_strings, bit_strings, rationals).map(list), max_size=3)})
planes = st.fixed_dictionaries({
    "resolution": st.lists(st.integers(0, 2), min_size=2, max_size=2), "rects": pairs})
SECTIONS = {
    "name": st.fixed_dictionaries({"horizon": st.integers(0, 3), "coords": st.lists(st.lists(
        st.fixed_dictionaries({"label": st.integers(-1, 3), "cells": st.lists(bit_strings)}),
        max_size=2), max_size=2)}),
    "function": st.lists(st.integers(-1, 9), max_size=3),
    "condition_set": st.lists(bit_strings, max_size=3),
    "start": st.integers(0, 3),
    "condition": st.fixed_dictionaries({
        "m": st.integers(0, 3), "h": pairs,
        "u": st.lists(st.fixed_dictionaries({"eps": rationals, "phi": weights}), max_size=2)}),
    "covers": st.lists(st.fixed_dictionaries(
        {"cover": planes, "eps": rationals}, optional={"at_step": st.integers(0, 3)}), max_size=2),
    "steps": st.integers(1, 3),
    "eps": st.lists(rationals, max_size=3),
    "horizon": st.integers(0, 3),
    "heavy": st.lists(st.lists(st.lists(rationals, min_size=2, max_size=2), max_size=2),
                      max_size=2),
    "set": naturals, "blocks": st.integers(0, 3), "rapid": naturals, "selection": naturals,
    "checkpoints": naturals,
    "product": st.fixed_dictionaries({"start": st.integers(0, 3), "stop": st.integers(0, 3)}),
    **dict.fromkeys(("assignment", "ground", "extension"),
                    st.dictionaries(st.sampled_from(sorted(NODES)), st.just("aleph1"))),
}
scenarios = st.fixed_dictionaries({}, optional=SECTIONS)
envelopes = st.fixed_dictionaries({"command": st.sampled_from(["extend", ""]), "ok": st.booleans()}, optional={
    "report": st.dictionaries(st.sampled_from(["inputs", "seed"]), st.integers(0, 3)),
    "meta": st.fixed_dictionaries({"wall_time_ms": st.floats(allow_nan=True)}),
    "error": st.fixed_dictionaries({"type": st.just("UsageError"), "message": st.text(max_size=3)},
                                   optional={"step": st.integers(-1, 3)}),
})


@pytest.mark.installed
@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.one_of(scenarios, envelopes), st.data())
def test_compiled_check_matches_jsonschema(instance, data):
    mutant = data.draw(st.sampled_from([instance, *mutants(instance)]))
    for x in (instance, mutant):
        assert_agrees(COMPILED_SCENARIO, REFERENCE_SCENARIO, x)
        assert_agrees(COMPILED_REPORT, REFERENCE_REPORT, x)


def test_missing_section_exits_two(tmp_path):
    code, env = run(tmp_path, ["diagram"], {})
    assert code == 2
    assert "assignment" in env["error"]["message"]


def test_envelope_text_is_byte_stable(tmp_path):
    out = tmp_path / "report.json"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"assignment": labels()}))
    cli.main(["diagram", "--input", str(path), "--out", str(out)])
    text = out.read_text()
    assert text.endswith("\n")
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.installed
def test_readme_examples_run(monkeypatch, capsys):
    examples = [
        (shlex.split(m.group(2)), m.group(1))
        for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
        for m in re.finditer(
            r"echo '(.*?)'\s*\\?\s*\|\s*forcing-lab ([^\n]*)", block, re.S)
    ]
    assert [argv[0] for argv, _ in examples] == [
        "slalom", "extend", "smz", "rapid", "diagram"]
    for argv, scenario in examples:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(scenario.encode())))
        code = cli.main(argv)
        env = json.loads(capsys.readouterr().out)
        assert code == 0, (argv, env)
        jsonschema.validate(env, REPORT_SCHEMA)


def stated_value(comment):
    # the longest prefix of a README comment, cut at "," or ":", that evaluates
    cuts = [i for i, c in enumerate(comment) if c in ",:"] + [len(comment)]
    for i in reversed(cuts):
        try:
            return eval(comment[:i], {"Fraction": Rational})
        except Exception:
            continue
    raise AssertionError(f"README comment states no value: {comment!r}")


@pytest.mark.installed
def test_readme_examples_python():
    namespace = {}
    checked = []
    for block in re.findall(r"```python\n(.*?)```", README.read_text(), re.S):
        comments = {
            tok.start[0]: tok.string.lstrip("# ")
            for tok in tokenize.generate_tokens(io.StringIO(block).readline)
            if tok.type == tokenize.COMMENT}
        for stmt in ast.parse(block).body:
            if isinstance(stmt, ast.Expr) and stmt.end_lineno in comments:
                value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
                assert value == stated_value(comments[stmt.end_lineno]), ast.unparse(stmt)
                checked.append(value)
            else:
                exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    assert checked == [
        Rational(3, 4), Rational(1, 4), (frozenset(), frozenset({0, 1})),
        (Rational(1), 3), 8, True, True, 2]


def test_public_names_resolve():
    names = forcing_lab.__all__
    assert names == sorted(names)
    listed = [name for group in forcing_lab._EXPORTS.values() for name in group]
    assert sorted(listed) == names  # each name under exactly one module
    for module, group in forcing_lab._EXPORTS.items():
        layer = importlib.import_module(f"forcing_lab.{module}")
        for name in group:
            assert getattr(forcing_lab, name) is getattr(layer, name)
    assert set(names) <= set(dir(forcing_lab))
    with pytest.raises(AttributeError):
        forcing_lab.no_such_name


def unused_imports(source):
    """The names a module's imports bind and its code never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_modules_use_every_name_they_import():
    package = Path(forcing_lab.__file__).resolve().parent
    unused = {path.name: sorted(names) for path in sorted(package.glob("*.py"))
              if (names := unused_imports(path.read_text()))}
    assert unused == {}


@pytest.mark.installed
def test_package_import_loads_no_layer():
    # the forcing_lab this test imported, installed or from src/
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    probe = ("import sys, forcing_lab\n"
             "print(sorted(m for m in sys.modules if m.startswith('forcing_lab')))\n"
             "from forcing_lab import ClopenSet, jsonio\n"
             "print('forcing_lab.cantor' in sys.modules, 'forcing_lab.poset' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert done.stdout.splitlines() == ["['forcing_lab']", "True True"]
