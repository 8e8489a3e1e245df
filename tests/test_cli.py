"""End-to-end runs of cli.main with file and stdio plumbing.

The bundled selftest command is exercised by the acceptance tests, not
here; these cases pin envelope shape, exit codes, and determinism, and
hold the compiled schema check (forcing_lab.schemacheck) to the verdicts
of jsonschema's Draft 2020-12 validator on the packaged schemas.
"""

import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction as Rational
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcing_lab import cli
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


def run(tmp_path, argv, scenario=None, raw=None):
    argv = list(argv)
    if scenario is not None or raw is not None:
        path = tmp_path / "scenario.json"
        path.write_text(raw if raw is not None else json.dumps(scenario))
        argv += ["--input", str(path)]
    out = tmp_path / "report.json"
    argv += ["--out", str(out)]
    code = cli.main(argv)
    return code, json.loads(out.read_text())


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
    monkeypatch.setattr(
        "sys.stdin", io.StringIO(json.dumps({"assignment": labels()})))
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
        "3718dce682dfe3bb6f6110be098eeaa762b40995adada077fa7d8dfed0737969")


def test_extend_without_seed_exits_two(tmp_path):
    code, env = run(tmp_path, ["extend"], {"condition": SIMPLE_CONDITION})
    assert code == 2
    assert "--seed" in env["error"]["message"]


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
        "6cce07127deae2bfae65a5172560d554557f63b8e2d705d3a50c04b962214431")


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


@pytest.mark.parametrize("flag", ["--retry-cap", "--exhaustive-cap"])
@pytest.mark.parametrize("command, scenario", [
    ("extend", {"condition": SIMPLE_CONDITION}),
    ("generic-run", ONE_COVER_RUN),
], ids=["extend", "generic-run"])
def test_negative_search_cap_exits_two(tmp_path, command, scenario, flag):
    code, env = run(tmp_path, [command, "--seed", "1", flag, "-1"], scenario)
    assert code == 2
    assert env["error"] == {
        "type": "ValueError",
        "message": f"{flag[2:].replace('-', '_')} must be at least 0, got -1"}
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


def test_rapid_combined_report(tmp_path):
    scenario = {
        "set": [k ** 3 for k in range(10)],
        "blocks": 5,
        "rapid": [j * j for j in range(30)],
        "selection": [1, 6, 15],
        "checkpoints": [1, 5, 9, 20, 29],
    }
    code, env = run(tmp_path, ["rapid"], scenario)
    assert code == 0
    assert env["report"]["thin"]["ok"] is True
    assert env["report"]["rapidity"] == {
        "ok": True, "witness": None, "counts": [0, 1, 1, 1, 1]}


def test_rapid_needs_some_section(tmp_path):
    code, env = run(tmp_path, ["rapid"], {})
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["extend", "--seed", "abc"],
    ["diagram", "--bogus"],
], ids=["bad-seed", "unknown-flag"])
def test_bad_arguments_exit_two_with_envelope(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    env = json.loads(captured.out)
    assert code == 2
    assert env["command"] == argv[0]
    assert env["error"]["type"] == "UsageError"
    assert captured.err.startswith("usage:")
    jsonschema.validate(env, REPORT_SCHEMA)


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


def test_schema_violation_exits_two(tmp_path, monkeypatch):
    asked = []

    class Spy:  # a stand-in bound to cli.jsonschema, as the traced launcher binds one
        ValidationError = jsonschema.ValidationError

        def validate(self, instance, schema):
            asked.append(schema["title"])
            jsonschema.validate(instance, schema)

    monkeypatch.setattr(cli, "jsonschema", Spy())
    code, env = run(tmp_path, ["smz"], {"bogus_key": 1})
    assert code == 2
    assert "schema" in env["error"]["message"]
    assert asked == ["forcing-lab scenario"]


SCHEMA_FILES = ("scenario.schema.json", "report.schema.json")


def packaged_schema(name):
    return json.loads(resources.files("forcing_lab.schemas").joinpath(name).read_text())


@pytest.mark.parametrize("name", SCHEMA_FILES)
def test_loaded_schema_is_reference_free(name):
    loaded = cli._load_schema(name)
    text = json.dumps(loaded)
    assert "$ref" not in text and "$defs" not in text
    assert loaded["title"] == packaged_schema(name)["title"]
    jsonschema.Draft202012Validator.check_schema(loaded)


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


@pytest.mark.parametrize("scenario", BROKEN_SCENARIOS.values(), ids=BROKEN_SCENARIOS)
def test_loaded_schema_reports_like_packaged(scenario):
    def failure(schema):
        with pytest.raises(jsonschema.ValidationError) as info:
            jsonschema.validate(scenario, schema)
        return info.value.message, list(info.value.absolute_path)

    name = "scenario.schema.json"
    assert failure(cli._load_schema(name)) == failure(packaged_schema(name))


BAD_BITS_MESSAGE = "scenario fails schema at name/coords/1/1/cells/1: '1a' does not match '^[01]*$'"


def test_bad_bits_deep_in_name_keep_their_message(tmp_path):
    name = json.loads(json.dumps(HALVES_NAME))
    name["coords"][1][1]["cells"] = ["10", "1a"]
    code, env = run(tmp_path, ["slalom"], {"name": name})
    assert code == 2
    # the text the packaged schema gave before its references were inlined
    assert env["error"] == {"type": "UsageError", "message": BAD_BITS_MESSAGE}


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
    assert (code, imported) == (2, "True")
    assert out["error"] == {"type": "UsageError", "message": BAD_BITS_MESSAGE}


@pytest.mark.parametrize("disowned", SCHEMA_FILES)
def test_compiled_check_disagreeing_with_jsonschema_exits_three(tmp_path, monkeypatch, disowned):
    real = cli._compiled
    monkeypatch.setattr(cli, "_compiled", lambda name: (
        real(name)[0], (lambda x: False) if name == disowned else real(name)[1]))
    ran = []
    monkeypatch.setitem(cli.HANDLERS, "diagram", lambda args, scenario: ran.append(1) or (True, {}))
    code, env = run(tmp_path, ["diagram"], {"assignment": labels()})
    assert code == 3
    assert env == {"command": "diagram", "ok": False, "error": {
        "type": "InternalError",
        "message": f"RuntimeError: the compiled check of {disowned} rejects what jsonschema accepts"}}
    assert ran == ([] if disowned == "scenario.schema.json" else [1])


@pytest.mark.parametrize("keyword", [{"enum": [1]}, {"format": "date"}, {"$ref": "#/$defs/x"}],
                         ids=["enum", "format", "$ref"])
def test_compile_refuses_unknown_keywords(keyword):
    with pytest.raises(NotImplementedError, match=re.escape(repr(sorted(keyword)))):
        compile_schema({"type": "object", "properties": {"a": keyword}})


@pytest.mark.parametrize("schema", [
    {"minimum": 2}, {"pattern": "^a"}, {"required": ["a"]}, {"minItems": 1}, {"maxItems": 1},
    {"properties": {"a": {"type": "string"}}}, {"additionalProperties": False},
    {"prefixItems": [{"type": "string"}], "items": {"type": "integer"}},
    {"type": ["integer", "null"], "minimum": 1},
], ids=repr)
def test_keywords_pass_other_types_like_jsonschema(schema):
    # the packaged schemas never use these keywords without a "type" beside them
    compiled = compile_schema(schema)
    reference = jsonschema.Draft202012Validator(schema).is_valid
    for x in [False, True, 0, 1, 2, 2.0, "", "a", "b", None, [], ["a"], ["a", 1], ["a", "b"],
              [1], {}, {"a": 1}, {"a": "x"}, {"b": 1}]:
        assert compiled(x) == reference(x), x


def compiled_and_reference(name):
    return (compile_schema(cli._load_schema(name)),
            jsonschema.Draft202012Validator(packaged_schema(name)).is_valid)


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


def test_compiled_check_matches_jsonschema_on_edge_values():
    verdicts = [COMPILED_SCENARIO(x) for x in EDGE_SCENARIOS]
    assert verdicts == [REFERENCE_SCENARIO(x) for x in EDGE_SCENARIOS]
    assert 0 < sum(verdicts) < len(verdicts)


def test_bits_with_trailing_newline_pass_schema_and_fail_decoding(tmp_path):
    scenario = {"name": HALVES_NAME, "function": [2, 2], "condition_set": ["01\n"]}
    assert COMPILED_SCENARIO(scenario) and REFERENCE_SCENARIO(scenario)
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


def replaced(x, path, value):
    if not path:
        return value
    copy = dict(x) if isinstance(x, dict) else list(x)
    copy[path[0]] = replaced(x[path[0]], path[1:], value)
    return copy


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


@pytest.mark.parametrize("scenario", BROKEN_SCENARIOS.values(), ids=BROKEN_SCENARIOS)
def test_compiled_check_matches_jsonschema_on_broken_mutants(scenario):
    for x in [scenario, *mutants(scenario)]:
        assert COMPILED_SCENARIO(x) == REFERENCE_SCENARIO(x), x
        assert COMPILED_REPORT(x) == REFERENCE_REPORT(x), x


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


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.one_of(scenarios, envelopes), st.data())
def test_compiled_check_matches_jsonschema(instance, data):
    mutant = data.draw(st.sampled_from([instance, *mutants(instance)]))
    for x in (instance, mutant):
        assert COMPILED_SCENARIO(x) == REFERENCE_SCENARIO(x)
        assert COMPILED_REPORT(x) == REFERENCE_REPORT(x)


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
        monkeypatch.setattr("sys.stdin", io.StringIO(scenario))
        code = cli.main(argv)
        env = json.loads(capsys.readouterr().out)
        assert code == 0, (argv, env)
        jsonschema.validate(env, REPORT_SCHEMA)
