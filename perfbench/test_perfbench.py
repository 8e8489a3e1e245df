"""Self-tests of the benchmark: generator, checker, launcher and a short
run of every workload.

    python -m pytest perfbench -q

They run the forcing_lab sources under src/ and take a few minutes.
"""

import copy
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import checker  # noqa: E402
import launcher  # noqa: E402
import workloads  # noqa: E402
from forcing_lab import cli  # noqa: E402

DEFAULT_SEED = 0


def run_cli(tmp_path, argv, scenario):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "envelope.json"
    cli.main([*argv, "--input", str(path), "--out", str(out)])
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def schema():
    return checker.Schema(SRC)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = workloads.build(workload, 7)
    assert first == workloads.build(workload, 7)
    assert first != workloads.build(workload, 8)
    assert workloads.mix(first) == workloads.mix(workloads.build(workload, 8))


def test_checker_rejects_flipped_top_bit(tmp_path, schema):
    weight = {"eps": "1/2", "phi": workloads.full_weight()}
    scenario = {"condition": {"m": 1, "h": [["", "1"], ["0", "10"], ["1", "11"]], "u": [weight]}}
    envelope = run_cli(tmp_path, ["extend", "--seed", "7"], scenario)
    assert checker.check_envelope("extend", scenario, envelope, schema) == []
    bad = copy.deepcopy(envelope)
    h = bad["report"]["condition"]["h"]
    top = max(range(len(h)), key=lambda i: len(h[i][0]))
    value = h[top][1]
    h[top][1] = ("0" if value[0] == "1" else "1") + value[1:]
    assert checker.check_envelope("extend", scenario, bad, schema)


def test_checker_rejects_missing_h_key(tmp_path, schema):
    scenario = {"condition": workloads.fresh_condition(random.Random(3), 7)}
    envelope = run_cli(tmp_path, ["extend", "--seed", "11"], scenario)
    assert checker.check_envelope("extend", scenario, envelope, schema) == []
    bad = copy.deepcopy(envelope)
    del bad["report"]["condition"]["h"][5]
    assert checker.check_envelope("extend", scenario, bad, schema)


def test_checker_rejects_lowered_score(tmp_path, schema):
    scenario = {"steps": 2, "covers": [
        {"cover": {"resolution": [1, 2], "rects": [["0", "00"]]}, "eps": "1/4"}]}
    envelope = run_cli(tmp_path, ["generic-run", "--seed", "2026"], scenario)
    assert checker.check_envelope("generic-run", scenario, envelope, schema) == []
    bad = copy.deepcopy(envelope)
    cert = bad["report"]["trace"][-1]["certificates"][0]
    cert["scoreF"] = checker.rat(1 - Fraction(scenario["covers"][0]["eps"]))
    assert checker.check_envelope("generic-run", scenario, bad, schema)


def test_launcher_traces_every_layer(tmp_path):
    """One traced call per command kind covers a span of every layer."""
    ops = {}
    for workload in workloads.WORKLOADS:
        for op in workloads.build(workload, DEFAULT_SEED)[0]:
            ops.setdefault(op.command, op)
    calls = {}
    env = {"PYTHONPATH": str(SRC)}
    for op in ops.values():
        scenario = tmp_path / f"{op.key}.json"
        scenario.write_text(json.dumps(op.scenario))
        spans = tmp_path / "spans.json"
        done = subprocess.run(
            [sys.executable, str(HERE / "launcher.py"), str(spans), op.command, *op.args,
             "--input", str(scenario)], env=env, stdout=subprocess.DEVNULL, timeout=120)
        assert done.returncode == 0, op.key
        for name, (_, n) in json.loads(spans.read_text())["spans"].items():
            calls[name] = calls.get(name, 0) + n
    for layer in ("cli", "jsonio", "poset", "cantor", "names", "smz", "diagram"):
        assert any(n for name, n in calls.items() if name.startswith(layer + ".")), layer
    assert set(calls) == set(launcher.ALL_SPANS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_has_no_failures_on_default_seed(workload):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(DEFAULT_SEED),
         "--seconds", str(bench["run_seconds"]), "--trace", "0"],
        capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {e["name"] for e in bench["end_to_end"]}
    record = json.loads((HERE / "results" / f"{workload}-seed{DEFAULT_SEED}-trace0.json").read_text())
    assert record["metrics"]["fail_ratio"]["value"] == 0
