"""Command line front end.

Scenarios arrive as JSON (stdin or --input), are validated against the
packaged scenario schema, and every run emits a single JSON envelope:

    {"command": ..., "ok": ..., "report": {...}, "meta": {"wall_time_ms": ...}}

The report body echoes the scenario under "inputs", records the seed for
seeded commands, and is deterministic for a fixed scenario and seed; only
meta varies.  Exit codes: 0 when the run's checks all pass, 1 for domain errors
or failed checks, 2 for unusable input (bad JSON, schema violations,
missing sections, missing --seed), 3 for any other failure, reported as
an "InternalError" envelope.

Set FORCING_LAB_LOG=debug (or info, warning, ...) for stderr logging.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from importlib import resources

import jsonschema

from . import acceptance, jsonio
from .diagram import check_assignment, check_extension_pair
from .errors import ForcingLabError
from .names import refine_condition, slalom_extract
from .poset import ScheduledCover, extend_detailed, generic_run
from .smz import (
    cover_translate,
    flatten_heavy_intervals,
    product_bound,
    rapidity_check,
    thin_set_bound_check,
)

log = logging.getLogger("forcing_lab.cli")


class UsageError(Exception):
    """The scenario cannot drive this command (exit code 2)."""


def _load_schema(name: str) -> dict:
    ref = resources.files("forcing_lab.schemas").joinpath(name)
    with ref.open("r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_scenario(args: argparse.Namespace) -> dict:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"scenario is not JSON: {exc}") from exc
    try:
        jsonschema.validate(data, _load_schema("scenario.schema.json"))
    except jsonschema.ValidationError as exc:
        where = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise UsageError(f"scenario fails schema at {where}: {exc.message}") from exc
    return data


def _need(scenario: dict, key: str):
    if key not in scenario:
        raise UsageError(f"scenario needs a {key!r} section for this command")
    return scenario[key]


def _need_seed(args: argparse.Namespace) -> int:
    if args.seed is None:
        raise UsageError("this command draws random bits; pass --seed")
    return args.seed


def _cmd_slalom(args, scenario):
    g = jsonio.name_from_json(_need(scenario, "name"))
    s = slalom_extract(g)
    report = {
        "horizon": g.horizon,
        "slots": [sorted(slot) for slot in s.slots],
        "caps": [(n + 1) ** 2 for n in range(g.horizon)],
    }
    return True, report


def _cmd_refine(args, scenario):
    g = jsonio.name_from_json(_need(scenario, "name"))
    f = _need(scenario, "function")
    p = jsonio.clopen_from_json(_need(scenario, "condition_set"))
    start = int(scenario.get("start", 0))
    q, n = refine_condition(p, g, f, start)
    report = {
        "refined": jsonio.clopen_to_json(q),
        "measure": jsonio.rational_to_json(q.measure()),
        "cutoff": n,
    }
    return True, report


def _cmd_extend(args, scenario):
    p = jsonio.condition_from_json(_need(scenario, "condition"))
    seed = _need_seed(args)
    q, stats = extend_detailed(
        p, seed, retry_cap=args.retry_cap, exhaustive_cap=args.exhaustive_cap,
        max_new_levels=args.max_new_levels)
    log.info("extended depth %d -> %d (pinned %d)", p.m, q.m, stats.pinned_m_prime)
    report = {
        "seed": seed,
        "condition": jsonio.condition_to_json(q),
        "stats": {
            "pinned_depth": stats.pinned_m_prime,
            "depth": stats.m_prime,
            "retries": [[s, n] for s, n in sorted(stats.retries.items())],
            "exhaustive_stems": sorted(stats.exhaustive_stems),
        },
    }
    return True, report


def _cmd_generic_run(args, scenario):
    seed = _need_seed(args)
    steps = int(_need(scenario, "steps"))
    schedule = [
        ScheduledCover(
            jsonio.plane_from_json(entry["cover"]),
            jsonio.rational_from_json(entry["eps"]),
            int(entry.get("at_step", i)))
        for i, entry in enumerate(_need(scenario, "covers"))
    ]
    levels = args.max_new_levels if args.max_new_levels is not None else 3
    p, trace = generic_run(
        schedule, steps, seed, retry_cap=args.retry_cap,
        exhaustive_cap=args.exhaustive_cap, max_new_levels=levels)
    report = {
        "seed": seed,
        "depth": p.m,
        "final": jsonio.condition_to_json(p),
        "trace": jsonio.trace_to_json(trace),
    }
    return True, report


def _cmd_smz(args, scenario):
    eps = [jsonio.rational_from_json(e) for e in _need(scenario, "eps")]
    horizon = int(_need(scenario, "horizon"))
    delta, delta_prime = cover_translate(eps, horizon)
    report = {
        "delta": jsonio.rationals_to_json(delta),
        "delta_prime": jsonio.rationals_to_json(delta_prime),
    }
    if "heavy" in scenario:
        heavy = [
            [jsonio.interval_from_json(iv) for iv in group]
            for group in scenario["heavy"]
        ]
        flat = flatten_heavy_intervals(heavy, eps)
        report["flattened"] = [jsonio.interval_to_json(iv) for iv in flat]
    return True, report


def _cmd_rapid(args, scenario):
    report: dict = {}
    ok = True
    handled = False
    if "set" in scenario and "blocks" in scenario:
        handled = True
        verdict = thin_set_bound_check(scenario["set"], int(scenario["blocks"]))
        report["thin"] = {
            "ok": verdict.ok,
            "max_ratio": jsonio.rational_to_json(verdict.max_ratio),
            "witness": verdict.witness,
        }
        ok = ok and verdict.ok
        if "product" in scenario and "selection" in scenario:
            window = scenario["product"]
            value = product_bound(
                scenario["set"], scenario["selection"],
                int(window["start"]), int(window["stop"]))
            report["product"] = jsonio.rational_to_json(value)
    if "rapid" in scenario:
        handled = True
        verdict = rapidity_check(
            scenario["rapid"], _need(scenario, "selection"),
            _need(scenario, "checkpoints"))
        report["rapidity"] = {
            "ok": verdict.ok,
            "witness": verdict.witness,
            "counts": list(verdict.counts),
        }
        ok = ok and verdict.ok
    if not handled:
        raise UsageError(
            "rapid needs 'set'+'blocks' and/or 'rapid'+'selection'+'checkpoints'")
    return ok, report


def _cmd_diagram(args, scenario):
    if "ground" in scenario and "extension" in scenario:
        verdict = check_extension_pair(
            jsonio.assignment_from_json(scenario["ground"]),
            jsonio.assignment_from_json(scenario["extension"]))
    elif "assignment" in scenario:
        verdict = check_assignment(
            jsonio.assignment_from_json(scenario["assignment"]))
    else:
        raise UsageError("diagram needs 'assignment' or 'ground'+'extension'")
    report = {
        "consistent": verdict.ok,
        "violations": [
            {"kind": v.kind, "detail": v.detail} for v in verdict.violations
        ],
    }
    return verdict.ok, report


def _cmd_selftest(args, scenario):
    results = acceptance.run_all()
    for r in results:
        print(r.line(), file=sys.stderr)
    report = {
        "criteria": [
            {
                "name": r.name,
                "passed": r.passed,
                "in_budget": r.in_budget,
                "elapsed_s": round(r.elapsed, 3),
                "detail": r.detail,
            }
            for r in results
        ],
    }
    return all(r.passed and r.in_budget for r in results), report


HANDLERS = {
    "slalom": _cmd_slalom,
    "refine": _cmd_refine,
    "extend": _cmd_extend,
    "generic-run": _cmd_generic_run,
    "smz": _cmd_smz,
    "rapid": _cmd_rapid,
    "diagram": _cmd_diagram,
    "selftest": _cmd_selftest,
}


def build_parser() -> argparse.ArgumentParser:
    io_parent = argparse.ArgumentParser(add_help=False)
    io_parent.add_argument(
        "--input", "-i", default="-", metavar="PATH",
        help="scenario JSON file, '-' for stdin (default)")
    io_parent.add_argument(
        "--out", "-o", default="-", metavar="PATH",
        help="report destination, '-' for stdout (default)")
    seeded_parent = argparse.ArgumentParser(add_help=False)
    seeded_parent.add_argument(
        "--seed", type=int, default=None,
        help="integer seed for the bit-choice sampler (required)")
    seeded_parent.add_argument(
        "--retry-cap", type=int, default=64, metavar="N",
        help="sampling attempts per stem before exhaustive fallback")
    seeded_parent.add_argument(
        "--exhaustive-cap", type=int, default=2 ** 20, metavar="N",
        help="largest candidate space the fallback will enumerate")
    seeded_parent.add_argument(
        "--max-new-levels", type=int, default=None, metavar="K",
        help="cap on stem depth growth per extension (default: the pinned "
             "depth formula for 'extend', 3 for 'generic-run')")

    parser = argparse.ArgumentParser(
        prog="forcing-lab",
        description="Exact toolkit for weighted stem conditions, names and "
                    "slaloms, interval covers, and the cardinal diagram.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "slalom", parents=[io_parent],
        help="extract the heavy-label slalom of a name")
    sub.add_parser(
        "refine", parents=[io_parent],
        help="shrink a positive-measure set off a function's value cells")
    sub.add_parser(
        "extend", parents=[io_parent, seeded_parent],
        help="grow a condition's stem with seeded, exactly checked bits")
    sub.add_parser(
        "generic-run", parents=[io_parent, seeded_parent],
        help="interleave cover attachment and extension, with certificates")
    sub.add_parser(
        "smz", parents=[io_parent],
        help="derive cover tolerances and flatten heavy interval families")
    sub.add_parser(
        "rapid", parents=[io_parent],
        help="check block density, thinness, and rapidity of selections")
    sub.add_parser(
        "diagram", parents=[io_parent],
        help="check a diagram assignment or a ground/extension pair")
    sub.add_parser(
        "selftest", parents=[io_parent],
        help="run the bundled acceptance suite (one line per criterion)")
    return parser


def main(argv=None) -> int:
    env_level = os.environ.get("FORCING_LAB_LOG", "")
    logging.basicConfig(
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
        level=getattr(logging, env_level.upper(), logging.WARNING))
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    envelope: dict = {"command": args.command}
    code = 0
    try:
        scenario = None if args.command == "selftest" else _read_scenario(args)
        ok, report = HANDLERS[args.command](args, scenario)
        if scenario is not None:
            report = {"inputs": scenario, **report}
        envelope["ok"] = ok
        envelope["report"] = report
        envelope["meta"] = {
            "wall_time_ms": round((time.perf_counter() - started) * 1000, 3)}
        code = 0 if ok else 1
    except UsageError as exc:
        envelope["ok"] = False
        envelope["error"] = {"type": "UsageError", "message": str(exc)}
        code = 2
    except ForcingLabError as exc:
        detail = {"type": type(exc).__name__, "message": str(exc)}
        if hasattr(exc, "step"):
            detail["step"] = exc.step
        envelope["ok"] = False
        envelope["error"] = detail
        code = 1
    except (KeyError, TypeError, ValueError) as exc:
        # schema-shaped input whose payload still failed to decode or
        # violated a constructor contract
        envelope["ok"] = False
        envelope["error"] = {"type": type(exc).__name__, "message": str(exc)}
        code = 2
    except Exception as exc:  # last resort: still one schema-checked envelope
        log.debug("%s failed unexpectedly", args.command, exc_info=True)
        envelope["ok"] = False
        envelope["error"] = {
            "type": "InternalError", "message": f"{type(exc).__name__}: {exc}"}
        code = 3
    jsonschema.validate(envelope, _load_schema("report.schema.json"))
    text = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    log.info("%s finished with exit code %d", args.command, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
