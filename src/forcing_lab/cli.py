"""Command line front end.

Scenarios arrive as JSON (stdin or --input), are validated against the
packaged scenario schema, and every run emits a single JSON envelope,
itself checked against the packaged report schema:

    {"command": ..., "ok": ..., "report": {...}, "meta": {"wall_time_ms": ...}}

The report body echoes the scenario under "inputs", records the seed for
seeded commands, and is deterministic for a fixed scenario and seed; only
meta varies.  Exit codes: 0 when the run's checks all pass, 1 for domain errors
or failed checks, 2 for unusable input (bad arguments, an unreadable
--input, an unwritable --out, bad JSON, a key repeated within one object,
a scenario nested too deeply, schema violations, missing sections, missing
--seed), 3 for any other failure, reported as an "InternalError" envelope.
--out is opened once the scenario has been read (or failed to read), before
the run; if that or argument parsing fails, the envelope goes to stdout.

Both schema checks run on a check compiled once per process
(`schemacheck`), so a run that passes them never imports `jsonschema`.  A
rejected document is handed to `jsonschema.validate`, whose error gives the
message and path.  Should `jsonschema` accept it after all, the run ends in
an "InternalError" envelope (exit 3), for a scenario before the command runs.

Set FORCING_LAB_LOG=debug (or info, warning, ...) for stderr logging;
`logging` is imported only when it is set.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from collections import Counter
from importlib import resources

from . import jsonio
from .diagram import check_assignment, check_extension_pair
from .errors import ForcingLabError
from .names import refine_condition, slalom_extract
from .poset import ScheduledCover, extend_detailed, generic_run
from .schemacheck import compile_schema
from .smz import (
    cover_translate,
    flatten_heavy_intervals,
    product_bound,
    rapidity_check,
    thin_set_bound_check,
)


def _log(level: str, message: str, *args, **kwargs) -> None:
    """Log to the `forcing_lab.cli` logger when FORCING_LAB_LOG is set.
    Nothing is logged otherwise, so `logging` is imported only then."""
    if os.environ.get("FORCING_LAB_LOG"):
        import logging
        getattr(logging.getLogger("forcing_lab.cli"), level)(message, *args, **kwargs)


def __getattr__(name: str):
    # `cli.jsonschema` is imported on first use: only a rejection needs it
    if name == "jsonschema":
        import jsonschema
        return jsonschema
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class UsageError(Exception):
    """The scenario cannot drive this command (exit code 2)."""


class _Parser(argparse.ArgumentParser):
    """Reports bad arguments as a UsageError envelope instead of exiting."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _load_schema(name: str) -> dict:
    """The packaged schema with each {"$ref": "#/$defs/x"} replaced by its
    target, so validation never resolves a reference per instance node;
    error messages and instance paths are those of the packaged file."""
    ref = resources.files("forcing_lab.schemas").joinpath(name)
    with ref.open("r", encoding="utf-8") as fh:
        schema = json.load(fh)
    defs = schema.pop("$defs", {})

    def inline(node):
        if isinstance(node, list):
            return [inline(v) for v in node]
        if not isinstance(node, dict):
            return node
        target = node.get("$ref", "")
        if len(node) == 1 and target.startswith("#/$defs/"):
            return inline(defs[target.removeprefix("#/$defs/")])
        return {k: inline(v) for k, v in node.items()}

    return inline(schema)


@functools.cache
def _compiled(name: str):
    """The loaded schema `name` and its compiled check, built once."""
    schema = _load_schema(name)
    return schema, compile_schema(schema)


def _schema_error(instance, name: str):
    """None when `instance` conforms to the packaged schema `name`, else
    jsonschema's own ValidationError for it.  Raises RuntimeError if
    jsonschema accepts what the compiled check rejected."""
    schema, accepts = _compiled(name)
    if accepts(instance):
        return None
    # looked up on the module, so a stand-in bound to `cli.jsonschema` is used
    lib = sys.modules[__name__].jsonschema
    try:
        lib.validate(instance, schema)
    except lib.ValidationError as exc:
        return exc
    raise RuntimeError(f"the compiled check of {name} rejects what jsonschema accepts")


def _unique_keys(pairs: list) -> dict:
    """object_pairs_hook that refuses a key repeated within one object."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise UsageError(f"repeated scenario key {key!r}")
    return obj


def _open(path: str, mode: str, purpose: str):
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot {purpose}: {exc}") from exc


def _read_scenario(args: argparse.Namespace) -> dict:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with _open(args.input, "r", "read scenario") as fh:
            text = fh.read()
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
        exc = _schema_error(data, "scenario.schema.json")
    except json.JSONDecodeError as err:
        raise UsageError(f"scenario is not JSON: {err}") from err
    except RecursionError:  # raised by the parser or by jsonschema's wording
        raise UsageError("scenario is nested too deeply") from None
    if exc is not None:
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
    """extract the heavy-label slalom of a name"""
    g = jsonio.name_from_json(_need(scenario, "name"))
    s = slalom_extract(g)
    report = {
        "horizon": g.horizon,
        **jsonio.slalom_to_json(s),
        "caps": [(n + 1) ** 2 for n in range(g.horizon)],
    }
    return True, report


def _cmd_refine(args, scenario):
    """shrink a positive-measure set off a function's value cells"""
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
    """grow a condition's stem with seeded, exactly checked bits"""
    p = jsonio.condition_from_json(_need(scenario, "condition"))
    seed = _need_seed(args)
    q, stats = extend_detailed(p, seed, max_new_levels=args.max_new_levels)
    _log("info", "extended depth %d -> %d (pinned %d)", p.m, q.m, stats.pinned_m_prime)
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
    """interleave cover attachment and extension, with certificates"""
    seed = _need_seed(args)
    steps = int(_need(scenario, "steps"))
    schedule = [
        ScheduledCover(
            jsonio.plane_from_json(entry["cover"]),
            jsonio.rational_from_json(entry["eps"]),
            int(entry.get("at_step", i)))
        for i, entry in enumerate(_need(scenario, "covers"))
    ]
    levels = {} if args.max_new_levels is None else {"max_new_levels": args.max_new_levels}
    p, trace = generic_run(schedule, steps, seed, **levels)
    report = {
        "seed": seed,
        "depth": p.m,
        "final": jsonio.condition_to_json(p),
        "trace": jsonio.trace_to_json(trace),
    }
    return True, report


def _cmd_smz(args, scenario):
    """derive cover tolerances and flatten heavy interval families"""
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
    """check block density, thinness, and rapidity of selections"""
    # a section the run would otherwise ignore is refused
    for section, *needs in (("set", "blocks"), ("blocks", "set"), ("checkpoints", "rapid"),
                            ("product", "set", "blocks", "selection")):
        if section in scenario and not all(k in scenario for k in needs):
            raise UsageError(f"rapid's {section!r} section needs {' and '.join(map(repr, needs))}")
    if "selection" in scenario and "product" not in scenario and "rapid" not in scenario:
        raise UsageError("rapid's 'selection' section needs 'product' or 'rapid'")
    thin = "set" in scenario
    if not thin and "rapid" not in scenario:
        raise UsageError(
            "rapid needs 'set'+'blocks' and/or 'rapid'+'selection'+'checkpoints'")
    report: dict = {}
    ok = True
    if thin:
        verdict = thin_set_bound_check(scenario["set"], int(scenario["blocks"]))
        report["thin"] = {
            "ok": verdict.ok,
            "max_ratio": jsonio.rational_to_json(verdict.max_ratio),
            "witness": verdict.witness,
        }
        ok = ok and verdict.ok
        if "product" in scenario:
            window = scenario["product"]
            value = product_bound(
                scenario["set"], scenario["selection"],
                int(window["start"]), int(window["stop"]))
            report["product"] = jsonio.rational_to_json(value)
    if "rapid" in scenario:
        verdict = rapidity_check(
            scenario["rapid"], _need(scenario, "selection"),
            _need(scenario, "checkpoints"))
        report["rapidity"] = {
            "ok": verdict.ok,
            "witness": verdict.witness,
            "counts": list(verdict.counts),
        }
        ok = ok and verdict.ok
    return ok, report


def _cmd_diagram(args, scenario):
    """check a diagram assignment or a ground/extension pair"""
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
    """run the bundled acceptance suite (one line per criterion)"""
    from . import acceptance  # only this command needs it

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

SEEDED = ("extend", "generic-run")


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
        "--max-new-levels", type=int, default=None, metavar="K",
        help="cap on stem depth growth per extension (default: the pinned "
             "depth formula for 'extend', 3 for 'generic-run')")

    parser = _Parser(
        prog="forcing-lab",
        description="Exact toolkit for weighted stem conditions, names and "
                    "slaloms, interval covers, and the cardinal diagram.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in HANDLERS.items():
        parents = [io_parent, seeded_parent] if name in SEEDED else [io_parent]
        sub.add_parser(name, parents=parents, help=handler.__doc__)
    return parser


def _failure(exc: Exception) -> tuple[int, dict]:
    """Exit code and envelope error body for an exception raised by a run."""
    error = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ForcingLabError):
        if hasattr(exc, "step"):
            error["step"] = exc.step
        return 1, error
    if isinstance(exc, (UsageError, KeyError, TypeError, ValueError)):
        # the last three: schema-shaped input that failed to decode
        return 2, error
    _log("debug", "run failed unexpectedly", exc_info=exc)
    return 3, {"type": "InternalError", "message": f"{type(exc).__name__}: {exc}"}


def main(argv=None) -> int:
    env_level = os.environ.get("FORCING_LAB_LOG", "")
    if env_level:
        import logging
        logging.basicConfig(
            stream=sys.stderr,
            format="%(levelname)s %(name)s: %(message)s",
            level=getattr(logging, env_level.upper(), logging.WARNING))
    argv = sys.argv[1:] if argv is None else list(argv)
    started = time.perf_counter()
    command = argv[0] if argv and argv[0] in HANDLERS else ""
    envelope: dict = {"command": command, "ok": False}
    out = sys.stdout
    try:
        args = build_parser().parse_args(argv)
        try:
            scenario = None if args.command == "selftest" else _read_scenario(args)
        finally:  # read before truncating: --out may name the --input file
            if args.out != "-":
                out = _open(args.out, "w", "write report")
        ok, report = HANDLERS[args.command](args, scenario)
        if scenario is not None:
            report = {"inputs": scenario, **report}
        wall_ms = round((time.perf_counter() - started) * 1000, 3)
        envelope.update(ok=ok, report=report, meta={"wall_time_ms": wall_ms})
        code = 0 if ok else 1
    except Exception as exc:  # every failure still ends in one envelope
        code, envelope["error"] = _failure(exc)
    try:
        fault = _schema_error(envelope, "report.schema.json")
    except RuntimeError as exc:
        fault = exc
    if fault is not None:  # this program's fault, so _failure makes it exit 3
        code, error = _failure(fault)
        envelope = {"command": command, "ok": False, "error": error}
    # the envelope is a tree built here from a parsed scenario and fresh
    # report values, so the encoder's cycle check could never fire
    out.write(json.dumps(envelope, sort_keys=True, separators=(",", ":"),
                         check_circular=False) + "\n")
    if out is not sys.stdout:
        out.close()
    _log("info", "%s finished with exit code %d", command, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
