"""Command line front end.

Scenarios arrive as JSON in strict UTF-8 (the bytes of stdin or --input),
are validated against the packaged scenario schema, and every run emits a
single JSON envelope, itself checked against the packaged report schema:

    {"command": ..., "ok": ..., "report": {...}, "meta": {"wall_time_ms": ...}}

The report body echoes the scenario under "inputs", records the seed for
seeded commands, and is deterministic for a fixed scenario and seed; only
meta varies.  Exit codes: 0 when the run's checks all pass, 1 for domain errors
or failed checks, 2 for unusable input (bad arguments, missing --seed, a
scenario that cannot be read or is not UTF-8, an --out that cannot be opened
or written, bad JSON, a key repeated within one object, a scenario nested too
deeply, schema violations, missing sections, a ValueError of a decoder or
layer) and for a closed or unwritable stdout, 3 for any other failure, a
KeyError or TypeError included, reported as an "InternalError" envelope.
--out is opened once the scenario has been read (or failed to read), before
the run; if that, its write or the command line fails, the envelope (a
UsageError for --out) goes to stdout.  argv and the scenario are read under
a 4,300-digit limit on int-text conversion, whatever PYTHONINTMAXSTRDIGITS
says.  Results are exact and written in full, so the run then lifts the
limit; main restores the caller's.

_emit alone writes stdout (the envelope or the -h text), and _say alone
stderr, one flushed line at a time, dropped if stderr is closed or fails.
main(argv) is the in-process entry and returns the exit code; the process
entry, program, runs main on sys.argv and ends the process with os._exit,
skipping the interpreter's teardown (freeing every object, exit handlers).
program also switches the cyclic garbage collector off before main: no
run makes a reference cycle, so its collections (16 on a names-mix slalom,
triggered by the decoded lists and built values) free nothing, and the
process frees nothing at its end either.  main itself, which tests and
acceptance call in their own process, leaves the collector as it is.

Both schema checks run on a check compiled once per process
(`schemacheck`), which also words a rejection with its path; a scenario it
rejects exits 2, an envelope it rejects is this program's fault and ends
in an "InternalError" envelope (exit 3) instead.

Set FORCING_LAB_LOG=debug (or info, warning, ...) for stderr logging;
`logging` is imported only when it is set.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import sys
import time
from collections import Counter
from types import SimpleNamespace

from . import jsonio
from .diagram import check_assignment, check_extension_pair
from .errors import ForcingLabError, UsageError
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
    """Log to stderr at the level FORCING_LAB_LOG names (WARNING if it names
    none) when it is set; nothing is logged, nor `logging` imported, otherwise."""
    env_level = os.environ.get("FORCING_LAB_LOG")
    if env_level:
        import logging
        threshold = getattr(logging, env_level.upper(), None)  # BASIC_FORMAT is no level
        logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s",
                            level=threshold if isinstance(threshold, int) else logging.WARNING)
        getattr(logging.getLogger("forcing_lab.cli"), level)(message, *args, **kwargs)


def __getattr__(name: str):
    # `cli.jsonschema` is read only by perfbench/launcher.py, which rebinds it
    # to a traced stand-in; nothing in forcing_lab imports jsonschema
    if name == "jsonschema":
        import jsonschema
        return jsonschema
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@functools.cache
def _compiled(name: str):
    """The compiled check of the packaged schema `name`, built once."""
    path = os.path.join(os.path.dirname(__file__), "schemas", name)
    with open(path, encoding="utf-8") as fh:
        return compile_schema(json.load(fh))


def _schema_fault(instance, name: str) -> str | None:
    """None when `instance` conforms to the packaged schema `name`, else
    where and why it first fails."""
    error = _compiled(name)(instance)
    if error is None:
        return None
    path, _, message = error
    return f"fails schema at {'/'.join(map(str, path)) or '<root>'}: {message}"


def _unique_keys(pairs: list) -> dict:
    """object_pairs_hook that refuses a key repeated within one object."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise UsageError(f"repeated scenario key {key!r}")
    return obj


def _scenario_text(path: str) -> str:
    """The scenario's bytes, from the file path or stdin ("-"), decoded as
    strict UTF-8; the bytes go when this returns, before the text is parsed."""
    try:
        if path != "-":
            with open(path, "rb") as fh:
                raw = fh.read()
        elif sys.stdin is None:  # the process started with it closed
            raise OSError("stdin is closed")
        else:
            raw = sys.stdin.buffer.read()
        return raw.decode("utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read scenario: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"scenario is not UTF-8: {exc}") from exc


def _read_scenario(path: str) -> dict:
    try:  # the text goes once parsed
        data = json.loads(_scenario_text(path), object_pairs_hook=_unique_keys,
                          parse_float=jsonio.read_number)
    except json.JSONDecodeError as err:
        raise UsageError(f"scenario is not JSON: {err}") from err
    except ValueError as err:  # the only other one: an int or exponent past the digit limit
        raise UsageError(f"scenario has an integer of more than "
                         f"{sys.get_int_max_str_digits()} digits, the limit") from err
    except RecursionError:
        raise UsageError("scenario is nested too deeply") from None
    fault = _schema_fault(data, "scenario.schema.json")
    if fault is not None:
        raise UsageError(f"scenario {fault}")
    return data


def _need(scenario: dict, key: str):
    if key not in scenario:
        raise UsageError(f"scenario needs a {key!r} section for this command")
    return scenario[key]


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
    q, n = refine_condition(p, g, f, scenario.get("start", 0))
    report = {
        "refined": jsonio.clopen_to_json(q),
        "measure": jsonio.rational_to_json(q.measure()),
        "cutoff": n,
    }
    return True, report


def _cmd_extend(args, scenario):
    """grow a condition's stem with seeded, exactly checked bits"""
    p = jsonio.condition_from_json(_need(scenario, "condition"))
    q, stats = extend_detailed(p, args.seed, max_new_levels=args.max_new_levels)
    _log("info", "extended depth %d -> %d (pinned %d)", p.m, q.m, stats.pinned_m_prime)
    report = {
        "seed": args.seed,
        "condition": jsonio.condition_to_json(q),
        "stats": {
            "pinned_depth": stats.pinned_m_prime,
            "depth": stats.m_prime,
            # (top, retries) pairs in key order, written in slices, no tuple per top
            "retries": lambda sink: jsonio.write_pairs(p.tops(), stats.retries, sink, json.dumps),
            "exhaustive_stems": stats.exhaustive_stems,
        },
    }
    return True, report


def _cmd_generic_run(args, scenario):
    """interleave cover attachment and extension, with certificates"""
    steps = _need(scenario, "steps")
    schedule = [
        ScheduledCover(
            jsonio.plane_from_json(entry["cover"]),
            jsonio.rational_from_json(entry["eps"]),
            entry.get("at_step", i))
        for i, entry in enumerate(_need(scenario, "covers"))
    ]
    levels = {} if args.max_new_levels is None else {"max_new_levels": args.max_new_levels}
    p, trace = generic_run(schedule, steps, args.seed, **levels)
    report = {
        "seed": args.seed,
        "depth": p.m,
        "final": jsonio.condition_to_json(p),
        "trace": jsonio.trace_to_json(trace),
    }
    return True, report


def _cmd_smz(args, scenario):
    """derive cover tolerances and flatten heavy interval families"""
    eps = [jsonio.rational_from_json(e) for e in _need(scenario, "eps")]
    delta, delta_prime = cover_translate(eps, _need(scenario, "horizon"))
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
        verdict = thin_set_bound_check(scenario["set"], scenario["blocks"])
        report["thin"] = {
            "ok": verdict.ok,
            "max_ratio": jsonio.rational_to_json(verdict.max_ratio),
            "witness": verdict.witness,
        }
        ok = ok and verdict.ok
        if "product" in scenario:
            window = scenario["product"]
            value = product_bound(
                scenario["set"], scenario["selection"], window["start"], window["stop"])
            report["product"] = jsonio.rational_to_json(value)
    if "rapid" in scenario:
        verdict = rapidity_check(
            scenario["rapid"], _need(scenario, "selection"), _need(scenario, "checkpoints"))
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
        _say(r.line())
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


# field -> the options that set it; the SEEDED commands also take
# SEEDED_OPTIONS, whose values are read with int()
OPTIONS = {"input": ("--input", "-i"), "out": ("--out", "-o")}
SEEDED_OPTIONS = {"seed": ("--seed",), "max_new_levels": ("--max-new-levels",)}

USAGE = (f"usage: forcing-lab [-h] {{{','.join(HANDLERS)}}} [--input/-i PATH] [--out/-o PATH]\n"
         f"       ({', '.join(SEEDED)}: --seed N [--max-new-levels K])")


def _say(line: str) -> None:
    """Write line to stderr, flushed, unless stderr is None (closed) or fails."""
    try:
        sys.stderr.write(line + "\n")
        sys.stderr.flush()
    except (AttributeError, OSError):  # nowhere left to say so
        pass


def _refuse(message: str):
    _say(USAGE)
    raise UsageError(message)


def _parse(argv: list) -> SimpleNamespace:
    """The command and options of argv, whose grammar USAGE states; an argv
    outside it, or lacking a SEEDED command's --seed, is refused with USAGE."""
    command = argv[0] if argv else ""
    if command not in HANDLERS:
        _refuse(f"argument command: invalid choice: {command!r} "
                f"(choose from {', '.join(map(repr, HANDLERS))})")
    options = {**OPTIONS, **SEEDED_OPTIONS} if command in SEEDED else OPTIONS
    args = SimpleNamespace(command=command, input="-", out="-", seed=None, max_new_levels=None)
    words, unknown = iter(argv[1:]), []
    for word in words:
        field = next((f for f, names in options.items() if word in names), None)
        if field is None:
            unknown.append(word)
            continue
        name, value = "/".join(options[field]), next(words, None)
        # a value may be "-" or a negative integer, but not look like an option
        if value is None or value[:1] == "-" and value != "-" and not value[1:].isdigit():
            _refuse(f"argument {name}: expected one argument")
        try:
            setattr(args, field, int(value) if field in SEEDED_OPTIONS else value)
        except ValueError:  # a well-formed int past the digit limit is worded as such
            digits = value.strip().lstrip("+-").replace("_", "")
            if digits.isdecimal() and len(digits) > (limit := sys.get_int_max_str_digits()):
                _refuse(f"argument {name}: more than {limit} digits, the limit")
            _refuse(f"argument {name}: invalid int value: {jsonio.ends(value)!r}")
    if unknown:
        _refuse(f"unrecognized arguments: {' '.join(unknown)}")
    if command in SEEDED and args.seed is None:
        _refuse("this command draws random bits; pass --seed")
    return args


def _failure(exc: Exception) -> tuple[int, dict]:
    """Exit code and envelope error body for an exception raised by a run."""
    error = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ForcingLabError):
        if hasattr(exc, "step"):
            error["step"] = exc.step
        return 1, error
    if isinstance(exc, (UsageError, ValueError)):  # refusals the code makes on purpose
        return 2, error
    _log("debug", "run failed unexpectedly", exc_info=exc)
    return 3, {"type": "InternalError", "message": f"{type(exc).__name__}: {exc}"}


def main(argv=None) -> int:
    digits = sys.get_int_max_str_digits()
    try:  # argv and the scenario are read under the schema's limit, whatever the caller's
        sys.set_int_max_str_digits(jsonio._MAX_DIGITS)
        return _run(argv)
    finally:  # _run lifts the limit; a caller in this process keeps its own
        sys.set_int_max_str_digits(digits)


def _run(argv) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:  # the help is the whole output
        return _emit("\n".join([USAGE, "", *(f"  {name:<12} {cmd.__doc__}"
                                             for name, cmd in HANDLERS.items())]), sys.stdout, 0)
    started = time.perf_counter()
    command = argv[0] if argv and argv[0] in HANDLERS else ""
    envelope: dict = {"command": command, "ok": False}
    out = sys.stdout
    try:
        args = _parse(argv)
        try:
            scenario = None if args.command == "selftest" else _read_scenario(args.input)
        finally:  # read before truncating: --out may name the --input file
            if args.out != "-":
                try:
                    out = open(args.out, "w", encoding="utf-8")
                except OSError as exc:
                    raise UsageError(f"cannot write report: {exc}") from exc
        # exact results may be ints past the digit limit on int-to-text
        # conversion; the schema keeps each rational part of the scenario within it
        sys.set_int_max_str_digits(0)
        ok, report = HANDLERS[args.command](args, scenario)
        if scenario is not None:
            report = {"inputs": scenario, **report}
        wall_ms = round((time.perf_counter() - started) * 1000, 3)
        envelope.update(ok=ok, report=report, meta={"wall_time_ms": wall_ms})
        code = 0 if ok else 1
    except Exception as exc:  # every failure still ends in one envelope
        code, envelope["error"] = _failure(exc)
    fault = _schema_fault(envelope, "report.schema.json")
    if fault is not None:  # this program's fault, so _failure makes it exit 3
        code, error = _failure(RuntimeError(f"report {fault}"))
        envelope = {"command": command, "ok": False, "error": error}
    code = _emit(envelope, out, code)
    _log("info", "%s finished with exit code %d", command, code)
    return code


def _emit(envelope: dict | str, out, code: int) -> int:
    """Write envelope, or the -h text given as a str, then a newline, to out
    (closed after unless it is stdout), in the pieces jsonio.write passes;
    return code, or 2 if the write fails.  A failed --out write sends a
    UsageError envelope to stdout instead, a failed or closed stdout one line
    to stderr; a reader that leaves keeps the run's code.  A write that fails
    with anything but an OSError (a MemoryError) is this program's fault:
    exit 3, with one line on stderr, or an InternalError envelope on stdout
    for --out.  A write-through out (python -u) is buffered meanwhile."""
    what = "help" if isinstance(envelope, str) else "report"
    through = getattr(out, "write_through", False)
    try:
        if out is None:  # sys.stdout of a process started with it closed
            raise OSError("stdout is closed")
        if through:
            out.reconfigure(write_through=False)
        if what == "help":
            out.write(envelope)
        else:
            jsonio.write(envelope, out.write, json.dumps)
        print(file=out, flush=True)
    except OSError as exc:  # the rest, the closing or exit-time flush too, goes nowhere
        if out is not None:
            os.dup2(devnull := os.open(os.devnull, os.O_WRONLY), out.fileno())
            os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            if out is sys.stdout:
                _say(f"forcing-lab: cannot write {what}: {exc}")
                return 2
            code, error = _failure(UsageError(f"cannot write report: {exc}"))
            return _emit({"command": envelope["command"], "ok": False, "error": error},
                         sys.stdout, code)
    except Exception as exc:  # the writer's own failure: what it wrote stays cut short
        _log("debug", "writing the %s failed unexpectedly", what, exc_info=exc)
        message = f"{type(exc).__name__}: {exc}"
        if out is sys.stdout:
            _say(f"forcing-lab: cannot write {what}: {message}")
            return 3
        return _emit({"command": envelope["command"], "ok": False,
                      "error": {"type": "InternalError", "message": message}}, sys.stdout, 3)
    finally:
        if through:
            out.reconfigure(write_through=True)
        if out is not sys.stdout:
            out.close()
    return code


def program():
    """The entry of `python -m forcing_lab.cli` and of the forcing-lab script:
    main on sys.argv with the cyclic collector off, logging shut down if
    loaded, then os._exit with main's code (see the module docstring).  An
    error out of main ends as usual."""
    gc.disable()
    code = main()
    if "logging" in sys.modules:  # _log imports it when FORCING_LAB_LOG is set
        sys.modules["logging"].shutdown()
    os._exit(code)


if __name__ == "__main__":
    program()
