"""Traced launcher: one forcing-lab CLI call with per-layer spans.

    python launcher.py SPANS_OUT <forcing-lab arguments...>

Imports forcing_lab.cli (timed as the `cli.import` span), wraps the public
functions of each layer, runs cli.main on the remaining arguments, and
writes the spans to SPANS_OUT as JSON:

    {"spans": {"<layer>.<function>": [self_seconds, calls]},
     "counters": {"<layer>.<function>.calls": calls}}

A span's self time is its wall time minus the time of the spans it
called.  Functions called ~10^5 times per operation are counted, not
timed, so tracing stays cheap next to the untraced run it is compared with.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

# span name -> (module, attribute path) of the function it wraps
SPANS = {
    "poset.validate": ("poset", "validate"),
    "poset.score": ("poset", "score"),
    "poset.extend_detailed": ("poset", "extend_detailed"),
    "poset.certificate": ("poset", "certificate"),
    "poset.avoid_null": ("poset", "avoid_null"),
    "poset.generic_run": ("poset", "generic_run"),
    "cantor.from_strings": ("cantor", "ClopenSet.from_strings"),
    "cantor.intersect": ("cantor", "ClopenSet.intersect"),
    "cantor.difference": ("cantor", "ClopenSet.difference"),
    "cantor.complement": ("cantor", "ClopenSet.complement"),
    "cantor.plane_complement": ("cantor", "ClopenPlaneSet.complement"),
    "cantor.from_rects": ("cantor", "ClopenPlaneSet.from_rects"),
    "cantor.rect_overlap_measure": ("cantor", "ClopenPlaneSet.rect_overlap_measure"),
    "cantor.contains_rect": ("cantor", "ClopenPlaneSet.contains_rect"),
    "names.make_name": ("names", "make_name"),
    "names.slalom_extract": ("names", "slalom_extract"),
    "names.refine_condition": ("names", "refine_condition"),
    "smz.cover_translate": ("smz", "cover_translate"),
    "smz.flatten_heavy_intervals": ("smz", "flatten_heavy_intervals"),
    "smz.thin_set_bound_check": ("smz", "thin_set_bound_check"),
    "smz.rapidity_check": ("smz", "rapidity_check"),
    "diagram.check_assignment": ("diagram", "check_assignment"),
    "diagram.check_extension_pair": ("diagram", "check_extension_pair"),
}
COUNTERS = {
    "poset.eval_phi.calls": ("poset", "eval_phi"),
    "cantor.check_bits.calls": ("cantor", "check_bits"),
}
# spans that are not one library function
CLI_SPANS = ("cli.import", "cli.schema_in", "cli.schema_out", "cli.dumps", "cli.main")
JSONIO_SPANS = ("jsonio.decode", "jsonio.encode")
ALL_SPANS = CLI_SPANS + JSONIO_SPANS + tuple(SPANS)


class Tracer:
    """Self time and call count per span name, from a stack of open spans."""

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(ALL_SPANS, 0.0)
        self.calls = dict.fromkeys(ALL_SPANS, 0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.child_s = [0.0]  # time spent in child spans, per open span

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.child_s.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self.child_s.pop()
                self.child_s[-1] += elapsed
                self.self_s[name] += elapsed - children
                self.calls[name] += 1
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def dump(self) -> dict:
        return {"spans": {k: [self.self_s[k], self.calls[k]] for k in ALL_SPANS},
                "counters": self.counts}


def _rebind(original, replacement) -> None:
    """Point every forcing_lab namespace that holds `original` (including
    names bound by `from .x import y`) at `replacement`."""
    for name, mod in list(sys.modules.items()):
        if name == "forcing_lab" or name.startswith("forcing_lab."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def _wrap(tracer: Tracer, module: str, path: str, make) -> None:
    mod = sys.modules[f"forcing_lab.{module}"]
    if "." in path:  # a method: patch the class, which every caller looks up
        cls_name, meth = path.split(".")
        cls = getattr(mod, cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(make(raw.__func__)))
        else:
            setattr(cls, meth, make(raw))
    else:
        original = getattr(mod, path)
        _rebind(original, make(original))


class _SchemaSplit:
    """Stands in for the jsonschema module inside cli: validating against
    the scenario schema is `cli.schema_in`, anything else `cli.schema_out`."""

    def __init__(self, tracer: Tracer, real):
        self._real = real
        validate_in = tracer.span("cli.schema_in", real.validate)
        validate_out = tracer.span("cli.schema_out", real.validate)

        def validate(instance, schema, *args, **kwargs):
            inbound = schema.get("title") == "forcing-lab scenario"
            return (validate_in if inbound else validate_out)(instance, schema, *args, **kwargs)
        self.validate = validate

    def __getattr__(self, name):
        return getattr(self._real, name)


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the already imported forcing_lab."""
    cli = sys.modules["forcing_lab.cli"]
    jsonio = sys.modules["forcing_lab.jsonio"]
    for name, (module, path) in SPANS.items():
        _wrap(tracer, module, path, functools.partial(tracer.span, name))
    for name, (module, path) in COUNTERS.items():
        _wrap(tracer, module, path, functools.partial(tracer.counter, name))
    for attr, fn in list(vars(jsonio).items()):
        if isinstance(fn, types.FunctionType) and fn.__module__ == jsonio.__name__:
            if attr.endswith("_from_json"):
                _rebind(fn, tracer.span("jsonio.decode", fn))
            elif attr.endswith("_to_json"):
                _rebind(fn, tracer.span("jsonio.encode", fn))
    cli.jsonschema = _SchemaSplit(tracer, cli.jsonschema)
    json_proxy = types.ModuleType("json")
    json_proxy.__dict__.update(vars(cli.json))
    json_proxy.dumps = tracer.span("cli.dumps", cli.json.dumps)
    cli.json = json_proxy


def main(argv: list[str]) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    start = time.perf_counter()
    import forcing_lab.cli as cli
    elapsed = time.perf_counter() - start
    tracer.self_s["cli.import"] += elapsed
    tracer.calls["cli.import"] += 1
    install(tracer)
    try:
        return tracer.span("cli.main", cli.main)(cli_args)
    finally:
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
