"""JSON Schema checks compiled once into nested closures.

`compile_schema(schema)` walks a schema once and returns a predicate that
accepts exactly the instances `jsonschema`'s Draft 2020-12 validator
accepts.  Checking an instance then does no keyword dispatch, reference
resolution or meta-schema check.  The approach is that of fastjsonschema
(https://github.com/horejsek/python-fastjsonschema), which generates
Python source; nested closures do the same job here in less code.

Only the keywords the packaged schemas use are compiled: `type`,
`properties`, `required`, `additionalProperties`, `items`, `prefixItems`,
`minItems`, `maxItems`, `minimum`, `pattern` and `oneOf`, with every
`$ref` already inlined.  The annotations `$schema`, `title` and
`description` are skipped.  Any other keyword raises
`NotImplementedError`, so a schema that needs more is never half checked.

As in Draft 2020-12, a keyword passes every instance of a type it does not
apply to, an "integer" is an int or an integral float but never a bool, a
"number" is never a bool, and `pattern` matches by `re.search`.  The
predicate only says yes or no: ask `jsonschema` why an instance fails.
"""

from __future__ import annotations

import numbers
import re
from typing import Callable

Check = Callable[[object], bool]

ANNOTATIONS = frozenset({"$schema", "title", "description"})


def _is_integer(x) -> bool:
    if isinstance(x, float):
        return x.is_integer()
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, numbers.Number) and not isinstance(x, bool)


# JSON type name -> the Python class of that type, or a predicate for it
TYPES = {
    "array": list, "boolean": bool, "null": type(None), "object": dict,
    "string": str, "integer": _is_integer, "number": _is_number,
}


def _accept(x) -> bool:
    return True


def _reject(x) -> bool:
    return False


def _all(checks: list[Check]) -> Check:
    if not checks:
        return _accept
    if len(checks) == 1:
        return checks[0]
    return lambda x: all(check(x) for check in checks)


def _type(names) -> tuple[type | None, Check]:
    """The class `names` allows when it is exactly one class, and the check."""
    names = [names] if isinstance(names, str) else names
    unknown = set(names) - TYPES.keys()
    if unknown:
        raise NotImplementedError(f"cannot compile schema type(s) {sorted(unknown)}")
    classes = tuple(TYPES[n] for n in names if isinstance(TYPES[n], type))
    tests = [TYPES[n] for n in names if not isinstance(TYPES[n], type)]
    if not tests:
        return (classes[0] if len(classes) == 1 else None), lambda x: isinstance(x, classes)
    if not classes and len(tests) == 1:
        return None, tests[0]
    return None, lambda x: isinstance(x, classes) or any(t(x) for t in tests)


def _object(schema: dict) -> Check | None:
    if not schema.keys() & {"properties", "required", "additionalProperties"}:
        return None
    properties = {k: compile_schema(v) for k, v in schema.get("properties", {}).items()}
    required = tuple(schema.get("required", ()))
    extra = compile_schema(schema.get("additionalProperties", True))
    return lambda x: (all(k in x for k in required)
                      and all(properties.get(k, extra)(v) for k, v in x.items()))


def _array(schema: dict) -> Check | None:
    if not schema.keys() & {"prefixItems", "items", "minItems", "maxItems"}:
        return None
    prefix = [compile_schema(s) for s in schema.get("prefixItems", ())]
    rest = compile_schema(schema.get("items", True))
    lo, hi = schema.get("minItems", 0), schema.get("maxItems", float("inf"))
    skip = len(prefix)
    return lambda x: (lo <= len(x) <= hi
                      and all(c(v) for c, v in zip(prefix, x))
                      and all(map(rest, x[skip:] if skip else x)))


def _string(schema: dict) -> Check | None:
    if "pattern" not in schema:
        return None
    search = re.compile(schema["pattern"]).search
    return lambda x: search(x) is not None


def _number(schema: dict) -> Check | None:
    if "minimum" not in schema:
        return None
    least = schema["minimum"]
    return lambda x: isinstance(x, bool) or not x < least


# the class of instances each group of keywords applies to, and its compiler
KINDS = ((dict, _object), (list, _array), (str, _string), (numbers.Number, _number))
KEYWORDS = ANNOTATIONS | {
    "type", "properties", "required", "additionalProperties", "items", "prefixItems",
    "minItems", "maxItems", "minimum", "pattern", "oneOf",
}


def compile_schema(schema) -> Check:
    """A predicate that is true exactly on the instances `schema` accepts.

    Raises NotImplementedError for a keyword outside KEYWORDS (`$ref`
    included) and for a schema that is neither an object nor a boolean.
    """
    if isinstance(schema, bool):
        return _accept if schema else _reject
    if not isinstance(schema, dict):
        raise NotImplementedError(f"cannot compile schema {schema!r}")
    unknown = schema.keys() - KEYWORDS
    if unknown:
        raise NotImplementedError(f"cannot compile schema keyword(s) {sorted(unknown)}")
    kinds = [(cls, check) for cls, build in KINDS if (check := build(schema))]
    checks = []
    if "type" in schema:
        only, type_check = _type(schema["type"])
        if only is not None:  # no other kind's keywords meet an instance that passes
            inner = _all([check for cls, check in kinds if cls is only])
            kinds = []
            if inner is not _accept:
                type_check = lambda x: isinstance(x, only) and inner(x)
        checks.append(type_check)
    checks += [(lambda x, cls=cls, check=check: not isinstance(x, cls) or check(x))
               for cls, check in kinds]
    if "oneOf" in schema:
        options = [compile_schema(s) for s in schema["oneOf"]]
        checks.append(lambda x: sum(option(x) for option in options) == 1)
    return _all(checks)
