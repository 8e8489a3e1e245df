"""JSON Schema checks compiled into nested closures, per property on first use.

`compile_schema(schema)` returns a check that accepts exactly the
instances `jsonschema`'s Draft 2020-12 validator accepts.  Checking an
instance does no keyword dispatch, reference resolution or meta-schema
check.  The approach is that of fastjsonschema
(https://github.com/horejsek/python-fastjsonschema), which generates
Python source; nested closures do the same job here in less code.  An
object's property check is compiled the first time an instance has that
property, so a process that checks one command's scenario compiles only
the sections that scenario has.  What cannot be compiled is still refused
by `compile_schema` itself, in one walk over the whole schema that
compiles nothing.

Only the keywords the packaged schemas use are compiled: `type`,
`properties`, `required`, `additionalProperties`, `items`, `prefixItems`,
`minItems`, `maxItems`, `minimum`, `pattern`, `oneOf` and `$ref`.  A
`$ref` must name an entry of the root's `$defs` as `#/$defs/<name>`; that
entry is compiled in its place, beside any sibling keywords.  `$defs` and
the annotations `$schema`, `title` and `description` are skipped.  Any
other keyword, type name or reference, anywhere in the schema, `$defs`
entries included, raises `NotImplementedError`, so a schema that needs
more is never half checked.  A `pattern` is compiled with its check, so a
bad one raises `re.error` on first use.

As in Draft 2020-12, a keyword passes every instance of a type it does not
apply to, an "integer" is an int or an integral float but never a bool, a
"number" is never a bool, and `pattern` matches by `re.search`.  The check
returns None for an instance the schema accepts, else its first error as
(path, keyword, message), worded as jsonschema words it for the packaged
schemas, but with a bounded `reprlib` repr of every value it shows.

An array with no `prefixItems` has a short cut before its per-item checks
when its `items`, directly or through `$ref`s, takes one of two shapes.
One is a class-star string: a string schema whose only other keyword is a
`pattern` that is an anchored character-class star, such as `^[01]*$`, as
the bit-string arrays of the scenario schema are; the array is joined and
searched once.  The other is a row of exactly n class-star strings
(`prefixItems` with `minItems` and `maxItems` both n), as the stem pairs
and rectangles are: one `type` pass, one length pass, then one join and
one search per column.  Strings all match a class star exactly when their
join does, but for a newline ending any string but the last: as `$` also
matches before a final newline, that string passes alone and fails the
join.  So the short cut only ever answers "valid"; an array that misses
it, or raises TypeError in it, goes through the per-item checks, which
decide and word the first error.
"""

from __future__ import annotations

import numbers
import re
from collections.abc import Callable
from operator import itemgetter
from reprlib import repr as _repr

Error = tuple[tuple, str | None, str]  # (path, keyword, message)
Check = Callable[[object], Error | None]

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


def _accept(x) -> None:
    return None


def _reject(x) -> Error:
    return (), None, f"False schema does not allow {_repr(x)}"


def _under(key, error: Error) -> Error:
    """`error` of the value at `key`, as seen from the value that holds it."""
    path, keyword, message = error
    return (key, *path), keyword, message


def _all(checks: list[Check]) -> Check:
    if not checks:
        return _accept
    if len(checks) == 1:
        return checks[0]

    def check(x):
        for each in checks:
            if (error := each(x)) is not None:
                return error
    return check


def _type(names) -> tuple[type | None, Callable[[object], bool], Check]:
    """The class `names` allows when it is exactly one class, the test for
    an allowed instance, and the error of any other."""
    names = [names] if isinstance(names, str) else names
    wording = f" is not of type {', '.join(map(repr, names))}"
    wrong = lambda x: ((), "type", _repr(x) + wording)
    classes = tuple(TYPES[n] for n in names if isinstance(TYPES[n], type))
    tests = [TYPES[n] for n in names if not isinstance(TYPES[n], type)]
    if not tests:
        return (classes[0] if len(classes) == 1 else None), lambda x: isinstance(x, classes), wrong
    if not classes and len(tests) == 1:
        return None, tests[0], wrong
    return None, lambda x: isinstance(x, classes) or any(t(x) for t in tests), wrong


def _object(schema: dict, sub: Callable[[object], Check], defs: dict) -> Check | None:
    if not schema.keys() & {"properties", "required", "additionalProperties"}:
        return None
    raw = schema.get("properties", {})
    properties = dict.fromkeys(raw)  # name -> its check, None until first used
    required = tuple(schema.get("required", ()))
    closed = schema.get("additionalProperties", True) is False
    extra = sub(schema.get("additionalProperties", True))

    def check(x):
        for k in required:
            if k not in x:
                return (), "required", f"{k!r} is a required property"
        for k, v in x.items():
            if (each := properties.get(k, extra)) is None:
                each = properties[k] = sub(raw[k])
            if (error := each(v)) is not None:
                break
        else:
            return None
        # as in jsonschema, unexpected keys are named at the object's own
        # path, before any error inside a value
        extras = sorted((k for k in x if k not in raw), key=str) if closed else ()
        if not extras:
            return _under(k, error)
        verb = "was" if len(extras) == 1 else "were"
        return (), "additionalProperties", (
            f"Additional properties are not allowed ({_repr(extras)[1:-1]} {verb} unexpected)")
    return check


def _resolved(schema, defs: dict):
    """`schema` with any `$ref` that is all it says followed."""
    while isinstance(schema, dict) and "$ref" in schema and schema.keys() - ANNOTATIONS == {"$ref"}:
        schema = defs[schema["$ref"].rpartition("/")[2]]  # checked up front, so it resolves
    return schema


def _bulk(items, defs: dict) -> Callable[[list], bool] | None:
    """A test that every item of an array passes `items`, in C-level passes,
    when `items`, through `$ref`s alone, is a class-star string or a row of
    exactly n of them (see the module docstring); else None.  It answers
    True only for a valid array, and may raise TypeError on an invalid one."""
    def search(schema):  # the class star's search, or None
        schema = _resolved(schema, defs)
        if not (isinstance(schema, dict) and schema.keys() - ANNOTATIONS == {"type", "pattern"}
                and schema["type"] == "string"):
            return None
        text = schema["pattern"]
        if (text[:2] == "^[" and text[-3:] == "]*$"
                and not any(map(text[2:-3].__contains__, "[]\\"))):
            return re.compile(text).search
        return None

    if one := search(items):
        return lambda x: one("".join(x)) is not None
    row = _resolved(items, defs)
    if not (isinstance(row, dict) and row.get("type") == "array"
            and row.keys() - ANNOTATIONS == {"type", "prefixItems", "minItems", "maxItems"}
            and row["minItems"] == row["maxItems"] == len(row["prefixItems"])):
        return None
    searches = [search(s) for s in row["prefixItems"]]
    if not all(searches):
        return None
    n = len(searches)
    # one type pass, one length pass, then one join and one search per column
    return lambda x: ({*map(type, x)} == {list} and {*map(len, x)} == {n} and all(
        each("".join(map(itemgetter(i), x))) for i, each in enumerate(searches)))


def _array(schema: dict, sub: Callable[[object], Check], defs: dict) -> Check | None:
    if not schema.keys() & {"prefixItems", "items", "minItems", "maxItems"}:
        return None
    prefix = [sub(s) for s in schema.get("prefixItems", ())]
    rest = sub(schema.get("items", True))
    lo, hi = schema.get("minItems", 0), schema.get("maxItems", float("inf"))
    skip = len(prefix)
    # only a valid array passes the short cut (see the module docstring); a
    # miss or a TypeError leaves it to the loop, which words the first error
    bulk = None if prefix else _bulk(schema.get("items"), defs)

    def check(x):
        if not lo <= len(x) <= hi:
            keyword, size = ("minItems", "short") if len(x) < lo else ("maxItems", "long")
            return (), keyword, f"{_repr(x)} is too {size}"
        if bulk is not None:
            try:
                if bulk(x):
                    return None
            except TypeError:
                pass
        for i, v in enumerate(x):
            if (error := (prefix[i] if i < skip else rest)(v)) is not None:
                return _under(i, error)
    return check


def _string(schema: dict, sub, defs) -> Check | None:
    if "pattern" not in schema:
        return None
    pattern = schema["pattern"]
    search = re.compile(pattern).search
    return lambda x: None if search(x) else ((), "pattern", f"{_repr(x)} does not match {pattern!r}")


def _number(schema: dict, sub, defs) -> Check | None:
    if "minimum" not in schema:
        return None
    least = schema["minimum"]
    return lambda x: None if isinstance(x, bool) or not x < least else (
        (), "minimum", f"{_repr(x)} is less than the minimum of {least!r}")


def _one_of(options: list, sub: Callable[[object], Check]) -> Check:
    checks = [sub(s) for s in options]

    def check(x):
        valid = [s for s, each in zip(options, checks) if each(x) is None]
        if len(valid) == 1:
            return None
        if not valid:
            return (), "oneOf", f"{_repr(x)} is not valid under any of the given schemas"
        reprs = ", ".join(map(repr, valid[1:] + valid[:1]))  # jsonschema's order
        return (), "oneOf", f"{_repr(x)} is valid under each of {reprs}"
    return check


# the class of instances each group of keywords applies to, and its compiler
KINDS = ((dict, _object), (list, _array), (str, _string), (numbers.Number, _number))
KEYWORDS = ANNOTATIONS | {
    "type", "properties", "required", "additionalProperties", "items", "prefixItems",
    "minItems", "maxItems", "minimum", "pattern", "oneOf", "$ref", "$defs",
}


def compile_schema(schema) -> Check:
    """A check that returns None exactly on the instances `schema` accepts,
    and the first error on every other.

    Raises NotImplementedError, anywhere in the schema, for a keyword
    outside KEYWORDS, a type name outside TYPES, a `$ref` that names no
    entry of the root's `$defs`, and a subschema that is neither an object
    nor a boolean.
    """
    defs = schema.get("$defs", {}) if isinstance(schema, dict) else {}
    _refuse_unsupported(schema, defs)
    return _compile(schema, defs)


def _refuse_unsupported(schema, defs: dict) -> None:
    """Raise what compile_schema refuses, for the first subschema, depth
    first, that needs it; each subschema is visited once, `$ref`s are
    checked but not followed, and nothing is compiled."""
    todo = [schema]
    while todo:
        schema = todo.pop()
        if isinstance(schema, bool):
            continue
        if not isinstance(schema, dict):
            raise NotImplementedError(f"cannot compile schema {schema!r}")
        unknown = schema.keys() - KEYWORDS
        if unknown:
            raise NotImplementedError(f"cannot compile schema keyword(s) {sorted(unknown)}")
        if "type" in schema:
            names = schema["type"]
            unknown = {*([names] if isinstance(names, str) else names)} - TYPES.keys()
            if unknown:
                raise NotImplementedError(f"cannot compile schema type(s) {sorted(unknown)}")
        if "$ref" in schema:  # only #/$defs/<name>, a name with no escapes
            pointer, _, name = (ref := schema["$ref"]).rpartition("/")
            if pointer != "#/$defs" or name not in defs or "~" in name or "%" in name:
                raise NotImplementedError(f"cannot compile schema reference {ref!r}")
        todo += reversed([*schema.get("properties", {}).values(),
                          *[schema[k] for k in ("additionalProperties", "items") if k in schema],
                          *schema.get("prefixItems", ()), *schema.get("oneOf", ()),
                          *schema.get("$defs", {}).values()])


def _compile(schema, defs: dict) -> Check:
    """The check of `schema`, which _refuse_unsupported has passed."""
    if isinstance(schema, bool):
        return _accept if schema else _reject
    sub = lambda s: _compile(s, defs)
    kinds = [(cls, check) for cls, build in KINDS if (check := build(schema, sub, defs))]
    checks = []
    if "type" in schema:
        only, is_type, wrong = _type(schema["type"])
        if only is None:
            checks.append(lambda x: None if is_type(x) else wrong(x))
        else:  # no other kind's keywords meet an instance that passes
            inner = _all([check for cls, check in kinds if cls is only])
            kinds = []
            checks.append(lambda x: inner(x) if isinstance(x, only) else wrong(x))
    checks += [(lambda x, cls=cls, check=check: check(x) if isinstance(x, cls) else None)
               for cls, check in kinds]
    if "oneOf" in schema:
        checks.append(_one_of(schema["oneOf"], sub))
    if "$ref" in schema:
        checks.append(sub(defs[schema["$ref"].rpartition("/")[2]]))
    return _all(checks)
