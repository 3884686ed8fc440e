"""A JSON Schema (draft 2020-12) validator for the keywords the workspace schema uses.

A schema is compiled once into closures.  The check of one subschema looks at
the JSON type of the instance (a value ``json.load`` returns) and runs only
the keywords that apply to that type, in the schema's key order; ``type`` is
decided at compile time except for ``integer`` against a float.  Supported
validation keywords:

* ``type``, ``enum``, ``minimum``;
* ``properties``, ``required``, ``additionalProperties``, ``propertyNames``;
* ``items``, ``prefixItems``, ``minItems``, ``maxItems``;
* ``pattern``, ``minLength``.

The annotations ``$schema``, ``$id`` and ``title`` are ignored; any other
keyword, a ``$ref`` included, raises SchemaError when the schema is compiled.
Errors carry the same ``absolute_path`` and ``message`` as those of
``jsonschema.Draft202012Validator`` and come in the same order: keywords in
schema order, ``properties`` in schema order, other keys and items in
instance order.
"""

from __future__ import annotations

import functools
import re

ANNOTATIONS = frozenset({"$schema", "$id", "title"})


class SchemaError(Exception):
    """The schema uses a keyword or a form this module does not implement."""


class ValidationError:
    """One violation: where in the instance (keys and indexes from the root) and why."""

    __slots__ = ("absolute_path", "message")

    def __init__(self, absolute_path: tuple, message: str):
        self.absolute_path = absolute_path
        self.message = message


# A path is built while descending as a chain (parent chain, key), the root
# being (); it becomes a tuple only when an error is recorded.


def _error(errors: list, chain: tuple, message: str) -> None:
    keys = []
    while chain:
        chain, key = chain
        keys.append(key)
    errors.append(ValidationError(tuple(reversed(keys)), message))


# =====================================================================
# JSON types
# =====================================================================

KINDS = ("object", "array", "string", "number", "boolean", "null")
_KIND_OF_TYPE = {
    dict: "object",
    list: "array",
    str: "string",
    int: "number",
    float: "number",
    bool: "boolean",
    type(None): "null",
}


def _is_integer(instance) -> bool:
    """Draft 2020-12 ``integer`` on a number: an int, or a float with no fraction."""
    return type(instance) is int or instance.is_integer()


def _unbool(value):
    return ("bool", value) if isinstance(value, bool) else value


def _equal(one, two) -> bool:
    """JSON equality, where true and 1 (and false and 0) differ."""
    if isinstance(one, str) or isinstance(two, str):
        return one == two
    if isinstance(one, list) and isinstance(two, list):
        return len(one) == len(two) and all(map(_equal, one, two))
    if isinstance(one, dict) and isinstance(two, dict):
        return one.keys() == two.keys() and all(_equal(one[k], two[k]) for k in one)
    return _unbool(one) == _unbool(two)


# =====================================================================
# keywords: each maps its value to {kind: step(instance, chain, errors)}
# =====================================================================


def _type(types, schema) -> dict:
    types = [types] if isinstance(types, str) else list(types)
    message = " is not of type " + ", ".join(repr(t) for t in types)

    def fail(instance, chain, errors):
        _error(errors, chain, repr(instance) + message)

    def fail_unless_integer(instance, chain, errors):
        if not _is_integer(instance):
            _error(errors, chain, repr(instance) + message)

    steps = {kind: fail for kind in KINDS if kind not in types}
    if "number" in steps and "integer" in types:
        steps["number"] = fail_unless_integer
    return steps


def _enum(values, schema) -> dict:
    message = f" is not one of {values!r}"

    def step(instance, chain, errors):
        if not any(_equal(value, instance) for value in values):
            _error(errors, chain, repr(instance) + message)

    return dict.fromkeys(KINDS, step)


def _minimum(bound, schema) -> dict:
    message = f" is less than the minimum of {bound!r}"

    def step(instance, chain, errors):
        if instance < bound:
            _error(errors, chain, repr(instance) + message)

    return {"number": step}


def _properties(properties, schema) -> dict:
    checks = tuple((name, compile_schema(sub)) for name, sub in properties.items())

    def step(instance, chain, errors):
        for name, check in checks:
            if name in instance:
                check(instance[name], (chain, name), errors)

    return {"object": step}


def _required(names, schema) -> dict:
    def step(instance, chain, errors):
        for name in names:
            if name not in instance:
                _error(errors, chain, f"{name!r} is a required property")

    return {"object": step}


def _additional_properties(additional, schema) -> dict:
    declared = frozenset(schema.get("properties", ()))
    if additional is True:
        return {}
    if additional is False:

        def forbid(instance, chain, errors):
            extras = [key for key in instance if key not in declared]
            if extras:
                verb = "was" if len(extras) == 1 else "were"
                listed = ", ".join(repr(key) for key in sorted(extras, key=str))
                _error(errors, chain, f"Additional properties are not allowed ({listed} {verb} unexpected)")

        return {"object": forbid}
    check = compile_schema(additional)

    def step(instance, chain, errors):
        for key, value in instance.items():
            if key not in declared:
                check(value, (chain, key), errors)

    return {"object": step}


def _property_names(names, schema) -> dict:
    check = compile_schema(names)

    def step(instance, chain, errors):
        for key in instance:
            check(key, chain, errors)

    return {"object": step}


def _items(items, schema) -> dict:
    check = compile_schema(items)
    prefix = len(schema.get("prefixItems", ()))

    def step(instance, chain, errors):
        for index in range(prefix, len(instance)):
            check(instance[index], (chain, index), errors)

    return {"array": step}


def _prefix_items(prefix_items, schema) -> dict:
    checks = tuple(compile_schema(sub) for sub in prefix_items)

    def step(instance, chain, errors):
        for index, (item, check) in enumerate(zip(instance, checks)):
            check(item, (chain, index), errors)

    return {"array": step}


def _min_items(bound, schema) -> dict:
    message = " should be non-empty" if bound == 1 else " is too short"

    def step(instance, chain, errors):
        if len(instance) < bound:
            _error(errors, chain, repr(instance) + message)

    return {"array": step}


def _max_items(bound, schema) -> dict:
    message = " is expected to be empty" if bound == 0 else " is too long"

    def step(instance, chain, errors):
        if len(instance) > bound:
            _error(errors, chain, repr(instance) + message)

    return {"array": step}


def _pattern(pattern, schema) -> dict:
    search = re.compile(pattern).search
    message = f" does not match {pattern!r}"

    def step(instance, chain, errors):
        if not search(instance):
            _error(errors, chain, repr(instance) + message)

    return {"string": step}


def _min_length(bound, schema) -> dict:
    message = " should be non-empty" if bound == 1 else " is too short"

    def step(instance, chain, errors):
        if len(instance) < bound:
            _error(errors, chain, repr(instance) + message)

    return {"string": step}


KEYWORDS = {
    "type": _type,
    "enum": _enum,
    "minimum": _minimum,
    "properties": _properties,
    "required": _required,
    "additionalProperties": _additional_properties,
    "propertyNames": _property_names,
    "items": _items,
    "prefixItems": _prefix_items,
    "minItems": _min_items,
    "maxItems": _max_items,
    "pattern": _pattern,
    "minLength": _min_length,
}


def compile_schema(schema: dict):
    """``check(instance, chain, errors)``, which appends one ValidationError per violation."""
    if not isinstance(schema, dict):
        raise SchemaError(f"unsupported subschema {schema!r}")
    steps = {kind: [] for kind in KINDS}
    for keyword, value in schema.items():
        if keyword in ANNOTATIONS:
            continue
        if keyword not in KEYWORDS:
            raise SchemaError(f"unsupported keyword {keyword!r}")
        for kind, step in KEYWORDS[keyword](value, schema).items():
            steps[kind].append(step)
    by_type = {cls: tuple(steps[kind]) for cls, kind in _KIND_OF_TYPE.items()}

    def check(instance, chain, errors):
        for step in by_type[type(instance)]:
            step(instance, chain, errors)

    return check


class _Same:
    """A schema as a cache key: equal only to the very same object."""

    __slots__ = ("schema",)

    def __init__(self, schema):
        self.schema = schema

    def __hash__(self) -> int:
        return id(self.schema)

    def __eq__(self, other) -> bool:
        return self.schema is other.schema


@functools.lru_cache(maxsize=8)
def _compiled(same: _Same):
    return compile_schema(same.schema)


class Draft202012Validator:
    """Validator for one schema, compiled on first use of that schema object.

    The schema must not change after it was first validated against.
    """

    def __init__(self, schema: dict):
        self._check = _compiled(_Same(schema))

    def iter_errors(self, instance):
        errors: list[ValidationError] = []
        self._check(instance, (), errors)
        return iter(errors)
