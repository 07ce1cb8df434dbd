"""Input and output schemas of every CLI command (draft 2020-12) and their validation.

The copies under docs/schemas/ are written from these dicts by
scripts/write_schemas.py; a test keeps them in sync.

``validate`` runs one validator per command, derived from its schema: every
matrix ``entries`` leaf and every bundle ``summands`` leaf is checked with
one exact pass over Python types instead of a jsonschema walk of every
number.  A grid that fails that pass is worded from its failing rows only,
each walked by the real row schema, so error messages and paths are exactly
those of ``jsonschema.validate``.

The output schemas' own integers and numbers have the formats ``int64`` and
``double``, which ``validate`` asserts: 1.0 is no int64, 10**400 no double.
"""
from __future__ import annotations

import functools
import itertools

from jsonschema import Draft202012Validator, FormatChecker, validators
from jsonschema.exceptions import best_match, relevance

MATRIX = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["n", "entries"],
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "entries": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {
                    "type": "array",
                    "items": {"type": "number"},
                    "minItems": 2,
                    "maxItems": 2,
                },
            },
        },
    },
}

COMPLEX = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["vertices", "simplices"],
    "properties": {
        "vertices": {"type": "integer", "minimum": 1},
        "simplices": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        },
    },
}

FIELD = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["complex", "n", "values"],
    "properties": {
        "complex": COMPLEX,
        "n": {"type": "integer", "minimum": 1},
        "values": {"type": "object", "additionalProperties": MATRIX},
    },
}

BUNDLE = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["variables", "summands"],
    "properties": {
        "variables": {"type": "integer", "minimum": 0},
        "summands": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "array", "items": {"type": "integer"}},
        },
    },
}

TOWER_MODEL = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["blocks"],
    "properties": {
        "ambient": {"type": "integer", "minimum": 1},
        "L": {"type": "integer", "minimum": 1},
        "K": {"type": "integer", "minimum": 1},
        "M": {"type": "integer", "minimum": 1},
        "epsilon": {"type": "number", "exclusiveMinimum": 0},
        "deltas": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}},
        "blocks": {
            "type": "array",
            "minItems": 1,
            "items": {
                "anyOf": [
                    {
                        "type": "object",
                        "required": ["rank"],
                        "properties": {"rank": {"type": "integer", "minimum": 1}},
                    },
                    MATRIX,
                ]
            },
        },
    },
}

PARAMETERS = {  # a run's flags, as verify reads them
    "type": "object",
    "properties": {
        "seed": {"type": "integer"},
        "refine": {"type": "integer"},
        "depth": {"type": ["integer", "null"]},
    },
}

INPUT_SCHEMAS = {
    "decompose": MATRIX,
    "decompose-tight": MATRIX,
    "decompose-field": FIELD,
    "fack-run": {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "type": "object",
        "required": ["tower"],
        "properties": {
            "tower": TOWER_MODEL,
            "z0": MATRIX,
            "depth": {"type": "integer", "minimum": 0},
        },
    },
    "block-split": {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "type": "object",
        "required": ["blocks", "b", "pairs", "e"],
        "properties": {
            "blocks": {"type": "integer", "minimum": 1},
            "b": MATRIX,
            "pairs": {
                "type": "array",
                "minItems": 1,
                "items": {
                    "type": "object",
                    "required": ["x", "y"],
                    "properties": {"x": MATRIX, "y": MATRIX},
                },
            },
            "e": MATRIX,
        },
    },
    "obstruct": {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "type": "object",
        "required": ["q", "n"],
        "properties": {"q": BUNDLE, "n": {"type": "integer", "minimum": 1}},
    },
    "pp-example": {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "type": "object",
        "required": ["m"],
        "properties": {"m": {"type": "integer", "minimum": 1}},
    },
    "tower": {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "type": "object",
        "required": ["m_max"],
        "properties": {"m_max": {"type": "integer", "minimum": 1}},
    },
    "verify": {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "type": "object",
        "required": ["command", "parameters", "input"],
        "properties": {
            "command": {"type": "string"},
            "parameters": PARAMETERS,
            "input": {"type": "object"},
        },
    },
}



def _obj(**properties) -> dict:
    """An object schema that requires each of ``properties``."""
    return {"type": "object", "required": list(properties), "properties": properties}


def _list(items) -> dict:
    return {"type": "array", "items": items}


INTEGER, NUMBER = {"type": "integer", "format": "int64"}, {"type": "number", "format": "double"}
BOOLEAN, STRING, OBJECT = ({"type": name} for name in ("boolean", "string", "object"))
BOUND_CHECK = _obj(name=STRING, claimed_bound=NUMBER, measured_value=NUMBER, tolerance=NUMBER,
                   passed=BOOLEAN)


def _report(checks=_list(BOUND_CHECK)) -> dict:
    return _obj(bound_checks=checks, all_passed=BOOLEAN)


def _factors(kind: str, *names) -> dict:  # each factor has one MATRIX per name
    return {"kind": {"const": kind}, "factors": _list(_obj(**dict.fromkeys(names, MATRIX)))}


_EXACT = _report({"type": "array", "maxItems": 0})  # an exact result claims no bounds
# Each command's (result, report); an exact result is only an object, which
# verify compares whole.
_BODIES = {
    "decompose": (_obj(**_factors("self_commutators", "x")), _report()),
    "decompose-tight": (_obj(**_factors("general_commutators", "x", "y")), _report()),
    "decompose-field": (_obj(coloring=_list(INTEGER), sup_norm=NUMBER, field=FIELD, factors=_list(
        _obj(color=INTEGER, entries=_list(_obj(vertex=INTEGER, x=MATRIX))))), _report()),
    "fack-run": (_obj(**_factors("general_commutators", "x", "y"), residual_norm=NUMBER,
                      tower_report=_obj(stage_checks=_list(_list(BOUND_CHECK)),
                                        all_passed=BOOLEAN)),
                 _report()),
    "block-split": (_obj(shift_upper=MATRIX, shift_lower=MATRIX, rest=MATRIX,
                         diag_part_norm=NUMBER), _report()),
    **dict.fromkeys(("obstruct", "pp-example", "tower"), (OBJECT, _EXACT)),
    "verify": (_obj(verified=BOOLEAN, mismatches=_list(STRING), inner_exit_code={"enum": [0, 1]}),
               _EXACT),
}
# verify's input part is the checked document's command and digest
_DIGEST = _obj(command=STRING, sha256={"type": "string", "pattern": "^[0-9a-f]{64}$"},
               bytes={**INTEGER, "minimum": 0})
OUTPUT_SCHEMAS = {command: {"$schema": MATRIX["$schema"], **_obj(
    command={"const": command}, parameters=PARAMETERS,
    input=_DIGEST if command == "verify" else INPUT_SCHEMAS[command], result=result,
    report=report)} for command, (result, report) in _BODIES.items()}

NAMED_SCHEMAS = {
    "matrix": MATRIX,
    "complex": COMPLEX,
    "field": FIELD,
    "bundle": BUNDLE,
    "tower-model": TOWER_MODEL,
    **{f"{cmd}.input": schema for cmd, schema in INPUT_SCHEMAS.items()},
    **{f"{cmd}.output": schema for cmd, schema in OUTPUT_SCHEMAS.items()},
}


def grid_numbers(rows):
    """The numbers of an [[[re, im], ...], ...] grid in row-major order, or
    None unless rows and pairs are lists, every pair has two items, and every
    item has type int or float (so bool fails)."""
    if type(rows) is not list or not set(map(type, rows)) <= {list}:
        return None
    pairs = list(itertools.chain.from_iterable(rows))
    if not set(map(type, pairs)) <= {list} or not set(map(len, pairs)) <= {2}:
        return None
    numbers = list(itertools.chain.from_iterable(pairs))
    if not set(map(type, numbers)) <= {int, float}:
        return None
    return numbers


def _is_int_grid(rows) -> bool:
    """Whether rows is a list of lists of items of type int (so bool fails)."""
    return (type(rows) is list and set(map(type, rows)) <= {list}
            and set(map(type, itertools.chain.from_iterable(rows))) <= {int})


def _row_keyword(passes, row_schema):
    """A keyword that checks a grid with ``passes`` in one exact pass.  A
    grid's errors come only from its rows that fail ``passes``: a passing
    row has none under ``row_schema``, so only failing rows are walked, in
    order, as the full schema's ``items`` would walk them."""
    def check(validator, value, instance, schema):
        if not validator.is_type(instance, "array") or passes(instance):
            return
        for i, row in enumerate(instance):
            if not passes([row]):
                yield from validator.descend(row, row_schema, path=i)
    return check


# (schema, its grid property, the envelope keyword, the grid's exact check)
_GRIDS = ((MATRIX, "entries", "pairGrid", lambda rows: grid_numbers(rows) is not None),
          (BUNDLE, "summands", "intGrid", _is_int_grid))

_EnvelopeValidator = validators.extend(Draft202012Validator, {
    keyword: _row_keyword(passes, owner["properties"][name]["items"])
    for owner, name, keyword, passes in _GRIDS})

# The formats of the output schemas' numbers.  Each passes a value not of its
# number type, which the type check words; float() of an int is infinite from
# 2**1024 - 2**970 on.
_FORMATS = FormatChecker(())
_FORMATS.checks("int64")(lambda x: type(x) is not float and (
    type(x) is not int or -2 ** 63 <= x < 2 ** 63))
_FORMATS.checks("double")(lambda x: type(x) is not int or abs(x) < 2 ** 1024 - 2 ** 970)


def _envelope(schema):
    """A copy of ``schema`` whose ``_GRIDS`` leaves, MATRIX ``entries`` and
    BUNDLE ``summands``, are checked in one exact pass.  Nested ``$schema``
    keys are dropped, as jsonschema would otherwise switch back to the plain
    draft validator."""
    if isinstance(schema, list):
        return [_envelope(value) for value in schema]
    if not isinstance(schema, dict):
        return schema
    envelope = {key: _envelope(value) for key, value in schema.items() if key != "$schema"}
    for owner, name, keyword, _ in _GRIDS:
        if schema is owner:  # the grid's own keywords, with its ``items`` checked by ``keyword``
            leaf = {key: value for key, value in schema["properties"][name].items() if key != "items"}
            envelope["properties"][name] = {**leaf, keyword: True}
    return envelope


@functools.cache
def _validator(command: str, output: bool = False):
    """The validator of one command's input or output, built on first use."""
    schema = _envelope((OUTPUT_SCHEMAS if output else INPUT_SCHEMAS)[command])
    return _EnvelopeValidator(schema, format_checker=_FORMATS)


def validate(doc, command: str, output: bool = False):
    """Raise exactly the ValidationError that jsonschema.validate(doc, INPUT_SCHEMAS[command])
    raises, or nothing if ``doc`` is valid.  With ``output``, check ``doc`` by
    OUTPUT_SCHEMAS[command] and its formats, an error in the echoed input ranking first."""
    error = best_match(_validator(command, output).iter_errors(doc), key=lambda e: (
        output and list(e.absolute_path)[:1] == ["input"], *relevance(e)))
    if error is not None:
        raise error
