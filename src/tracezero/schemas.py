"""Input schemas for every CLI command (draft 2020-12), and their validation.

The copies under docs/schemas/ are generated from these dicts; a test keeps
them in sync.

``validate`` checks a document fast and words errors slowly: an envelope
validator, derived from each schema, checks every matrix ``entries`` leaf
with one exact pass over Python types instead of a jsonschema walk of every
number.  Only when that check fails does the full validator run, so error
messages and paths are exactly those of ``jsonschema.validate``.
"""
from __future__ import annotations

import functools
import itertools
import json
import pathlib

from jsonschema import Draft202012Validator, ValidationError, validators
from jsonschema.exceptions import best_match

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
            "parameters": {
                "type": "object",
                "properties": {
                    "tol": {"type": "number"},
                    "seed": {"type": "integer"},
                    "refine": {"type": "integer"},
                    "depth": {"type": ["integer", "null"]},
                },
            },
            "input": {"type": "object"},
        },
    },
}

NAMED_SCHEMAS = {
    "matrix": MATRIX,
    "complex": COMPLEX,
    "field": FIELD,
    "bundle": BUNDLE,
    "tower-model": TOWER_MODEL,
    **{f"{cmd}.input": schema for cmd, schema in INPUT_SCHEMAS.items()},
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


def _check_grid(validator, value, instance, schema):
    # Only pass or fail matters: a failure is worded by the full validator.
    if grid_numbers(instance) is None:
        yield ValidationError("entries are not an exact grid of [re, im] number pairs")


_EnvelopeValidator = validators.extend(Draft202012Validator, {"pairGrid": _check_grid})


def _envelope(schema):
    """A copy of ``schema`` whose MATRIX ``entries`` leaves are checked by
    ``grid_numbers`` in one pass.  Nested ``$schema`` keys are dropped, as
    jsonschema would otherwise switch back to the plain draft validator."""
    if isinstance(schema, list):
        return [_envelope(value) for value in schema]
    if not isinstance(schema, dict):
        return schema
    envelope = {key: _envelope(value) for key, value in schema.items() if key != "$schema"}
    if schema is MATRIX:
        envelope["properties"]["entries"] = {"type": "array", "pairGrid": True}
    return envelope


@functools.cache
def _validators(command: str):
    """The envelope and the full validator of one command, built on first use."""
    schema = INPUT_SCHEMAS[command]
    return _EnvelopeValidator(_envelope(schema)), Draft202012Validator(schema)


def validate(doc, command: str):
    """Raise exactly the ValidationError that jsonschema.validate(doc,
    INPUT_SCHEMAS[command]) raises, or nothing if ``doc`` is valid."""
    envelope, full = _validators(command)
    if envelope.is_valid(doc):
        return
    error = best_match(full.iter_errors(doc))
    if error is not None:
        raise error


def write_schema_files(directory) -> list:
    """Write one <name>.schema.json per schema; returns the paths."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, schema in sorted(NAMED_SCHEMAS.items()):
        path = directory / f"{name}.schema.json"
        path.write_text(json.dumps(schema, indent=2, sort_keys=True) + "\n")
        paths.append(path)
    return paths
