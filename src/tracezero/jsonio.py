"""JSON codecs for matrices, complexes, and fields, and the output encoder.

Matrix schema: {"n": int, "entries": [[[re, im], ...], ...]} row-major.
Field schema: {"complex": {"vertices": int, "simplices": [[ids]]},
               "n": int, "values": {"<vertex>": matrix}}.

``encode`` writes a document byte for byte as json.dumps(doc, indent=2,
sort_keys=True) + newline would, but renders each grid of [re, im] pairs from
one call of the C encoder instead of json's pure-Python indenting walk.
"""
from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import InvalidInputError
from .matcore import as_matrix
from .ozfield import SimplicialComplex, SimplicialField, make_field
from .schemas import grid_numbers


def matrix_to_json(m) -> dict:
    m = as_matrix(m, square=True)
    return {"n": int(m.shape[0]), "entries": np.stack([m.real, m.imag], -1).tolist()}


def matrix_from_json(doc: dict, name: str = "matrix") -> np.ndarray:
    try:
        n = int(doc["n"])
        rows = doc["entries"]
    except (KeyError, TypeError) as exc:
        raise InvalidInputError(f"{name}: malformed matrix document") from exc
    if n < 1 or len(rows) != n or any(len(r) != n for r in rows):
        raise InvalidInputError(f"{name}: entries must be {n} x {n}")
    try:
        parts = np.asarray(rows, dtype=float)
    except OverflowError:
        raise InvalidInputError(f"{name}: an entry is too large for a float") from None
    except ValueError:
        parts = None  # ragged pairs, or an item that is no number
    if parts is None or parts.shape != (n, n, 2):
        for i, row in enumerate(rows):
            for j, pair in enumerate(row):
                if len(pair) != 2:
                    raise InvalidInputError(f"{name}: entry ({i},{j}) is not an [re, im] pair")
        raise InvalidInputError(f"{name}: entries must be [re, im] pairs of numbers")
    return as_matrix(parts.view(complex)[..., 0], square=True, name=name)


def complex_to_json(c: SimplicialComplex) -> dict:
    return {"vertices": c.vertex_count,
            "simplices": [list(s) for s in c.maximal_simplices]}


def complex_from_json(doc: dict) -> SimplicialComplex:
    try:
        return SimplicialComplex.make(doc["vertices"], doc["simplices"])
    except (KeyError, TypeError) as exc:
        raise InvalidInputError("malformed complex document") from exc


def field_to_json(fld: SimplicialField) -> dict:
    return {
        "complex": complex_to_json(fld.complex),
        "n": fld.matrix_size,
        "values": {str(v): matrix_to_json(fld.values[v])
                   for v in range(fld.complex.vertex_count)},
    }


def field_from_json(doc: dict) -> SimplicialField:
    try:
        complex_ = complex_from_json(doc["complex"])
        n = int(doc["n"])
        values_doc = doc["values"]
    except (KeyError, TypeError) as exc:
        raise InvalidInputError("malformed field document") from exc
    values = []
    for v in range(complex_.vertex_count):
        key = str(v)
        if key not in values_doc:
            raise InvalidInputError(f"field is missing a value for vertex {v}")
        m = matrix_from_json(values_doc[key], name=f"value at vertex {v}")
        if m.shape[0] != n:
            raise InvalidInputError(f"value at vertex {v} is not {n} x {n}")
        values.append(m)
    return make_field(complex_, values)


def encode(doc) -> str:
    """Exactly json.dumps(doc, indent=2, sort_keys=True) + "\n", with each
    grid of [re, im] number pairs written from one C-encoder call."""
    out = []
    _encode_into(out, doc, 0)
    out.append("\n")
    return "".join(out)


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _encode_into(out: list, o, level: int):
    """Append the indented JSON text of ``o``, following json's type rules."""
    if isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_float_text(o))
    elif isinstance(o, (list, tuple, dict)):
        if not o:
            out.append("{}" if isinstance(o, dict) else "[]")
            return
        numbers = grid_numbers(o)
        if numbers and all(o):
            out.append(_grid_text(o, numbers, level))
            return
        indent = "\n" + "  " * (level + 1)
        separator = indent
        if isinstance(o, dict):
            out.append("{")
            for key, value in sorted(o.items()):
                out.append(separator + encode_basestring_ascii(_key_text(key)) + ": ")
                _encode_into(out, value, level + 1)
                separator = "," + indent
            out.append("\n" + "  " * level + "}")
        else:
            out.append("[")
            for value in o:
                out.append(separator)
                _encode_into(out, value, level + 1)
                separator = "," + indent
            out.append("\n" + "  " * level + "]")
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _key_text(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True or key is False or key is None:
        return json.dumps(key)
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _grid_text(rows: list, numbers: list, level: int) -> str:
    """Indented text of nonempty rows of [re, im] pairs, whose row-major
    numbers are ``numbers``."""
    nl = ["\n" + "  " * (level + depth) for depth in range(4)]
    texts = json.dumps(numbers)[1:-1].split(", ")
    pairs = list(map(("," + nl[3]).join, zip(texts[0::2], texts[1::2])))
    pair_separator = nl[2] + "]," + nl[2] + "[" + nl[3]
    row_texts, start = [], 0
    for row in rows:
        row_texts.append(pair_separator.join(pairs[start:start + len(row)]))
        start += len(row)
    row_separator = nl[2] + "]" + nl[1] + "]," + nl[1] + "[" + nl[2] + "[" + nl[3]
    return ("[" + nl[1] + "[" + nl[2] + "[" + nl[3] + row_separator.join(row_texts)
            + nl[2] + "]" + nl[1] + "]" + nl[0] + "]")
