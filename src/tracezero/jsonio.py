"""JSON codecs for matrices, complexes, and fields, the decoders of every
command's input, and the output encoder.  The formats they read and write
are stated once, by the schemas of ``tracezero.schemas``.

``decode_input`` reads a command's input, for the command and for ``verify``
alike, by every rule that needs no construction.  ``implied_exit_code`` reads
the exit code off a finished document, for the command and for ``verify``
alike.

``encode`` writes a document byte for byte as json.dumps(doc, indent=2,
sort_keys=True) + newline would, with one type rule more: a square 2-d
complex ndarray is written as its ``matrix_to_json`` document would be.  The
commands put the matrices they compute into their output as such arrays,
each checked by ``as_matrix`` first.  Every grid of [re, im] pairs, from a
list or from an array, is laid out by the one function ``_grid_layout``
instead of json's pure-Python indenting walk, and its numbers are written
by the one renderer ``_number_texts``: orjson's shortest round-trip digits,
which are json's digits, with json.dumps re-rendering only the numbers
whose text differs (non-finite floats, and the exponent form that
``float.__repr__`` takes below 1e-4 and from 1e16).  A list grid's numbers
are rendered in one call.  The arrays' numbers are rendered in one batch
per document: the walk records where each array's grid goes, one call
renders the distinct numbers of all the arrays, so each distinct number is
rendered once per document, and each grid is then laid out from its slice
of the batch.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np
import orjson

from .claims import TINY, slack
from .errors import InvalidInputError
from .matcore import MAX_FLOAT, as_matrix, operator_norm, require_block_layout, require_hermitian
from .obstruct import BundleExpr, require_pp_example_m, require_tower_m_max
from .ozfield import SimplicialComplex, SimplicialField, make_field
from .schemas import grid_numbers


def matrix_to_json(m) -> dict:
    m = as_matrix(m, square=True)
    return {"n": int(m.shape[0]), "entries": np.stack([m.real, m.imag], -1).tolist()}


def matrix_from_json(doc: dict, name: str = "matrix") -> np.ndarray:
    """The matrix of a schema-valid MATRIX document."""
    n, rows = int(doc["n"]), doc["entries"]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise InvalidInputError(f"{name}: entries must be {n} x {n}")
    try:
        parts = np.asarray(rows, dtype=float)
    except OverflowError:
        raise InvalidInputError(f"{name}: an entry is too large for a float") from None
    return as_matrix(parts.view(complex)[..., 0], square=True, name=name)


def complex_to_json(c: SimplicialComplex) -> dict:
    return {"vertices": c.vertex_count,
            "simplices": [list(s) for s in c.maximal_simplices]}


def field_from_json(doc: dict) -> SimplicialField:
    """The field of a schema-valid FIELD document, which needs a value of
    size n for each vertex."""
    complex_ = SimplicialComplex.make(doc["complex"]["vertices"], doc["complex"]["simplices"])
    n, values_doc = int(doc["n"]), doc["values"]
    values = []
    for v in range(complex_.vertex_count):
        if str(v) not in values_doc:
            raise InvalidInputError(f"field is missing a value for vertex {v}")
        m = matrix_from_json(values_doc[str(v)], name=f"value at vertex {v}")
        if m.shape[0] != n:
            raise InvalidInputError(f"value at vertex {v} is not {n} x {n}")
        values.append(m)
    return make_field(complex_, values)


def float_from_json(value, name: str) -> float:
    """float(value), with an integer too large for a float and a non-finite
    float (json reads 1e400 as inf, and NaN and Infinity tokens) as invalid
    input."""
    try:
        x = float(value)
    except OverflowError:
        raise InvalidInputError(f"{name} is too large for a float") from None
    if not math.isfinite(x):
        raise InvalidInputError(f"{name} must be a finite number, not {x}")
    return x


# --------------------------------------------------------------------------
# Command inputs.

TOWER_ENTRY_BUDGET = 2 ** 26  # complex entries a run holds: elements, a witness, all pairs
TOWER_PAIR_BUDGET = 2 ** 9  # commutator pairs over all stages, (blocks-1)*L*(L+K-1)
# Complex entries of the output matrices: z0 and both matrices of each of at
# most 2*L*(L+K-1) commutators that the collapse leaves.
TOWER_OUTPUT_BUDGET = 2 ** 20


@dataclass(frozen=True)
class TowerInput:
    """A fack-run input: blocks as ``ranks`` of 0/1 projections or as
    Hermitian ``elements`` within their entry range (the other None), all of
    size ``ambient``, within the tower work and output budgets; defaults
    applied, ``depth`` as given, and ``z0`` a trace-zero Hermitian matrix of
    size ``ambient``, or None."""

    ranks: list | None
    elements: list | None
    ambient: int
    L: int
    K: int
    M: int
    epsilon: float
    deltas: list
    depth: int | None
    z0: np.ndarray | None

    @property
    def per_stage(self) -> int:
        """The commutators of one push step, L(L+K-1)."""
        return self.L * (self.L + self.K - 1)

    @property
    def count_bound(self) -> int:
        """The commutators of a whole run, L(L+K-1) + max(M, L(L+K-1))."""
        return self.per_stage + max(self.M, self.per_stage)

    def run_depth(self, flag: int | None) -> int:
        """The --depth ``flag``, else the input's depth, else the last stage."""
        stages = len(self.deltas)
        depth = flag if flag is not None else self.depth if self.depth is not None else stages
        if not 0 <= depth <= stages:
            raise InvalidInputError(f"depth must lie in [0, {stages}]")
        return depth


def _require_entry_range(named: list, limit: float, products: str):
    """Each matrix of ``named`` (name, matrix) with no real or imaginary part
    beyond ``limit``, within which ``products`` stay finite."""
    for name, m in named:
        if max(np.abs(m.real).max(), np.abs(m.imag).max()) > limit:
            raise InvalidInputError(
                f"{name} has entries beyond about {limit:.4g} in magnitude, where "
                f"{products} can overflow a float")


def _tower_z0(doc: dict, inp: TowerInput) -> np.ndarray | None:
    """The given z0: Hermitian, of the tower's size n, within its entry range,
    and trace zero, which is |tr z0| <= slack(1e-9 n, norm(z0)); the norm is
    taken only above TINY.

    The range keeps every matrix a run forms finite.  Its claims bound each
    stage's remainder by K times the norm it pushes, so no stage pushes more
    than X = K^T norm(z0) over T stages.  A push step's sums of conjugates
    stay within L*L(L+K-1)*X, the in-block finish needs 2X and n*X within
    the float maximum (``hermitian_eig``'s rules), and z0 less its at most
    L(L+K-1) + max(M, L(L+K-1)) commutators, each of norm at most 2X, stays
    within (1 + 2*count)*X.  All of these hold for norm(z0) <= MAX_FLOAT /
    (4 n L count K^T), and norm(z0) <= 2n times its largest real or
    imaginary part."""
    if doc.get("z0") is None:
        return None
    n = inp.ambient
    z0 = require_hermitian(matrix_from_json(doc["z0"], name="z0"), name="z0")
    if z0.shape[0] != n:
        raise InvalidInputError("z0 size does not match the tower")
    limit = MAX_FLOAT / (8.0 * n * n * inp.L * inp.count_bound * float(inp.K) ** len(inp.deltas))
    _require_entry_range([("z0", z0)], limit, "the matrices a fack-run forms from it")
    trace = abs(np.trace(z0))
    if trace > TINY and trace > slack(1e-9 * n, operator_norm(z0)):
        raise InvalidInputError("z0 must be trace zero")
    return z0


def _tower_input(doc: dict) -> TowerInput:
    """The TowerInput of a schema-valid fack-run document."""
    tower = doc["tower"]
    blocks = tower["blocks"]
    epsilon = float_from_json(tower.get("epsilon", 0.5), "tower.epsilon")
    deltas = [float_from_json(d, f"tower.deltas[{i}]") for i, d in
              enumerate(tower.get("deltas", [2.0 ** -(i + 1) for i in range(len(blocks) - 1)]))]
    L, K, M = (int(tower.get(key, 1)) for key in ("L", "K", "M"))
    both = next((i for i, b in enumerate(blocks) if "rank" in b and "entries" in b), None)
    if both is not None:
        raise InvalidInputError(f"tower.blocks[{both}] has both a rank and entries: a block "
                                "is a rank or a matrix")
    ranks = elements = None
    if all("rank" in b for b in blocks):
        ranks = [int(b["rank"]) for b in blocks]
        ambient = int(tower.get("ambient", sum(ranks)))
        if ambient < sum(ranks):
            raise InvalidInputError(f"ambient size {ambient} too small for ranks {ranks}")
    else:
        bare = next((i for i, b in enumerate(blocks) if "entries" not in b), None)
        if bare is not None:
            raise InvalidInputError(f"tower mixes rank and matrix blocks: tower.blocks[{bare}] "
                                    "has no entries")
        elements = [matrix_from_json(b, name=f"tower.blocks[{i}]") for i, b in enumerate(blocks)]
        ambient = elements[0].shape[0]
    if len(deltas) != len(blocks) - 1:
        raise InvalidInputError("need one delta per stage")
    if elements is not None:
        elements = [require_hermitian(e, name=f"e_{i}") for i, e in enumerate(elements)]
        if any(e.shape[0] != ambient for e in elements):
            raise InvalidInputError("all tower elements must share one size")
        # TowerModel's orthogonality check forms each product e_i e_j, whose
        # entries are at most 2n m^2 and whose norm is at most 2n^2 m^2 when
        # no real or imaginary part exceeds m.
        _require_entry_range([(f"e_{i}", e) for i, e in enumerate(elements)],
                             math.sqrt(MAX_FLOAT) / (2 * ambient),
                             "the products of two blocks that fack-run forms")
    depth = None if doc.get("depth") is None else int(doc["depth"])
    inp = TowerInput(ranks, elements, ambient, L, K, M, epsilon, deltas, depth, None)
    count = len(blocks)
    pairs = (count - 1) * inp.per_stage  # over all push steps
    if pairs > TOWER_PAIR_BUDGET:
        raise InvalidInputError(
            f"tower forms {pairs} commutator pairs ({count} elements, L={L}, K={K}), "
            f"over the budget of {TOWER_PAIR_BUDGET}")
    entries = (count + (L + K - 1) * L + 2 * pairs) * ambient * ambient
    if entries > TOWER_ENTRY_BUDGET:
        raise InvalidInputError(
            f"tower needs {entries} complex entries ({count} elements of size {ambient}, "
            f"L={L}, K={K}), over the budget of {TOWER_ENTRY_BUDGET}")
    written = (1 + 4 * inp.per_stage) * ambient * ambient
    if written > TOWER_OUTPUT_BUDGET:
        raise InvalidInputError(
            f"tower output holds {written} complex entries (z0 and up to "
            f"{2 * inp.per_stage} commutator pairs of size {ambient}), over the budget of "
            f"{TOWER_OUTPUT_BUDGET}")
    float_from_json(inp.count_bound, "the commutator count bound")
    return dataclasses.replace(inp, z0=_tower_z0(doc, inp))


def _block_split_input(doc: dict) -> tuple:
    b = matrix_from_json(doc["b"], name="b")
    pairs = [(matrix_from_json(p["x"], name="x"), matrix_from_json(p["y"], name="y"))
             for p in doc["pairs"]]
    e = matrix_from_json(doc["e"], name="e")
    d = int(doc["blocks"])
    require_block_layout(b.shape[0], d, pairs, e)
    # The command multiplies e into sums of b's blocks and commutators [x, y]
    # and forms [S, E] of such sums: products of three inputs, at most 16 n^3
    # times the cube of the largest entry modulus (or 1).
    limit = (MAX_FLOAT / 64) ** (1 / 3) / b.shape[0]
    named = [("b", b), *((f"pairs[{i}].{k}", m) for i, pair in enumerate(pairs)
                         for k, m in zip("xy", pair)), ("e", e)]
    _require_entry_range(named, limit, "the products of three inputs that block-split forms")
    return b, d, pairs, e


def _obstruct_input(doc: dict) -> tuple:
    q = BundleExpr.from_json(doc["q"])
    return q, q.require_copies(int(doc["n"]))


_DECODERS = {
    **dict.fromkeys(("decompose", "decompose-tight"),
                    lambda doc: matrix_from_json(doc, name="input matrix")),
    "decompose-field": lambda doc: field_from_json(doc),  # by name, as tracers wrap it
    "fack-run": _tower_input,
    "block-split": _block_split_input,
    "obstruct": _obstruct_input,
    "pp-example": lambda doc: require_pp_example_m(int(doc["m"])),
    "tower": lambda doc: require_tower_m_max(int(doc["m_max"])),
}


def decode_input(command: str, doc: dict):
    """The schema-valid input of ``command``, checked in the command's order and
    with its messages: a matrix, SimplicialField, TowerInput, (b, blocks, pairs, e),
    (q, n), m or m_max."""
    return _DECODERS[command](doc)


def implied_exit_code(doc: dict) -> int:
    """The exit code a document's own report implies: 0 when its report
    (and a fack-run's tower report) says all checks passed, else 1."""
    reports = [doc.get("report")]
    if doc.get("command") == "fack-run":
        result = doc.get("result")
        reports.append(result.get("tower_report") if isinstance(result, dict) else None)
    return 0 if all(isinstance(r, dict) and r.get("all_passed") is True for r in reports) else 1


def encode(doc) -> str:
    """Exactly json.dumps(doc, indent=2, sort_keys=True) + "\n", where a
    square 2-d complex ndarray stands for its ``matrix_to_json`` document.
    Each list grid of [re, im] number pairs is written from one
    ``_number_texts`` call, and the numbers of all the document's arrays
    from one more."""
    pieces, arrays = [], []
    _encode_into(pieces, arrays, doc, 0)
    pieces.append("\n")
    if arrays:
        pieces = _with_grids(pieces, arrays)
    return "".join(pieces)


def _with_grids(pieces: list, arrays: list) -> list:
    """``pieces`` with the grid of each of ``arrays`` (position, array, level)
    laid in at its position, all the arrays' numbers rendered in one batch.
    The list is made at its full length before the batch: grown by appends
    beside the batch's arrays, its reallocations fragmented the heap, and
    each large output then took fresh pages."""
    sizes = [2 * m.shape[0] ** 2 for _, m, _ in arrays]
    out = [None] * (len(pieces) + sum(2 * size + 1 for size in sizes))
    texts = _array_texts([m for _, m, _ in arrays])
    start = offset = at = 0
    for (position, m, level), size in zip(arrays, sizes):
        out[at:at + position - start] = pieces[start:position]
        at += position - start
        grid = _grid_parts(texts[offset:offset + size], (m.shape[0],) * m.shape[0], level)
        out[at:at + len(grid)] = grid
        at += len(grid)
        start, offset = position, offset + size
    out[at:] = pieces[start:]
    return out


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _encode_into(out: list, arrays: list, o, level: int):
    """Append the indented JSON text of ``o``, following json's type rules,
    but for the grid of each array, whose place in ``out`` is recorded in
    ``arrays`` as (position, array, level of the grid)."""
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
            out += _grid_parts(_number_texts(numbers), tuple(map(len, o)), level)
            return
        indent = "\n" + "  " * (level + 1)
        separator = indent
        if isinstance(o, dict):
            out.append("{")
            for key, value in sorted(o.items()):
                out.append(separator + encode_basestring_ascii(_key_text(key)) + ": ")
                _encode_into(out, arrays, value, level + 1)
                separator = "," + indent
            out.append("\n" + "  " * level + "}")
        else:
            out.append("[")
            for value in o:
                out.append(separator)
                _encode_into(out, arrays, value, level + 1)
                separator = "," + indent
            out.append("\n" + "  " * level + "]")
    elif (isinstance(o, np.ndarray) and o.dtype == np.complex128 and o.ndim == 2
          and o.shape[0] == o.shape[1] > 0):
        # The text of {"entries": grid, "n": n}, keys in sorted order.
        n = o.shape[0]
        indent = "\n" + "  " * (level + 1)
        out.append("{" + indent + '"entries": ')
        arrays.append((len(out), o, level + 1))
        out.append("," + indent + f'"n": {n}' + "\n" + "  " * level + "}")
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


def _number_texts(numbers) -> list:
    """json.dumps's text of each of ``numbers``, a list of ints and floats
    or a float64 array.  One orjson call writes them all: its digits are the
    shortest that round-trip, as ``float.__repr__``'s are, but it writes
    null for a non-finite float and its own layout where ``repr`` takes
    exponent form, so those numbers alone are re-rendered by one json.dumps
    call.  orjson refuses an int outside 64 bits; such a list goes whole to
    json.dumps."""
    try:
        texts = orjson.dumps(numbers, option=orjson.OPT_SERIALIZE_NUMPY).decode()[1:-1].split(",")
    except TypeError:
        return json.dumps(numbers)[1:-1].split(", ")
    magnitude = np.abs(np.asarray(numbers, dtype=np.float64))
    redo = np.flatnonzero((magnitude != 0) & ~((magnitude >= 1e-4) & (magnitude < 1e16))).tolist()
    if redo:
        redone = json.dumps([numbers[i] for i in redo])[1:-1].split(", ")
        for i, text in zip(redo, redone):
            texts[i] = text
    return texts


def _array_texts(matrices: list) -> np.ndarray:
    """The texts of complex matrices' numbers, re and im of each entry in
    row-major order, matrix after matrix, as one object array.  Each distinct
    number is rendered once, by one ``_number_texts`` call; numbers are told
    apart by their bits, so -0.0 keeps its sign, and 0.0, the one float whose
    bits are all zero, is set apart before the sort."""
    bits = np.concatenate([m.ravel() for m in matrices]).view(np.int64)
    nonzero = bits != 0
    distinct, inverse = np.unique(bits[nonzero], return_inverse=True)
    index = np.zeros(bits.size, dtype=np.intp)
    index[nonzero] = inverse + 1
    texts = _number_texts(np.concatenate(([0.0], distinct.view(np.float64))))
    return np.array(texts, dtype=object)[index]


@functools.lru_cache(maxsize=16)
def _grid_layout(row_lengths: tuple, level: int) -> np.ndarray:
    """The texts around the numbers of an indented grid of [re, im] pairs
    whose nonempty rows hold ``row_lengths`` pairs: the grid's opening, the
    text after each number but the last, and its closing, as an object array."""
    nl = ["\n" + "  " * (level + depth) for depth in range(4)]
    within_pair = "," + nl[3]
    pair_separator = nl[2] + "]," + nl[2] + "[" + nl[3]
    row_separator = nl[2] + "]" + nl[1] + "]," + nl[1] + "[" + nl[2] + "[" + nl[3]
    layout = ["[" + nl[1] + "[" + nl[2] + "[" + nl[3]]
    for length in row_lengths:
        layout += [within_pair, pair_separator] * length
        layout[-1] = row_separator
    layout[-1] = nl[2] + "]" + nl[1] + "]" + nl[0] + "]"
    layout = np.array(layout, dtype=object)
    layout.flags.writeable = False  # shared by every grid of this shape
    return layout


def _grid_parts(texts, row_lengths: tuple, level: int) -> list:
    """The pieces of the indented text of a grid of [re, im] pairs in rows of
    ``row_lengths`` (each nonzero), whose numbers in row-major order read
    ``texts``."""
    layout = _grid_layout(row_lengths, level)
    parts = np.empty(2 * len(layout) - 1, dtype=object)
    parts[0::2] = layout
    parts[1::2] = texts
    return parts.tolist()
