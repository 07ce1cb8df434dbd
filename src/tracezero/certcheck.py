"""Independent checks of output documents: what ``verify`` runs.

An output document is a certificate.  It echoes its input and states a
result with claimed bounds.  Each checker here re-derives those claims
from the document alone, in the sense of McConnell, Mehlhorn, Naeher &
Schweitzer, "Certifying algorithms", Computer Science Review 5 (2011): it
decodes the echoed input and the emitted factors, recomputes the sums of
commutators and the residual, and re-measures every bound against the
command's claims in ``tracezero.claims``, stated from its own
measurements.  No constructor and no eigendecomposition is called, so a
construction bug that the producer's own report repeats is still caught.

A failed check is one line "<path>: <check> ...", <path> being a JSON path
into the verify document, its keys written as jsonschema's ``json_path``
writes them (``_member``).  Its shape is checked first, in one pass, by its
command's output schema, so the checks here state only what no schema can.
An exact result (obstruct, pp-example, tower) is rebuilt whole from the
echoed input and compared once by ``_match``, one failure per differing
leaf, missing key or extra key; no part of it is read before that, so its
schema is a bare object.
Every bound check of a report is re-measured, a fack-run's residual as
norm(z0 - sum [x, y]) of its factors, which its ``result.residual_norm``
must state too.  A tower's per-stage measurements, which the document lacks
the data to rebuild, are checked for internal consistency only: measured <=
claimed + tolerance exactly when ``passed``, and ``all_passed`` agrees; each
push step's bounds and tolerances are still stated by the checker, from
norm(z0) and the remainder norms the stages report.  A report is its bound
checks and ``all_passed``; anything else a document carries beside them,
such as an older document's ``residual_norm`` and ``commutator_count``
headline or a fack-run's ``result.depth``, is not read.
"""
from __future__ import annotations

import itertools
import math
import re

import numpy as np
from jsonschema import ValidationError

from . import claims
from .errors import InvalidInputError
from .jsonio import TowerInput, decode_input, field_from_json, matrix_from_json
from .matcore import commutator, operator_norm
from .obstruct import MAX_PAIR_VISITS
from .ozfield import SimplicialField, require_refine_budget
from .schemas import validate

# A value the document reports and the checker re-measures must agree to
# claims.slack(AGREE, the scale of the quantity).
AGREE = 1e-9


class Malformed(Exception):
    """A part of the document that a check needs is ill-formed."""

    def __init__(self, path: str, text: str):
        super().__init__(f"{path}: {text}")


class Findings:
    """The failed checks of one document, in order, and its body's schema error."""

    def __init__(self):
        self.failures = []
        self.malformed = None

    def body(self, doc: dict) -> tuple:
        """Result and report, read after the input's checks: a malformed body ends them."""
        if self.malformed:
            raise Malformed(*self.malformed)
        return doc["result"], doc["report"]

    def fail(self, path: str, text: str):
        self.failures.append(f"{path}: {text}")

    def require(self, ok: bool, path: str, text: str):
        if not ok:
            self.fail(path, text)


_NAME = re.compile("^[a-zA-Z][a-zA-Z0-9_]*$")  # a key jsonschema's json_path writes bare


def _member(path: str, key: str) -> str:
    """The JSON path of member ``key`` of ``path``, as jsonschema's ``json_path``
    writes it: ``.key`` for a name, else ``['key']`` with \\ and ' escaped."""
    if _NAME.match(key):
        return f"{path}.{key}"
    return path + "['" + key.replace("\\", "\\\\").replace("'", "\\'") + "']"


def _agree(reported: float, measured: float, scale: float = 0.0) -> bool:
    return reported == measured or abs(reported - measured) <= claims.slack(
        AGREE, max(scale, abs(measured)))


def _decoded(value, path: str, decode):
    """A part of the result decoded by ``decode``, which may reject it."""
    try:
        return decode(value)
    except InvalidInputError as exc:
        raise Malformed(path, str(exc)) from None


def _matrix(value, path: str, n: int) -> np.ndarray:
    """A matrix document of the result, decoded; ``n`` is the size it must have."""
    m = _decoded(value, path, matrix_from_json)
    if m.shape[0] != n:
        raise Malformed(f"{path}.n", f"{m.shape[0]} differs from the input's {n}")
    return m


def _norm(m: np.ndarray, path: str) -> float:
    """operator_norm of a matrix formed from the document's numbers; one
    that overflowed a float is a malformed document, not a norm."""
    if not np.all(np.isfinite(m)):
        raise Malformed(path, "overflows a float")
    return operator_norm(m)


# --------------------------------------------------------------------------
# Claimed bounds.

def _consistent(f: Findings, path: str, entry: dict) -> tuple:
    """Read one reported bound check and require passed <=> measured <=
    claimed + tolerance; returns (name, claimed, measured, tolerance, passed)."""
    name, passed = entry["name"], entry["passed"]
    # read as floats, as every check computes: the double format admits the
    # int 2**1023, and in int arithmetic 2 * 2**1023 + 0.5 overflows
    claimed, measured, tolerance = (
        float(entry[key]) for key in ("claimed_bound", "measured_value", "tolerance"))
    f.require(passed == (measured <= claimed + tolerance), f"{path}.passed",
              f"{name}: passed is {str(passed).lower()} but measured {measured!r} against "
              f"claimed bound {claimed!r} + tolerance {tolerance!r}")
    return name, claimed, measured, tolerance, passed


def _check_all_passed(f: Findings, node: dict, path: str, passes: list):
    all_passed = node["all_passed"]
    f.require(all_passed == all(passes), f"{path}.all_passed",
              f"is {str(all_passed).lower()} but the checks it covers say "
              f"{str(all(passes)).lower()}")


def _check_claim(f: Findings, p: str, name: str, claimed: float, tolerance: float,
                 bound: float, tol: float):
    """A reported claim states no weaker bound and the same tolerance as the
    certified (bound, tol)."""
    f.require(claimed <= bound + claims.slack(AGREE, abs(bound)), f"{p}.claimed_bound",
              f"{name}: claimed bound {claimed!r} is weaker than the certified {bound!r}")
    f.require(_agree(tolerance, tol), f"{p}.tolerance",
              f"{name}: tolerance {tolerance!r} differs from {tol!r}")


def _check_bounds(f: Findings, report: dict, spec: dict, measured: dict):
    """Every reported bound check against the command's claims ``spec`` and
    the checker's own ``measured`` values."""
    path = "$.report.bound_checks"
    passes, seen = [], set()
    for i, entry in enumerate(report["bound_checks"]):
        p = f"{path}[{i}]"
        name, claimed, reported, tolerance, passed = _consistent(f, p, entry)
        passes.append(passed)
        if name not in spec:
            f.fail(f"{p}.name", f"unknown bound name {name!r}")
            continue
        if name in seen:
            f.fail(f"{p}.name", f"{name} is checked twice")
        seen.add(name)
        bound, tol, scale = spec[name]
        value = measured[name]
        _check_claim(f, p, name, claimed, tolerance, bound, tol)
        f.require(_agree(reported, value, scale), f"{p}.measured_value",
                  f"{name}: reported {reported!r} but re-measured {value!r}")
        f.require(value <= claimed + tol, p,
                  f"{name}: re-measured {value!r} exceeds claimed bound {claimed!r}")
    for name in spec:
        f.require(name in seen, path, f"no check of {name}")
    _check_all_passed(f, report, "$.report", passes)


# --------------------------------------------------------------------------
# Sums of commutators.

def _commutator_sum(result: dict, n: int, with_norms: bool):
    """Decode the factors and return (sum of their commutators, factor count,
    largest norm claim term): norm(x)^2 for [x*, x], norm(x)*norm(y) for
    [x, y], when ``with_norms``."""
    kind, factors = result["kind"], result["factors"]
    total = np.zeros((n, n), dtype=complex)
    worst = 0.0
    for i, factor in enumerate(factors):
        p = f"$.result.factors[{i}]"
        x = _matrix(factor["x"], f"{p}.x", n)
        if kind == "self_commutators":
            total += commutator(x.conj().T, x)
            x_norm = operator_norm(x) if with_norms else 0.0
            term = x_norm * x_norm
        else:
            y = _matrix(factor["y"], f"{p}.y", n)
            total += commutator(x, y)
            term = operator_norm(x) * operator_norm(y) if with_norms else 0.0
        worst = max(worst, term)
    return total, len(factors), worst


def _check_single_commutator(f: Findings, doc: dict, a: np.ndarray, command: str, **_):
    """decompose (a = [x*, x]) and decompose-tight (a = [x, y]): one factor,
    whose commutator is all the reconstruction holds."""
    result, report = f.body(doc)
    total, count, worst = _commutator_sum(result, a.shape[0], with_norms=True)
    f.require(count == 1, "$.result.factors", f"{count} factors, but the statement is one")
    a_norm = operator_norm(a)
    measured = {"reconstruction_residual": _norm(a - total, "$.result.factors"),
                claims.NORM_CLAIMS[command][0]: claims.norm_ratio(worst, a_norm)[0]}
    _check_bounds(f, report, claims.single(command, a_norm, a_norm), measured)


# --------------------------------------------------------------------------
# fack-run.

def _block_zero_support(tower: TowerInput) -> np.ndarray:
    """Orthonormal basis of the support of (e_0 - eps)_+, from a singular
    value decomposition where e_0 is a matrix: e_0 is PSD, so its singular
    values are its eigenvalues."""
    if tower.ranks is not None:  # 0/1 projections, block 0 first
        n = tower.ambient
        return np.eye(n, dtype=complex)[:, :tower.ranks[0] if tower.epsilon < 1.0 else 0]
    u, s, _ = np.linalg.svd(tower.elements[0])
    lifted = np.maximum(s - tower.epsilon, 0.0)
    top = float(np.max(lifted)) if lifted.size else 0.0
    return u[:, lifted > claims.RANK_TOL * top] if top > 0.0 else u[:, :0]


def _check_fack_run(f: Findings, doc: dict, tower: TowerInput, depth: int | None, **_):
    """z0 inside block 0 (the decoder has checked that it is Hermitian and
    trace zero); norm(z0 - sum [x, y]) <= delta_depth, as ``result.residual_norm``
    states it, and at most L(L+K-1) + max(M, L(L+K-1)) factors."""
    depth = tower.run_depth(depth)
    z0 = tower.z0
    if z0 is None:
        raise Malformed("$.input.z0", "missing")
    n = z0.shape[0]
    z_norm = operator_norm(z0)
    q = _block_zero_support(tower)
    outside = operator_norm(z0 - q @ (q.conj().T @ z0 @ q) @ q.conj().T)
    f.require(outside <= claims.z0_outside_limit(z_norm), "$.input.z0",
              f"leaves her((e_0 - eps)_+): norm {outside!r} outside it")

    result, report = f.body(doc)
    total, count, _ = _commutator_sum(result, n, with_norms=False)
    residual = _norm(z0 - total, "$.result.factors")
    spec = claims.tower(z_norm, tower.deltas[depth - 1] if depth else None, tower.count_bound)
    _check_bounds(f, report, spec, {"residual_norm": residual, "commutator_count": float(count)})
    reported = float(result["residual_norm"])
    f.require(_agree(reported, residual, z_norm), "$.result.residual_norm",
              f"reported {reported!r} but norm(z0 - sum [x, y]) is {residual!r}")
    _check_tower_report(f, result, depth, tower, z_norm)


def _check_tower_report(f: Findings, result: dict, depth: int, tower: TowerInput, z_norm: float):
    """Each push step's claims as ``claims.stage`` states them at the norm x_t
    it pushes (x_1 = norm(z0), x_{t+1} stage t's remainder_norm) and its own
    remainder_norm; its measurements, which lack the data to rebuild, only
    for consistency."""
    path = "$.result.tower_report"
    tower_report = result["tower_report"]
    stages = tower_report["stage_checks"]
    f.require(len(stages) == depth, f"{path}.stage_checks",
              f"{len(stages)} stages but depth {depth}")
    per_stage = tower.per_stage
    expected = sorted(claims.stage(0.0, 0.0, 1, per_stage))  # a push step's claims
    passes, x_norm = [], z_norm
    for t, stage in enumerate(stages):
        p = f"{path}.stage_checks[{t}]"
        read = [_consistent(f, f"{p}[{i}]", entry) for i, entry in enumerate(stage)]
        passes += [passed for *_, passed in read]
        names = sorted(name for name, *_ in read)
        f.require(names == expected, p, f"checks {names}, not one each of {expected}")
        remainder_norm = next((m for name, _, m, _, _ in read if name == "remainder_norm"), 0.0)
        spec = claims.stage(x_norm, remainder_norm, tower.K, per_stage)
        for i, (name, claimed, measured, tolerance, _) in enumerate(read):
            if name in spec:
                _check_claim(f, f"{p}[{i}]", name, claimed, tolerance, *spec[name][:2])
            f.require(name != "commutator_count" or measured == per_stage, f"{p}[{i}]",
                      f"a push step forms {per_stage} commutators, not {measured!r}")
        x_norm = remainder_norm
    _check_all_passed(f, tower_report, path, passes)


# --------------------------------------------------------------------------
# decompose-field.

def barycentric_refinement(simplices, values, levels: int):
    """``levels`` barycentric subdivisions of a complex, with its PL field,
    a (V, n, n) stack of vertex values.

    The new vertices are the nonempty faces of the old complex, numbered in
    (size, vertex tuple) order as output documents number them; each carries
    the mean of its face's values and is colored by the face's dimension.
    The new maximal simplices are the flags of faces, one of each size,
    inside an old maximal simplex.  Returns (simplices, values, colors), the
    simplices as a sorted list of ascending tuples and colors None for
    ``levels`` = 0.
    """
    simplices = sorted(tuple(sorted(s)) for s in simplices)
    colors = None
    for _ in range(levels):
        faces = sorted({face for s in simplices for size in range(1, len(s) + 1)
                        for face in itertools.combinations(s, size)},
                       key=lambda face: (len(face), face))
        number = {face: i for i, face in enumerate(faces)}

        def flags(face):
            """Chains of faces ending at ``face``, as ascending face numbers."""
            if len(face) == 1:
                return [(number[face],)]
            return [chain + (number[face],) for i in range(len(face))
                    for chain in flags(face[:i] + face[i + 1:])]

        simplices = sorted({chain for s in simplices for chain in flags(s)})
        values = _face_means(values, faces)
        colors = [len(face) - 1 for face in faces]
    return simplices, values, colors


def _face_means(values, faces):
    """Each face's mean, the sum of values[v] / len(face), for ``faces`` sorted
    by size and ``values`` a (V, n, n) stack: divided first, it overflows only
    by rounding at the float maximum."""
    return np.concatenate([(values[np.array(list(group))] / k).sum(axis=1)
                           for k, group in itertools.groupby(faces, len)])


def _check_decompose_field(f: Findings, doc: dict, fld: SimplicialField, refine: int, **_):
    """The emitted field is the refined input; the coloring is proper; each
    vertex is in its color's factor once, with [x_v*, x_v] = value_v."""
    require_refine_budget(fld.complex, refine)
    simplices, values, colors = barycentric_refinement(
        fld.complex.maximal_simplices, fld.values, refine)
    vertex_count, n = len(values), fld.matrix_size
    result, report = f.body(doc)

    out = _decoded(result["field"], "$.result.field", field_from_json)
    f.require(out.complex.vertex_count == vertex_count, "$.result.field.complex.vertices",
              f"{out.complex.vertex_count}, but the refined input has {vertex_count}")
    f.require(list(out.complex.maximal_simplices) == simplices,
              "$.result.field.complex.simplices", "differ from the refined input's")
    f.require(out.matrix_size == n, "$.result.field.n",
              f"{out.matrix_size} differs from the input's {n}")
    if out.complex.vertex_count == vertex_count and out.matrix_size == n:
        gap = np.max(np.abs(out.values - values), axis=(1, 2))
        for v in np.flatnonzero(gap > claims.slack(AGREE, float(np.max(np.abs(values))))):
            f.fail(_member("$.result.field.values", str(v)),
                   "differs from the refined input's value")

    coloring = result["coloring"]
    if len(coloring) != vertex_count or not 0 <= min(coloring) <= max(coloring) < vertex_count:
        raise Malformed("$.result.coloring",
                        f"is not one color in 0..{vertex_count - 1} per vertex")
    for s in simplices:
        f.require(len({coloring[v] for v in s}) == len(s), "$.result.coloring",
                  f"simplex {list(s)} repeats a color")
    color_count = max(coloring) + 1
    if colors is not None:
        f.require(color_count == max(colors) + 1, "$.result.coloring",
                  f"{color_count} colors, but a barycentric subdivision needs {max(colors) + 1}")

    factors = result["factors"]
    x = {}
    for k, factor in enumerate(factors):
        p = f"$.result.factors[{k}]"
        color = factor["color"]
        f.require(color == k, f"{p}.color", f"{color}, but factor {k} carries color {k}")
        for j, entry in enumerate(factor["entries"]):
            q = f"{p}.entries[{j}]"
            v = entry["vertex"]
            if not 0 <= v < vertex_count or v in x:
                raise Malformed(f"{q}.vertex", f"{v} is no vertex, or a vertex seen before")
            f.require(coloring[v] == color, f"{q}.vertex",
                      f"vertex {v} has color {coloring[v]}, not {color}")
            x[v] = _matrix(entry["x"], f"{q}.x", n)
    missing = sorted(set(range(vertex_count)) - set(x))
    if missing:
        raise Malformed("$.result.factors", f"vertices {missing} have no factor")

    xs = np.stack([x[v] for v in range(vertex_count)])
    brackets = xs.conj().transpose(0, 2, 1) @ xs - xs @ xs.conj().transpose(0, 2, 1)
    if not np.all(np.isfinite(brackets)):
        raise Malformed("$.result.factors", "overflows a float")
    residuals = np.linalg.norm(brackets - values, 2, axis=(1, 2))
    x_norms_sq = np.linalg.norm(xs, 2, axis=(1, 2)) ** 2
    sup = float(np.max(np.linalg.norm(values, 2, axis=(1, 2))))
    spec = claims.field(sup, color_count)
    recon_bound = spec["field_residual"][0]
    for v in np.flatnonzero(residuals > recon_bound):
        f.fail(f"$.result.factors[{coloring[v]}]",
               f"vertex {v}: norm([x*, x] - value) = {float(residuals[v])!r} exceeds "
               f"{recon_bound!r}")
    # sum_k [y_k*, y_k] - field = sum_i w_i ([x_i*, x_i] - value_i) on a
    # simplex: a convex combination, so largest at a vertex
    _check_bounds(f, report, spec, {"field_residual": float(np.max(residuals)),
                                    "max_factor_norm_sq": float(np.max(x_norms_sq)),
                                    "factor_count": float(len(factors))})
    reported = float(result["sup_norm"])
    f.require(_agree(reported, sup, sup), "$.result.sup_norm",
              f"reported {reported!r} but the largest vertex value norm is {sup!r}")


# --------------------------------------------------------------------------
# block-split.

def _check_block_split(f: Findings, doc: dict, inp: tuple, **_):
    """b = [S, E] + rest, [S, E] the block diagonal of b_ii - [x_i, y_i] and
    the diagonal blocks of rest the commutators [x_i, y_i]."""
    b, d, pairs, _ = inp
    n = b.shape[0]
    r = n // d
    result, report = f.body(doc)
    s = _matrix(result["shift_upper"], "$.result.shift_upper", n)
    t = _matrix(result["shift_lower"], "$.result.shift_lower", n)
    rest = _matrix(result["rest"], "$.result.rest", n)

    b_norm = operator_norm(b)
    blocks = [slice(i * r, (i + 1) * r) for i in range(d)]
    brackets = [commutator(x, y) for x, y in pairs]
    diag_part = np.zeros_like(b)
    if d > 1:  # with one block, b itself is the commutator and nothing is split
        for i, k in enumerate(blocks):
            diag_part[k, k] = b[k, k] - brackets[i]
    shift = commutator(s, t)
    rest_diagonal = max(_norm(rest[k, k] - brackets[i], "$.result.rest")
                        for i, k in enumerate(blocks))
    split = _norm(b - shift - rest, "$.result")
    spec = claims.split(b_norm, d)
    limit = spec["shift_reconstruction"][0]  # b - [S, E] - rest is the defect [S, E] leaves
    f.require(split <= limit, "$.result.rest",
              f"norm(b - [S, E] - rest) = {split!r} exceeds {limit!r}")
    measured = {"shift_reconstruction": _norm(shift - diag_part, "$.result.shift_upper"),
                "rest_diagonal_is_commutators": rest_diagonal}
    if d == 1:  # the input's own precondition: b is [x_1, y_1]
        limit = claims.one_block_limit(b_norm)
        f.require(rest_diagonal <= limit, "$.result.rest",
                  f"norm(rest - [x_1, y_1]) = {rest_diagonal!r} exceeds {limit!r}")
    _check_bounds(f, report, spec, measured)
    reported = float(result["diag_part_norm"])
    diag_norm = _norm(diag_part, "$.input")
    f.require(_agree(reported, diag_norm, b_norm), "$.result.diag_part_norm",
              f"reported {reported!r} but the block-diagonal defect has norm {diag_norm!r}")


# --------------------------------------------------------------------------
# Exact results: obstruct, pp-example, tower.

def _match(f: Findings, path: str, found, expected):
    """Exact equality of JSON values, bool apart from int; one failure per
    differing leaf, missing key or extra key."""
    if isinstance(expected, dict):
        if not isinstance(found, dict):
            f.fail(path, f"{found!r} is not an object")
            return
        for key in sorted(set(expected) | set(found)):
            if key not in found:
                f.fail(_member(path, key), "missing")
            elif key not in expected:
                f.fail(_member(path, key), "is not part of this result")
            else:
                _match(f, _member(path, key), found[key], expected[key])
    elif isinstance(expected, list):
        if not isinstance(found, list) or len(found) != len(expected):
            f.fail(path, f"is not a list of {len(expected)} items")
            return
        for i, (item, want) in enumerate(zip(found, expected)):
            _match(f, f"{path}[{i}]", item, want)
    elif type(found) is not type(expected) or found != expected:
        f.fail(path, f"{found!r}, expected {expected!r}")


def euler_class_by_forms(forms) -> dict:
    """Product of linear forms in Z[a_1..a_m]/(a_i^2 = 0), one form at a
    time: out[S | bit_i] += c_i * in[S] for each i not in S.  Keys are
    monomial bitmasks, bit i-1 for a_i.

    The work, visits of (monomial, variable) pairs, is bounded before any
    product: before the j-th form the class has at most min(C(variables
    touched, j - 1), product of the earlier forms' supports) monomials.
    Over MAX_PAIR_VISITS is invalid input.
    """
    supports = [[(1 << i, c) for i, c in enumerate(form) if c] for form in forms]
    visits, size, touched = 0, 1, 0
    for j, support in enumerate(supports):
        visits += size * len(support)
        if visits > MAX_PAIR_VISITS:
            raise InvalidInputError(
                f"checking the Euler class needs over {MAX_PAIR_VISITS} monomial-variable "
                "products, too many for the explicit ring")
        if not support:
            break
        touched |= sum(bit for bit, _ in support)
        size = min(math.comb(touched.bit_count(), j + 1), size * len(support))
    terms = {0: 1}
    for support in supports:
        out = {}
        for monomial, coefficient in terms.items():
            for bit, c in support:
                if not monomial & bit:
                    out[monomial | bit] = out.get(monomial | bit, 0) + coefficient * c
        terms = {key: value for key, value in out.items() if value}
        if not terms:
            break
    return terms


def _key(mask: int) -> str:
    """The euler_class key of a monomial bitmask: its indices, "1,3" for a_1 a_3."""
    return ",".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)


def _exact_certificate(variables: int, copies: int, rank: int, expected: dict) -> dict:
    """The certificate obstruct writes for the Euler class ``expected``
    (bitmask keys) of ``copies`` copies of a rank-``rank`` bundle."""
    return {"kind": "one_not_below_nq",
            "params": {"n": copies, "rank": rank, "variables": variables},
            "euler_class": {_key(mask): c for mask, c in expected.items()},
            "verdict": bool(expected), "failed_hypothesis": None}


def _check_obstruct(f: Findings, doc: dict, inp: tuple, **_):
    """The Euler class of n copies of q, recomputed one linear form at a
    time, and the verdict that it is nonzero."""
    q, copies = inp
    variables, summands = q.variable_count, q.summands
    if len(summands) * copies > variables:  # every monomial of that degree has a square
        expected = {}
    else:
        expected = euler_class_by_forms(summands * copies)
    result, report = f.body(doc)
    _match(f, "$.result", result, _exact_certificate(variables, copies, len(summands), expected))
    _check_all_passed(f, report, "$.report", [True])


# The Bloch vectors of the octahedron's vertices in pp-example's m = 1 field.
_OCTAHEDRON = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))


def _bott_field() -> dict:
    """pp-example's m = 1 field document: diag(1, -P(v)) over the octahedral
    sphere, P(v) the projection onto the spin state of Bloch vector v."""
    values = {}
    for v, (x, y, z) in enumerate(_OCTAHEDRON):
        p = np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]]) / 2.0
        value = np.zeros((3, 3), dtype=complex)
        value[0, 0], value[1:, 1:] = 1.0, -p
        values[str(v)] = {"n": 3, "entries": np.stack([value.real, value.imag], -1).tolist()}
    triangles = [[a, b, c] for a in (0, 1) for b in (2, 3) for c in (4, 5)]
    return {"complex": {"vertices": 6, "simplices": triangles}, "n": 3, "values": values}


def _check_pp_example(f: Findings, doc: dict, m: int, **_):
    """(S^2)^m, the line bundle of degree (1, ..., 1) and its m-fold sum,
    whose Euler class is m! a_1...a_m."""
    result, report = f.body(doc)
    _match(f, "$.result", result, {
        "certificate": _exact_certificate(m, m, 1, {(1 << m) - 1: math.factorial(m)}),
        "description": {
            "space": f"(S^2)^{m}",
            "bundle": {"variables": m, "summands": [[1] * m]},
            "element": "diag(unit_line, -p) in the hereditary of unit_line + p",
            "self_commutator_count_obstructed": m,
        },
        "field": _bott_field() if m == 1 else None,
    })
    _check_all_passed(f, report, "$.report", [True])


def _check_tower(f: Findings, doc: dict, m_max: int, **_):
    """The sphere-product tower's integers: l_1 = 1 and l_n = 2^(n-2)
    after it, M_n = sum_{i<=n} l_i 2^(k_i), k_1 = 1, k_(n+1) = n M_n l_(n+1);
    block j survives stage m when m M_m l_j <= k_j."""
    l = [1] + [2 ** (i - 1) for i in range(1, m_max + 1)]
    k, big_m = [1], []
    for n in range(1, m_max + 1):
        big_m.append(sum(l[i] << k[i] for i in range(n)))
        k.append(n * big_m[-1] * l[n])
    certificates = []
    for m in range(1, m_max + 1):
        for n in range(1, m_max + 2 - m):
            blocks = [{"block": j, "copies": str(l[j - 1]),
                       "exponent": str(m * big_m[m - 1] * l[j - 1]),
                       "block_variables": str(k[j - 1]),
                       "nonvanishing": m * big_m[m - 1] * l[j - 1] <= k[j - 1]}
                      for j in range(m + 1, m + n + 1)]
            certificates.append({"m": m, "n": n, "blocks": blocks,
                                 "verdict": all(b["nonvanishing"] for b in blocks)})
    all_true = all(c["verdict"] for c in certificates)
    result, report = f.body(doc)
    _match(f, "$.result", result, {
        "m_max": m_max,
        "k": [str(v) for v in k], "l": [str(v) for v in l], "M": [str(v) for v in big_m],
        "certificates": certificates,
        "notes": {
            "l_recursion": "l_1 = 1, l_(n+1) = l_1 + ... + l_n",
            "l_values_double_from_third_term": all(
                l[i + 1] == 2 * l[i] for i in range(1, len(l) - 1)),
            "l_matches_2_pow_n_minus_1_from_second_term": all(
                l[i] == 2 ** i for i in range(1, len(l))),
        },
        "all_verdicts_true": all_true,
    })
    _check_all_passed(f, report, "$.report", [all_true])


# --------------------------------------------------------------------------

CHECKERS = {
    "decompose": _check_single_commutator,
    "decompose-tight": _check_single_commutator,
    "decompose-field": _check_decompose_field,
    "fack-run": _check_fack_run,
    "block-split": _check_block_split,
    "obstruct": _check_obstruct,
    "pp-example": _check_pp_example,
    "tower": _check_tower,
}


def check_certificate(doc: dict, *, refine: int, depth: int | None) -> list:
    """The failed checks of one output document, [] when it certifies its
    claims.  ``refine`` and ``depth`` are its run's parameters.  The echoed
    input is read by the command's own schema and decoder, so an invalid one
    raises what the command raises on it (a ValidationError with its path
    inside ``doc``, or InvalidInputError).  Any other schema error is the one
    failure, a missing member named by its own path."""
    command = doc["command"]
    if command not in CHECKERS:
        raise InvalidInputError(f"cannot verify output of command {command!r}")
    f = Findings()
    try:
        validate(doc, command, output=True)
    except ValidationError as exc:
        if list(exc.absolute_path)[:1] == ["input"]:
            raise
        path = exc.json_path
        if exc.validator == "required":
            path = _member(path, next(key for key in exc.validator_value
                                      if key not in exc.instance))
        f.malformed = path, exc.message
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is a finding
            CHECKERS[command](f, doc, decode_input(command, doc["input"]), command=command,
                              refine=refine, depth=depth)
    except Malformed as exc:
        f.failures.append(str(exc))
    return f.failures
