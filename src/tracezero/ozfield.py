"""Matrix-valued piecewise-linear fields over finite simplicial complexes.

A field assigns a matrix to each vertex and is evaluated by barycentric
interpolation inside each maximal simplex.  Given a proper vertex coloring,
same-color vertices never share a simplex, so the color-k hat functions have
disjoint open stars.  Decomposing each vertex value as a self-commutator and
weighting the factors by sqrt(hat) therefore yields one order-zero factor
per color whose self-commutators sum back, exactly, to the interpolated
field: color count = dimension + 1 factors for barycentric colorings.

Verification is at the vertices.  On a maximal simplex with weights w,
sum_k [y_k*, y_k] - field = sum_i w_i ([x_i*, x_i] - value_i), a convex
combination of vertex residuals, so its norm anywhere on the simplex is at
most the largest vertex residual, which it attains at that vertex.  Every
norm the decomposition reports is a maximum over all vertices, from one
batched SVD of their stack.
"""
from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import claims
from .errors import InvalidInputError
from .matcore import VerificationReport, bound_checks, max_operator_norm
from .selfcomm import self_commutator_factors

# Maximal simplices made by barycentric refinement, summed over its levels.
REFINE_SIMPLEX_BUDGET = 2 ** 15
# Vertex pairs that the coloring and its check visit, C(k, 2) per k-vertex
# maximal simplex after refinement: a 720-vertex simplex fits, 2000 do not.
FIELD_PAIR_BUDGET = 2 ** 18


@dataclass(frozen=True)
class SimplicialComplex:
    """A finite abstract complex given by at least one maximal simplex."""

    vertex_count: int
    maximal_simplices: tuple

    def __post_init__(self):
        for simplex in self.maximal_simplices:
            if not simplex:
                raise InvalidInputError("a maximal simplex is empty")
            if len(set(simplex)) != len(simplex):
                raise InvalidInputError(f"simplex {simplex} repeats a vertex")
            if any(not (0 <= v < self.vertex_count) for v in simplex):
                raise InvalidInputError(f"simplex {simplex} has a vertex id out of range")

    @classmethod
    def make(cls, vertex_count: int, simplices) -> "SimplicialComplex":
        canonical = sorted({tuple(sorted(int(v) for v in s)) for s in simplices})
        return cls(vertex_count=int(vertex_count), maximal_simplices=tuple(canonical))

    @property
    def dimension(self) -> int:
        return max(len(s) for s in self.maximal_simplices) - 1

    def edges(self) -> set:
        out = set()
        for simplex in self.maximal_simplices:
            for u, v in itertools.combinations(simplex, 2):
                out.add((u, v))
        return out

    def faces(self) -> list:
        """All nonempty faces, sorted by (size, vertex tuple)."""
        seen = set()
        for simplex in self.maximal_simplices:
            for r in range(1, len(simplex) + 1):
                for face in itertools.combinations(simplex, r):
                    seen.add(face)
        return sorted(seen, key=lambda f: (len(f), f))


@dataclass(frozen=True)
class VertexColoring:
    colors: tuple
    color_count: int

    @classmethod
    def make(cls, colors) -> "VertexColoring":
        """The coloring of nonnegative ``colors``, one per vertex."""
        colors = tuple(int(c) for c in colors)
        return cls(colors=colors, color_count=(max(colors) + 1 if colors else 0))


def require_proper(complex_: SimplicialComplex, coloring: VertexColoring):
    """Refuse a coloring under which two vertices of a simplex share a color."""
    for u, v in sorted(complex_.edges()):
        if coloring.colors[u] == coloring.colors[v]:
            raise InvalidInputError(f"vertices {u} and {v} share a simplex and a color")


def greedy_coloring(complex_: SimplicialComplex) -> VertexColoring:
    """First-fit coloring in vertex-id order; proper but not always minimal."""
    neighbors = [set() for _ in range(complex_.vertex_count)]
    for u, v in complex_.edges():
        neighbors[u].add(v)
        neighbors[v].add(u)
    colors = [-1] * complex_.vertex_count
    for v in range(complex_.vertex_count):
        used = {colors[w] for w in neighbors[v] if colors[w] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return VertexColoring.make(colors)


@dataclass(frozen=True)
class BarycentricSubdivision:
    """Subdivided complex, its dimension coloring, and the parent face map."""

    complex: SimplicialComplex
    coloring: VertexColoring
    parent_faces: tuple  # parent_faces[new_vertex] = tuple of original vertices


def barycentric_subdivide(complex_: SimplicialComplex) -> BarycentricSubdivision:
    """Subdivide; new vertices are the faces, colored by face dimension.

    Vertices of the output complex are the nonempty faces of the input,
    ordered by (size, vertex tuple); maximal simplices are the full flags of
    faces inside each input maximal simplex.  Comparable faces have distinct
    dimensions, so coloring by dimension is proper with dimension+1 colors.
    """
    faces = complex_.faces()
    face_id = {f: i for i, f in enumerate(faces)}
    flags = set()
    for simplex in complex_.maximal_simplices:
        for perm in itertools.permutations(simplex):
            chain = tuple(face_id[tuple(sorted(perm[:r]))] for r in range(1, len(perm) + 1))
            flags.add(tuple(sorted(chain)))
    sub = SimplicialComplex.make(len(faces), flags)
    coloring = VertexColoring.make([len(f) - 1 for f in faces])
    return BarycentricSubdivision(complex=sub, coloring=coloring, parent_faces=tuple(faces))


def require_refine_budget(complex_: SimplicialComplex, refine: int):
    """Reject a ``decompose-field`` run of ``refine`` barycentric refinements
    before any work: each level turns a maximal simplex of k vertices into
    k! maximal simplices of k vertices, and their count summed over the
    levels may not exceed REFINE_SIMPLEX_BUDGET, so levels that do not grow
    the complex count too; and the vertex pairs that ``greedy_coloring`` and
    ``require_proper`` visit, C(k, 2) (k!)^refine for each k-vertex maximal
    simplex, may not exceed FIELD_PAIR_BUDGET.  Both counts are exact."""
    sizes = collections.Counter(len(s) for s in complex_.maximal_simplices)
    growth, made = dict.fromkeys(sizes, 1), 0  # growth[k]: simplices per k-vertex one
    for _ in range(refine):
        growth = {k: g * math.factorial(k) for k, g in growth.items()}
        made += sum(sizes[k] * g for k, g in growth.items())
        if made > REFINE_SIMPLEX_BUDGET:
            low = "" if len(sizes) == 1 else f"{min(sizes) - 1} to "
            raise InvalidInputError(
                f"refine {refine} of {sum(sizes.values())} maximal simplices of dimension "
                f"{low}{complex_.dimension} projects over the budget of "
                f"{REFINE_SIMPLEX_BUDGET} simplices, summed over its levels")
    pairs = sum(sizes[k] * math.comb(k, 2) * growth[k] for k in sizes)
    if pairs > FIELD_PAIR_BUDGET:
        raise InvalidInputError(
            f"coloring the complex visits {pairs} vertex pairs, C(k, 2) (k!)^refine for each "
            f"maximal simplex of k vertices, over the budget of {FIELD_PAIR_BUDGET}")


def octahedron_complex() -> SimplicialComplex:
    """Boundary of the octahedron: vertices 0..5 with (0,1), (2,3), (4,5) antipodal."""
    triangles = [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
    return SimplicialComplex.make(6, triangles)


# --------------------------------------------------------------------------
# Fields.

@dataclass(frozen=True)
class SimplicialField:
    complex: SimplicialComplex
    values: np.ndarray  # read-only (V, n, n) complex: the value at each vertex

    @property
    def matrix_size(self) -> int:
        return self.values.shape[1]


def make_field(complex_: SimplicialComplex, values) -> SimplicialField:
    """The field of one n x n value per vertex (equal-shape square arrays),
    copied once into its read-only stack; a non-finite value is invalid."""
    stack = np.array(values, dtype=complex)
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        raise InvalidInputError(f"value at vertex {int(np.argmin(finite))} has non-finite entries")
    stack.setflags(write=False)
    return SimplicialField(complex=complex_, values=stack)


def face_means(values, faces) -> np.ndarray:
    """The stacked mean of ``values``, a (V, n, n) stack, over each face
    (``faces`` sorted by size): the sum of values[v] / len(face), which
    overflows only by rounding."""
    return np.concatenate([(values[np.array(list(group))] / k).sum(axis=1)
                           for k, group in itertools.groupby(faces, len)])


def subdivide_field(fld: SimplicialField, sub: BarycentricSubdivision) -> SimplicialField:
    """Resample onto a barycentric subdivision (exact for PL fields)."""
    return make_field(sub.complex, face_means(fld.values, sub.parent_faces))


@dataclass(frozen=True)
class SqrtWeightedFactor:
    """One color class of sqrt(hat)-weighted matrices: y(p) = sum_v h_v(p)^(1/2) x_v."""

    color: int
    entries: tuple  # ((vertex, matrix), ...)


@dataclass
class FieldDecomposition:
    factors: list  # one SqrtWeightedFactor per color
    report: VerificationReport
    sup_norm: float


def decompose_field(fld: SimplicialField, coloring: VertexColoring) -> FieldDecomposition:
    """Decompose a pointwise trace-zero field into color_count self-commutators.

    The trace-free part of each vertex value is written as [x_v*, x_v], all
    of them in one stacked pass (``self_commutator_factors``, whose errors
    name the vertex); color k collects its vertices into one
    sqrt(hat)-weighted factor y_k.  Disjoint same-color stars make the
    cross terms vanish, so sum_k [y_k*, y_k] equals the PL interpolation of
    the field, up to a residual that is at most its largest value at a
    vertex (the module docstring says why): ``field_residual`` is the
    maximum of norm([x_v*, x_v] - value_v) over every vertex, in a maximal
    simplex or not, and so judges each vertex trace, which it leaves as
    |tr v|/n.  The bound norm(y_k)^2 <= 2*sup_norm + slack(1e-8, sup_norm) is
    checked at the same vertices, where norm(sqrt(w) x_v) peaks (w = 1).  The
    residual, sup_norm and factor norm are exact SVD maxima.
    """
    require_proper(fld.complex, coloring)
    try:
        x_factors, _ = self_commutator_factors(fld.values)
    except InvalidInputError as err:
        raise InvalidInputError(f"vertex {err.index}: {err}") from err

    factors = []
    for k in range(coloring.color_count):
        entries = tuple((v, x_factors[v]) for v in range(fld.complex.vertex_count)
                        if coloring.colors[v] == k)
        factors.append(SqrtWeightedFactor(color=k, entries=entries))

    x_star = x_factors.conj().swapaxes(1, 2)
    residual = max_operator_norm(x_star @ x_factors - x_factors @ x_star - fld.values)
    sup = max_operator_norm(fld.values)
    norm_sq = max_operator_norm(x_factors) ** 2

    checks = bound_checks(claims.field(sup, coloring.color_count), field_residual=residual,
                          max_factor_norm_sq=norm_sq, factor_count=float(len(factors)))
    return FieldDecomposition(factors=factors, sup_norm=sup,
                              report=VerificationReport(checks))
