"""Matrix-valued piecewise-linear fields over finite simplicial complexes.

A field assigns a matrix to each vertex and is evaluated by barycentric
interpolation inside each maximal simplex.  Given a proper vertex coloring,
same-color vertices never share a simplex, so the color-k hat functions have
disjoint open stars.  Decomposing each vertex value as a self-commutator and
weighting the factors by sqrt(hat) therefore yields one order-zero factor
per color whose self-commutators sum back, exactly, to the interpolated
field: color count = dimension + 1 factors for barycentric colorings.

Verification is pointwise on a deterministic barycentric lattice of order
GRID_ORDER per maximal simplex.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .matcore import (
    BoundCheck,
    VerificationReport,
    as_matrix,
    operator_norm,
)
from .selfcomm import self_commutator_decompose

GRID_ORDER = 8
# Lattice points of one maximal simplex with k vertices: C(k + 7, 8), so
# dimension 8 (12870 points) fits and dimension 9 does not.
GRID_POINT_BUDGET = 2 ** 14
# Lattice work of the whole complex: lattice points * vertices, summed over
# the maximal simplices. Admits 2^15 triangles (45 points * 3 vertices each,
# about 4.4M), and as many tetrahedra as three refinements of one give.
COMPLEX_GRID_BUDGET = 2 ** 24
RECON_TOL = 1e-8  # grid residual, relative to the field's sup norm
TRACE_TOL = 1e-10  # vertex trace, relative to n times the vertex norm
REFINE_SIMPLEX_BUDGET = 2 ** 15  # maximal simplices after barycentric refinement


@dataclass(frozen=True)
class SimplicialComplex:
    """A finite abstract complex given by its maximal simplices."""

    vertex_count: int
    maximal_simplices: tuple

    def __post_init__(self):
        if self.vertex_count <= 0:
            raise InvalidInputError("vertex_count must be positive")
        if not self.maximal_simplices:
            raise InvalidInputError("at least one maximal simplex is required")
        for simplex in self.maximal_simplices:
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
        colors = tuple(int(c) for c in colors)
        if any(c < 0 for c in colors):
            raise InvalidInputError("colors must be nonnegative")
        return cls(colors=colors, color_count=(max(colors) + 1 if colors else 0))


def is_proper(complex_: SimplicialComplex, coloring: VertexColoring) -> bool:
    if len(coloring.colors) != complex_.vertex_count:
        return False
    return all(coloring.colors[u] != coloring.colors[v] for u, v in complex_.edges())


def require_proper(complex_: SimplicialComplex, coloring: VertexColoring):
    if len(coloring.colors) != complex_.vertex_count:
        raise InvalidInputError("coloring length does not match vertex count")
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
    """Reject ``refine`` barycentric refinements when the projected count,
    maximal simplices * ((d+1)!)^refine, exceeds REFINE_SIMPLEX_BUDGET."""
    count = len(complex_.maximal_simplices)
    factor = math.factorial(complex_.dimension + 1)
    for _ in range(refine if factor > 1 else 0):
        count *= factor
        if count > REFINE_SIMPLEX_BUDGET:
            raise InvalidInputError(
                f"refine {refine} of {len(complex_.maximal_simplices)} maximal simplices of "
                f"dimension {complex_.dimension} projects over the budget of "
                f"{REFINE_SIMPLEX_BUDGET} simplices")


def circle_complex(n_vertices: int) -> SimplicialComplex:
    """The n-cycle as a 1-dimensional complex."""
    if n_vertices < 3:
        raise InvalidInputError("a cycle needs at least 3 vertices")
    edges = [(i, (i + 1) % n_vertices) for i in range(n_vertices)]
    return SimplicialComplex.make(n_vertices, edges)


def octahedron_complex() -> SimplicialComplex:
    """Boundary of the octahedron: vertices 0..5 with (0,1), (2,3), (4,5) antipodal."""
    triangles = [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
    return SimplicialComplex.make(6, triangles)


def solid_triangle_complex() -> SimplicialComplex:
    return SimplicialComplex.make(3, [(0, 1, 2)])


# --------------------------------------------------------------------------
# Fields.

@dataclass(frozen=True)
class SimplicialField:
    complex: SimplicialComplex
    values: tuple  # one square matrix per vertex

    @property
    def matrix_size(self) -> int:
        return self.values[0].shape[0]

    def value_at(self, simplex_index: int, weights) -> np.ndarray:
        """The field at barycentric weights on one maximal simplex: a matrix
        for one row of weights, a stack of matrices for rows of them."""
        verts = self.complex.maximal_simplices[simplex_index]
        w = np.asarray(weights, dtype=float)
        if w.shape[-1:] != (len(verts),):
            raise InvalidInputError("barycentric weight count does not match simplex")
        return np.einsum("...v,vij->...ij", w, np.stack([self.values[v] for v in verts]))


def make_field(complex_: SimplicialComplex, values) -> SimplicialField:
    if len(values) != complex_.vertex_count:
        raise InvalidInputError("need one matrix per vertex")
    mats = []
    size = None
    for i, v in enumerate(values):
        m = as_matrix(v, square=True, name=f"value at vertex {i}").copy()
        if size is None:
            size = m.shape[0]
        elif m.shape[0] != size:
            raise InvalidInputError("all vertex values must share one matrix size")
        m.setflags(write=False)
        mats.append(m)
    return SimplicialField(complex=complex_, values=tuple(mats))


def subdivide_field(fld: SimplicialField, sub: BarycentricSubdivision) -> SimplicialField:
    """Resample onto a barycentric subdivision (exact for PL fields)."""
    values = []
    for parent in sub.parent_faces:
        values.append(sum(fld.values[v] for v in parent) / len(parent))
    return make_field(sub.complex, values)


def is_trace_zero_field(fld: SimplicialField) -> bool:
    """Pointwise trace zero; checking vertices suffices since the trace is PL."""
    n = fld.matrix_size
    return all(
        abs(np.trace(v)) <= TRACE_TOL * n * max(1e-300, operator_norm(v))
        for v in fld.values)


@functools.cache
def barycentric_lattice(n_weights: int, order: int) -> np.ndarray:
    """All lattice points (i_1/order, ..., i_k/order) with sum 1, as rows of
    a read-only array built once per (n_weights, order)."""
    rows = []
    for cut in itertools.combinations(range(order + n_weights - 1), n_weights - 1):
        prev = -1
        comp = []
        for c in cut:
            comp.append(c - prev - 1)
            prev = c
        comp.append(order + n_weights - 2 - prev)
        rows.append(comp)
    lattice = np.asarray(rows, dtype=float) / order
    lattice.setflags(write=False)
    return lattice


def sample_grid(complex_: SimplicialComplex, order: int = GRID_ORDER):
    """Deterministic (simplex index, barycentric weights) evaluation points."""
    out = []
    for idx, simplex in enumerate(complex_.maximal_simplices):
        for w in barycentric_lattice(len(simplex), order):
            out.append((idx, w))
    return out


# --------------------------------------------------------------------------
# Sampling and hat-function extension along one color class.

def psi_k(fld: SimplicialField, coloring: VertexColoring, k: int) -> list:
    """Evaluate the field at every color-k vertex."""
    if not (0 <= k < coloring.color_count):
        raise InvalidInputError(f"color {k} out of range")
    return [(v, fld.values[v]) for v in range(fld.complex.vertex_count)
            if coloring.colors[v] == k]


def phi_k(complex_: SimplicialComplex, coloring: VertexColoring, k: int,
          samples) -> SimplicialField:
    """Extend color-k samples by hat functions: p -> sum_v h_v(p) b_v.

    Order zero: same-color hats have disjoint stars, so orthogonal samples
    extend to pointwise-orthogonal fields.  The output is again PL, hence an
    exact SimplicialField.
    """
    if not (0 <= k < coloring.color_count):
        raise InvalidInputError(f"color {k} out of range")
    size = None
    values = {}
    for v, b in samples:
        if coloring.colors[v] != k:
            raise InvalidInputError(f"vertex {v} does not have color {k}")
        m = as_matrix(b, square=True, name=f"sample at vertex {v}")
        size = m.shape[0] if size is None else size
        values[v] = m
    if size is None:
        raise InvalidInputError("no samples given")
    zero = np.zeros((size, size), dtype=complex)
    return make_field(complex_, [values.get(v, zero) for v in range(complex_.vertex_count)])


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


def _simplex_reconstruction(x_factors, simplex, w) -> np.ndarray:
    """sum_k [y_k*, y_k] on one maximal simplex at every row of weights w,
    with y = sqrt(w_i) x_{v_i}: vertex v_i is the only one of its color on
    the simplex, so it alone carries that color's factor there."""
    recon = np.zeros((len(w),) + x_factors[simplex[0]].shape, dtype=complex)
    for i, v in enumerate(simplex):
        y = np.sqrt(w[:, i])[:, None, None] * x_factors[v]
        y_star = y.conj().transpose(0, 2, 1)
        recon += y_star @ y - y @ y_star
    return recon


def _max_singular_value(stack) -> float:
    return float(np.max(np.linalg.svd(stack, compute_uv=False)))


def decompose_field(fld: SimplicialField, coloring: VertexColoring) -> FieldDecomposition:
    """Decompose a pointwise trace-zero field into color_count self-commutators.

    Each vertex value is written as [x_v*, x_v]; color k collects its
    vertices into one sqrt(hat)-weighted factor y_k.  Disjoint same-color
    stars make the cross terms vanish, so sum_k [y_k*, y_k] equals the PL
    interpolation of the field; the residual is measured on the sample grid.
    The bound norm(y_k)^2 <= 2*sup_norm + 1e-8 is checked at the vertices,
    where norm(sqrt(w) x_v) peaks (w = 1, a lattice point).
    """
    work = 0
    for simplex in fld.complex.maximal_simplices:
        points = math.comb(len(simplex) + GRID_ORDER - 1, GRID_ORDER)
        if points > GRID_POINT_BUDGET:
            raise InvalidInputError(
                f"simplex {simplex} of dimension {len(simplex) - 1} needs {points} grid "
                f"points, over the budget of {GRID_POINT_BUDGET}")
        work += points * len(simplex)
    if work > COMPLEX_GRID_BUDGET:
        raise InvalidInputError(
            f"the complex's grid work, lattice points times vertices over its "
            f"{len(fld.complex.maximal_simplices)} maximal simplices, is {work}, over the "
            f"budget of {COMPLEX_GRID_BUDGET}")
    require_proper(fld.complex, coloring)
    n = fld.matrix_size
    norms = [operator_norm(value) for value in fld.values]
    for v, value in enumerate(fld.values):
        if abs(np.trace(value)) > TRACE_TOL * n * max(1.0, norms[v]):
            raise InvalidInputError(f"vertex {v} value has nonzero trace")
    x_factors = [self_commutator_decompose(value).factors[0] for value in fld.values]

    factors = []
    for k in range(coloring.color_count):
        entries = tuple((v, x_factors[v]) for v in range(fld.complex.vertex_count)
                        if coloring.colors[v] == k)
        factors.append(SqrtWeightedFactor(color=k, entries=entries))

    sup = max(norms)
    covered = {v for simplex in fld.complex.maximal_simplices for v in simplex}
    norm_sq = max((operator_norm(x_factors[v]) ** 2 for v in covered), default=0.0)
    residual = 0.0
    partition_defect = 0.0
    for idx, simplex in enumerate(fld.complex.maximal_simplices):
        w = barycentric_lattice(len(simplex), GRID_ORDER)  # P x (d+1)
        recon = _simplex_reconstruction(x_factors, simplex, w)
        residual = max(residual, _max_singular_value(recon - fld.value_at(idx, w)))
        partition_defect = max(partition_defect, float(np.max(np.abs(w.sum(axis=1) - 1.0))))

    checks = [
        BoundCheck("grid_residual", RECON_TOL * max(sup, 1e-30), residual, 0.0,
                   residual <= RECON_TOL * max(sup, 1e-30)),
        BoundCheck("max_factor_norm_sq", 2.0 * sup + 1e-8, norm_sq,
                   0.0, norm_sq <= 2.0 * sup + 1e-8),
        BoundCheck("factor_count", float(coloring.color_count), float(len(factors)),
                   0.0, len(factors) == coloring.color_count),
        BoundCheck("partition_of_unity_defect", 1e-12, partition_defect, 0.0,
                   partition_defect <= 1e-12),
    ]
    report = VerificationReport(residual_norm=residual,
                                commutator_count=len(factors),
                                bound_checks=checks)
    return FieldDecomposition(factors=factors, report=report, sup_norm=sup)


def field_residual_against(fld_factors: FieldDecomposition, fld: SimplicialField,
                           target) -> float:
    """Max grid distance between the decomposition's sum and an arbitrary target.

    ``target(simplex_index, weights) -> matrix`` lets callers measure against
    a smooth (non-PL) field; used for mesh-refinement studies.
    """
    x_factors = {v: x for factor in fld_factors.factors for v, x in factor.entries}
    worst = 0.0
    for idx, simplex in enumerate(fld.complex.maximal_simplices):
        w = barycentric_lattice(len(simplex), GRID_ORDER)
        recon = _simplex_reconstruction(x_factors, simplex, w)
        worst = max(worst, _max_singular_value(recon - np.stack([target(idx, row) for row in w])))
    return worst
