"""Matrix-valued piecewise-linear fields over finite simplicial complexes.

A field assigns a matrix to each vertex and is evaluated by barycentric
interpolation inside each maximal simplex.  Given a proper vertex coloring,
same-color vertices never share a simplex, so the color-k hat functions have
disjoint open stars.  Decomposing each vertex value as a self-commutator and
weighting the factors by sqrt(hat) therefore yields one order-zero factor
per color whose self-commutators sum back, exactly, to the interpolated
field: color count = dimension + 1 factors for barycentric colorings.

Verification is pointwise on a deterministic barycentric lattice of order
GRID_ORDER per maximal simplex.  A lattice weight is always one of the
GRID_ORDER + 1 levels j / GRID_ORDER, so the grid pass forms each bracket
[y*, y] once per (vertex, level) pair a chunk of lattice points uses, and
gathers the chunk's lattice sums from those.
Every norm the grid reports is a maximum, taken by ``max_operator_norm``:
it takes the SVD only of the matrices whose Frobenius bound can beat the
largest norm found so far.
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
    max_operator_norm,
    operator_norm,
    raise_first_failure,
)
from .selfcomm import self_commutator_factors

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
# Matrix entries per stack of the grid pass (256 KiB of complex), so its
# memory stays flat in the matrix size and the number of vertices.
GRID_CHUNK_ENTRIES = 2 ** 14
# The weights an order-GRID_ORDER lattice point can give a vertex.
LEVELS = np.arange(GRID_ORDER + 1) / GRID_ORDER
LEVELS.setflags(write=False)


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
        colors = tuple(int(c) for c in colors)
        if any(c < 0 for c in colors):
            raise InvalidInputError("colors must be nonnegative")
        return cls(colors=colors, color_count=(max(colors) + 1 if colors else 0))


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


def octahedron_complex() -> SimplicialComplex:
    """Boundary of the octahedron: vertices 0..5 with (0,1), (2,3), (4,5) antipodal."""
    triangles = [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
    return SimplicialComplex.make(6, triangles)


# --------------------------------------------------------------------------
# Fields.

@dataclass(frozen=True)
class SimplicialField:
    complex: SimplicialComplex
    values: tuple  # one square matrix per vertex

    @property
    def matrix_size(self) -> int:
        return self.values[0].shape[0]


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


def _brackets(x, levels) -> np.ndarray:
    """[y*, y] with y = sqrt(level) x, for a stack of factors x and one level
    each."""
    y = np.sqrt(levels)[:, None, None] * x
    y_star = y.conj().swapaxes(-1, -2)
    return y_star @ y - y @ y_star


def _gather(terms, slot) -> np.ndarray:
    """Row r is sum_i terms[slot[r, i]], from zeros in the order of i."""
    total = np.zeros((len(slot),) + terms.shape[1:], dtype=complex)
    for i in range(slot.shape[1]):
        total += terms[slot[:, i]]
    return total


def _lattice_sums(fld: SimplicialField, x_of):
    """Walk the order-GRID_ORDER lattice of every maximal simplex, simplices
    grouped by size, GRID_CHUNK_ENTRIES matrix entries (at least one point)
    at a time.  For each chunk yield the simplex index and the weights w of
    each point, the sum over the simplex's vertices v_i of [y*, y] with
    y = sqrt(w_i) x_{v_i} (``x_of[v]``), and of w_i value_{v_i}.  Vertex
    v_i is the only one of its color on a simplex, so at w it alone carries
    that color's factor there, and the first sum is sum_k [y_k*, y_k].  Each
    term depends only on the vertex and its level w_i = j / GRID_ORDER, so it
    is formed once per (vertex, level) pair the chunk uses.  Both sums start
    from zeros and add in vertex order: bit for bit what forming every term
    at every point gives."""
    n = fld.matrix_size
    step = max(1, GRID_CHUNK_ENTRIES // (n * n))
    groups = {}
    for idx, simplex in enumerate(fld.complex.maximal_simplices):
        groups.setdefault(len(simplex), []).append(idx)
    for size, members in sorted(groups.items()):
        lattice = barycentric_lattice(size, GRID_ORDER)
        levels = np.rint(lattice * GRID_ORDER).astype(np.intp)
        vertices = np.array([fld.complex.maximal_simplices[idx] for idx in members])
        members = np.array(members)
        points = len(lattice)
        for start in range(0, len(members) * points, step):
            which, point = np.divmod(np.arange(start, min(start + step, len(members) * points)),
                                     points)
            used, local = np.unique(vertices[which], return_inverse=True)
            keys = local.reshape(len(which), size) * (GRID_ORDER + 1) + levels[point]
            present = np.zeros(len(used) * (GRID_ORDER + 1), dtype=bool)
            present[keys] = True
            slot = (np.cumsum(present) - 1)[keys]
            pair_vertex, pair_level = np.divmod(np.flatnonzero(present), GRID_ORDER + 1)
            x = np.stack([x_of[v] for v in used.tolist()])
            recon = _gather(_brackets(x[pair_vertex], LEVELS[pair_level]), slot)
            values = np.stack([fld.values[v] for v in used.tolist()])
            weighted = LEVELS[pair_level][:, None, None] * values[pair_vertex]
            yield members[which], lattice[point], recon, _gather(weighted, slot)


def _max_norm(mats) -> float:
    """max_operator_norm of a list of n x n matrices, stacked
    GRID_CHUNK_ENTRIES entries at a time."""
    step = max(1, GRID_CHUNK_ENTRIES // mats[0].size) if mats else 1
    best = 0.0
    for start in range(0, len(mats), step):
        best = max_operator_norm(np.stack(mats[start:start + step]), floor=best)
    return best


def decompose_field(fld: SimplicialField, coloring: VertexColoring) -> FieldDecomposition:
    """Decompose a pointwise trace-zero field into color_count self-commutators.

    Each vertex value is written as [x_v*, x_v], all of them in one stacked
    pass (``self_commutator_factors``) after one stacked trace check; color
    k collects its vertices into one sqrt(hat)-weighted factor y_k.
    Disjoint same-color stars make the cross terms vanish, so sum_k
    [y_k*, y_k] equals the PL interpolation of the field; the residual is
    measured on the sample grid, GRID_CHUNK_ENTRIES matrix entries at a
    time, each bracket formed once per (vertex, level) a chunk uses.  The bound norm(y_k)^2 <= 2*sup_norm +
    1e-8 is checked at the vertices, where norm(sqrt(w) x_v) peaks (w = 1, a
    lattice point).  The residual, sup_norm and factor norm are the exact
    SVD maxima; the Frobenius screen only skips SVDs that cannot change them.
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
    values = np.stack(fld.values)
    # On values / scale, a power of two above 2n, the trace test is exact on
    # normal floats and neither the sum nor its modulus can overflow.
    scale = 2.0 ** (2 * n).bit_length()
    traces = np.trace(values / scale, axis1=1, axis2=2)
    trace = np.hypot(traces.real, traces.imag)  # bit for bit abs() of each
    raise_first_failure([(trace > TRACE_TOL * n / scale, lambda v: InvalidInputError(
        f"vertex {v} value has nonzero trace")
        if trace[v] > TRACE_TOL * n * operator_norm(values[v]) / scale else None)])
    x_factors, _ = self_commutator_factors(values)

    factors = []
    for k in range(coloring.color_count):
        entries = tuple((v, x_factors[v]) for v in range(fld.complex.vertex_count)
                        if coloring.colors[v] == k)
        factors.append(SqrtWeightedFactor(color=k, entries=entries))

    sup = _max_norm(fld.values)
    covered = sorted({v for simplex in fld.complex.maximal_simplices for v in simplex})
    norm_sq = _max_norm([x_factors[v] for v in covered]) ** 2
    residual = 0.0
    for _, _, recon, interpolated in _lattice_sums(fld, x_factors):
        residual = max_operator_norm(recon - interpolated, floor=residual)
    partition_defect = max(
        float(np.max(np.abs(barycentric_lattice(size, GRID_ORDER).sum(axis=1) - 1.0)))
        for size in {len(simplex) for simplex in fld.complex.maximal_simplices})

    checks = [
        BoundCheck("grid_residual", RECON_TOL * max(sup, 1e-30), residual, 0.0),
        BoundCheck("max_factor_norm_sq", 2.0 * sup + 1e-8, norm_sq, 0.0),
        BoundCheck("factor_count", float(coloring.color_count), float(len(factors)), 0.0),
        BoundCheck("partition_of_unity_defect", 1e-12, partition_defect, 0.0),
    ]
    report = VerificationReport(residual_norm=residual,
                                commutator_count=len(factors),
                                bound_checks=checks)
    return FieldDecomposition(factors=factors, report=report, sup_norm=sup)
