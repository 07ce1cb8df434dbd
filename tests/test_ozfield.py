import itertools
import math
import sys
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    barycentric_lattice,
    circle_complex,
    field_residual_against,
    measured,
    phi_k,
    psi_k,
    sample_grid,
    solid_triangle_complex,
    value_at,
)
from tracezero import ozfield
from tracezero.errors import InvalidInputError
from tracezero.matcore import operator_norm
from tracezero.ozfield import (
    SimplicialComplex,
    barycentric_subdivide,
    decompose_field,
    face_means,
    greedy_coloring,
    make_field,
    octahedron_complex,
    require_proper,
    subdivide_field,
)
from tracezero.rand import SplitMix64, random_trace_zero_hermitian

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def two_colorable(complex_):
    """Graph 2-coloring oracle by BFS on the edge graph."""
    adj = {v: set() for v in range(complex_.vertex_count)}
    for u, v in complex_.edges():
        adj[u].add(v)
        adj[v].add(u)
    color = {}
    for start in range(complex_.vertex_count):
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return False
    return True


class TestSubdivision:
    def test_single_edge(self):
        sub = barycentric_subdivide(SimplicialComplex.make(2, [(0, 1)]))
        assert sub.complex.vertex_count == 3
        assert sub.coloring.color_count == 2
        assert len(sub.complex.maximal_simplices) == 2

    def test_triangle_boundary(self):
        # odd cycle is not 2-colorable; its subdivision is
        circ = circle_complex(3)
        assert not two_colorable(circ)
        sub = barycentric_subdivide(circ)
        assert two_colorable(sub.complex)
        assert sub.complex.vertex_count == 6
        assert sub.coloring.color_count == 2
        require_proper(sub.complex, sub.coloring)

    def test_solid_triangle(self):
        # faces: 3 vertices + 3 edges + 1 triangle
        sub = barycentric_subdivide(solid_triangle_complex())
        assert sub.complex.vertex_count == 7
        assert sub.coloring.color_count == 3
        assert len(sub.complex.maximal_simplices) == 6
        require_proper(sub.complex, sub.coloring)

    def test_octahedron_subdivision_counts(self):
        sub = barycentric_subdivide(octahedron_complex())
        assert sub.complex.vertex_count == 6 + 12 + 8
        assert len(sub.complex.maximal_simplices) == 8 * 6
        assert sub.coloring.color_count == 3


class TestColoring:
    def test_greedy_octahedron(self):
        col = greedy_coloring(octahedron_complex())
        assert col.color_count == 3
        require_proper(octahedron_complex(), col)

    def test_greedy_even_cycle(self):
        c = circle_complex(8)
        col = greedy_coloring(c)
        assert col.color_count == 2
        require_proper(c, col)


class TestGrid:
    def test_lattice_rows_sum_to_one(self):
        for k in (2, 3, 4):
            w = barycentric_lattice(k, 8)
            assert w.shape[1] == k
            np.testing.assert_array_equal(w.sum(axis=1), np.ones(len(w)))
            assert np.min(w) >= 0.0

    def test_lattice_count(self):
        # compositions of 8 into 3 parts: C(10, 2) = 45
        assert barycentric_lattice(3, 8).shape[0] == 45

    def test_value_at_rows_is_a_stack_of_values(self):
        c = solid_triangle_complex()
        fld = make_field(c, [SZ, SX, SY])
        w = barycentric_lattice(3, 4)
        stack = value_at(fld, 0, w)
        assert stack.shape == (len(w), 2, 2)
        for row, value in zip(w, stack):
            np.testing.assert_array_equal(value, value_at(fld, 0, row))
        np.testing.assert_allclose(value_at(fld, 0, [0.5, 0.25, 0.25]),
                                   0.5 * SZ + 0.25 * SX + 0.25 * SY, atol=1e-15)
        with pytest.raises(InvalidInputError):
            value_at(fld, 0, [0.5, 0.5])

    def test_same_color_hats_disjoint(self):
        sub = barycentric_subdivide(octahedron_complex())
        # within any maximal simplex all colors are distinct, so at every
        # grid point at most one vertex of each color has positive weight
        for simplex in sub.complex.maximal_simplices:
            colors = [sub.coloring.colors[v] for v in simplex]
            assert len(set(colors)) == len(colors)


class TestSampling:
    def test_psi_constant_field(self):
        sub = barycentric_subdivide(circle_complex(3))
        fld = make_field(sub.complex, [SZ] * sub.complex.vertex_count)
        for k in range(2):
            samples = psi_k(fld, sub.coloring, k)
            assert len(samples) == 3  # 3 per color on the subdivided 3-cycle
            for _, value in samples:
                np.testing.assert_array_equal(value, SZ)

    def test_psi_edge_field(self):
        c = SimplicialComplex.make(2, [(0, 1)])
        coloring = greedy_coloring(c)
        a0, a1 = SZ, 2.0 * SZ
        fld = make_field(c, [a0, a1])
        samples = psi_k(fld, coloring, 0)
        assert samples[0][0] == 0
        np.testing.assert_array_equal(samples[0][1], a0)

    def test_psi_color_out_of_range(self):
        c = SimplicialComplex.make(2, [(0, 1)])
        fld = make_field(c, [SZ, SZ])
        with pytest.raises(InvalidInputError):
            psi_k(fld, greedy_coloring(c), 5)

    def test_phi_single_vertex_star(self):
        sub = barycentric_subdivide(circle_complex(3))
        v = next(w for w in range(sub.complex.vertex_count)
                 if sub.coloring.colors[w] == 0)
        fld = phi_k(sub.complex, sub.coloring, 0, [(v, SZ)])
        np.testing.assert_array_equal(fld.values[v], SZ)
        for w in range(sub.complex.vertex_count):
            if w != v:
                assert operator_norm(fld.values[w]) == 0.0

    def test_phi_preserves_orthogonality(self):
        sub = barycentric_subdivide(circle_complex(3))
        verts = [w for w in range(sub.complex.vertex_count)
                 if sub.coloring.colors[w] == 0]
        e00 = np.diag([1.0, 0.0]).astype(complex)
        e11 = np.diag([0.0, 1.0]).astype(complex)
        f = phi_k(sub.complex, sub.coloring, 0, [(verts[0], e00)])
        g = phi_k(sub.complex, sub.coloring, 0, [(verts[1], e11)])
        for idx, w in sample_grid(sub.complex, order=6):
            prod = value_at(f, idx, w) @ value_at(g, idx, w)
            assert operator_norm(prod) == 0.0

    def test_phi_psi_sums_to_identity_on_constant(self):
        sub = barycentric_subdivide(circle_complex(3))
        fld = make_field(sub.complex, [SZ] * sub.complex.vertex_count)
        total = None
        for k in range(sub.coloring.color_count):
            piece = phi_k(sub.complex, sub.coloring, k, psi_k(fld, sub.coloring, k))
            total = piece if total is None else make_field(
                sub.complex, [a + b for a, b in zip(total.values, piece.values)])
        for idx, w in sample_grid(sub.complex, order=8):
            np.testing.assert_allclose(value_at(total, idx, w), SZ, atol=1e-14)

    def test_phi_color_mismatch(self):
        sub = barycentric_subdivide(circle_complex(3))
        v = next(w for w in range(sub.complex.vertex_count)
                 if sub.coloring.colors[w] == 1)
        with pytest.raises(InvalidInputError):
            phi_k(sub.complex, sub.coloring, 0, [(v, SZ)])


class TestTraceZeroField:
    """decompose_field's vertex trace rule: the trace is PL, so the vertices
    decide whether a field is pointwise trace zero."""

    def test_constant_traceless(self):
        c = circle_complex(4)
        assert decompose_field(make_field(c, [SZ] * 4), greedy_coloring(c)).report.all_passed

    def test_identity_field(self):
        # no sum of commutators is closer to the identity than tr/n = 1 at a
        # vertex: the factors are zero and the residual claim fails there
        c = circle_complex(4)
        fd = decompose_field(make_field(c, [np.eye(2, dtype=complex)] * 4), greedy_coloring(c))
        assert all(not x.any() for factor in fd.factors for _, x in factor.entries)
        assert [(b.name, b.measured_value, b.passed) for b in fd.report.bound_checks] == [
            ("field_residual", 1.0, False), ("max_factor_norm_sq", 0.0, True),
            ("factor_count", 2.0, True)]

    def test_scalar_multiples_of_traceless(self):
        c = circle_complex(5)
        vals = [float(k) * (SX + SY) for k in range(5)]
        assert decompose_field(make_field(c, vals), greedy_coloring(c)).report.all_passed


class TestDecomposeField:
    def test_constant_field_on_subdivided_cycle(self):
        sub = barycentric_subdivide(circle_complex(3))
        fld = make_field(sub.complex, [SZ] * sub.complex.vertex_count)
        fd = decompose_field(fld, sub.coloring)
        assert len(fd.factors) == 2
        assert measured(fd.report, "field_residual") <= 1e-10
        assert fd.report.all_passed

    def test_pl_field_on_circle(self):
        sub = barycentric_subdivide(circle_complex(6))
        vals = [np.sin(2 * np.pi * v / sub.complex.vertex_count) * SZ
                for v in range(sub.complex.vertex_count)]
        fld = make_field(sub.complex, vals)
        fd = decompose_field(fld, sub.coloring)
        assert measured(fd.report, "field_residual") <= 1e-8 * max(fd.sup_norm, 1e-30)

    def test_exactness_on_three_complexes(self):
        rng = SplitMix64(31)
        sub_circle = barycentric_subdivide(circle_complex(6))
        sub_octa = barycentric_subdivide(octahedron_complex())
        triangle = solid_triangle_complex()
        cases = [
            (sub_circle.complex, sub_circle.coloring),
            (sub_octa.complex, sub_octa.coloring),
            (triangle, greedy_coloring(triangle)),
        ]
        for complex_, coloring in cases:
            for _ in range(10):
                vals = [random_trace_zero_hermitian(rng, 2)
                        for _ in range(complex_.vertex_count)]
                fld = make_field(complex_, vals)
                fd = decompose_field(fld, coloring)
                assert measured(fd.report, "field_residual") <= 1e-8 * fd.sup_norm
                assert len(fd.factors) == coloring.color_count
                for check in fd.report.bound_checks:
                    assert check.passed, check

    def test_error_names_vertex(self):
        c = circle_complex(4)
        vals = [SZ, SZ, np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), SZ]
        with pytest.raises(InvalidInputError, match="^vertex 2: a is not Hermitian"):
            decompose_field(make_field(c, vals), greedy_coloring(c))

    def test_refinement_halves_smooth_error(self):
        # smooth target on the circle, PL-sampled at mesh h and h/2: the
        # measured interpolation error should drop by ~4, well under 2.5x
        from helpers import circle_refinement_residual
        coarse = circle_refinement_residual(16)
        fine = circle_refinement_residual(32)
        assert fine <= coarse / 2.0


def test_subdivide_field_is_exact_on_pl():
    sub = barycentric_subdivide(circle_complex(4))
    vals = [float(v) * SZ - 1.5 * SZ for v in range(4)]
    parent = make_field(circle_complex(4), vals)
    child = subdivide_field(parent, sub)
    # midpoint of an edge carries the average of the endpoint values
    for new_v, face in enumerate(sub.parent_faces):
        expected = sum(parent.values[v] for v in face) / len(face)
        np.testing.assert_allclose(child.values[new_v], expected, atol=1e-14)


_FACES = sorted((face for r in range(1, 5) for face in itertools.combinations(range(4), r)),
                key=lambda face: (len(face), face))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1.79e308, 1.79e308) | st.sampled_from([-0.0, 5e-324, 1.79e308]),
                min_size=32, max_size=32))
def test_face_means_are_finite_and_within_a_few_ulps_of_the_exact_means(parts):
    # every entry, also where the plain sum of the values would overflow
    values = np.array(parts).view(complex).reshape(4, 2, 2)
    means = face_means(values, _FACES)
    for face, mean in zip(_FACES, means):
        assert np.isfinite(mean).all()
        for got, *terms in zip(mean.ravel(), *(values[v].ravel() for v in face)):
            for part in ("real", "imag"):
                exact = sum(Fraction(getattr(z, part)) for z in terms) / len(face)
                scale = max(abs(getattr(z, part)) for z in terms)
                # a few ulps of the largest term, or of the least subnormal
                error = Fraction(scale) * 2 ** -50 + Fraction(2) ** -1072
                assert abs(Fraction(getattr(got, part)) - exact) <= error


def _pointwise_reference(fd, fld, target=None):
    """Residual and largest squared factor norm by the pointwise loop over
    the order-8 lattice: at each point y_k = sum over color-k vertices of
    sqrt(w_i) x_{v_i}, one matrix at a time.  ``target(idx, w)`` defaults to
    the PL interpolation of the field, and a vertex in no maximal simplex is
    then a point of its own, where the field is its value."""
    lookups = [dict(factor.entries) for factor in fd.factors]
    size = fld.matrix_size
    simplices = list(fld.complex.maximal_simplices)
    if target is None:
        covered = {v for simplex in simplices for v in simplex}
        simplices += [(v,) for v in range(fld.complex.vertex_count) if v not in covered]
    residual = norm_sq = 0.0
    for idx, simplex in enumerate(simplices):
        for w in barycentric_lattice(len(simplex), 8):
            recon = np.zeros((size, size), dtype=complex)
            for lookup in lookups:
                y = np.zeros((size, size), dtype=complex)
                for i, v in enumerate(simplex):
                    if v in lookup and w[i] > 0.0:
                        y += math.sqrt(w[i]) * lookup[v]
                recon += y.conj().T @ y - y @ y.conj().T
                norm_sq = max(norm_sq, operator_norm(y) ** 2)
            expected = (sum(w[i] * fld.values[v] for i, v in enumerate(simplex))
                        if target is None else target(idx, w))
            residual = max(residual, operator_norm(recon - expected))
    return residual, norm_sq


def _reference_cases():
    rng = SplitMix64(57)
    octa = barycentric_subdivide(octahedron_complex())
    tetra = SimplicialComplex.make(4, [(0, 1, 2, 3)])
    # vertex 4 lies in no simplex, with the largest value: it counts as any vertex
    cycle = SimplicialComplex.make(5, [(0, 1), (1, 2), (2, 3), (0, 3)])
    cases = []
    for complex_, coloring, n, scale in [(octa.complex, octa.coloring, 3, 1.0),
                                         (tetra, greedy_coloring(tetra), 2, 1.0),
                                         (cycle, greedy_coloring(cycle), 2, 100.0)]:
        vals = [random_trace_zero_hermitian(rng, n) for _ in range(complex_.vertex_count)]
        vals[-1] = scale * vals[-1]
        cases.append((make_field(complex_, vals), coloring))
    return cases


_CASE_IDS = ["refined-octahedron", "tetrahedron", "cycle-with-isolated-vertex"]


def _scale_factors_by_vertex(monkeypatch):
    """Scale vertex v's factor by 1 + v/100: every simplex then has its own
    residual, far from rounding."""
    exact = ozfield.self_commutator_factors

    def scaled(stack):
        x, norms = exact(stack)
        return (1.0 + 0.01 * np.arange(len(x)))[:, None, None] * x, norms

    monkeypatch.setattr(ozfield, "self_commutator_factors", scaled)


@pytest.mark.parametrize("case", range(3), ids=_CASE_IDS)
def test_decompose_field_matches_the_pointwise_reference(case):
    fld, coloring = _reference_cases()[case]
    fd = decompose_field(fld, coloring)
    residual, norm_sq = _pointwise_reference(fd, fld)
    values = {check.name: check.measured_value for check in fd.report.bound_checks}
    assert fd.sup_norm == max(operator_norm(v) for v in fld.values)
    assert values["field_residual"] <= residual
    assert values["field_residual"] == pytest.approx(residual, abs=1e-13 * fd.sup_norm)
    assert values["max_factor_norm_sq"] == pytest.approx(norm_sq, rel=1e-12)
    isolated = [v for v in range(fld.complex.vertex_count)
                if all(v not in s for s in fld.complex.maximal_simplices)]
    for v in isolated:
        x = dict(fd.factors[coloring.colors[v]].entries)[v]
        assert values["max_factor_norm_sq"] == operator_norm(x) ** 2

    # against a non-PL target the residual is far from rounding
    def bent(idx, w):
        return value_at(fld, idx, w) + float(np.prod(w)) * np.eye(fld.matrix_size)

    expected = _pointwise_reference(fd, fld, bent)[0]
    assert expected > 1e-3
    assert field_residual_against(fd, fld, bent) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("case", range(3), ids=_CASE_IDS)
def test_decompose_field_residual_of_wrong_factors_matches_the_reference(case, monkeypatch):
    # every simplex has its own residual, so each one has to be measured
    _scale_factors_by_vertex(monkeypatch)
    fld, coloring = _reference_cases()[case]
    fd = decompose_field(fld, coloring)
    residual, norm_sq = _pointwise_reference(fd, fld)
    assert residual > 1e-3
    assert measured(fd.report, "field_residual") == pytest.approx(residual, rel=1e-12)
    assert measured(fd.report, "max_factor_norm_sq") == pytest.approx(norm_sq, rel=1e-12)


def _mixed_field():
    """A triangle refined twice (36 triangles), a dangling edge, a 5-simplex
    (1287 lattice points), a vertex that is its own maximal simplex and a
    vertex in no simplex, with random values."""
    triangle = barycentric_subdivide(barycentric_subdivide(solid_triangle_complex()).complex)
    simplices = list(triangle.complex.maximal_simplices) + [(0, 25), tuple(range(26, 32)), (32,)]
    complex_ = SimplicialComplex.make(34, simplices)
    rng = SplitMix64(59)
    vals = [random_trace_zero_hermitian(rng, 3) * (1.0 + v % 5) for v in range(34)]
    return make_field(complex_, vals), greedy_coloring(complex_)


@pytest.mark.parametrize("scaled", [False, True], ids=["exact-factors", "scaled-factors"])
def test_grid_pass_is_bit_identical_to_the_per_simplex_reference(scaled, monkeypatch):
    # the vertex maximum against the maximum over every simplex's lattice,
    # which holds the vertices
    from helpers import reference_field_grid
    if scaled:
        _scale_factors_by_vertex(monkeypatch)
    fld, coloring = _mixed_field()
    fd = decompose_field(fld, coloring)
    residual, sup, norm_sq = reference_field_grid(fd, fld)
    assert (residual > 1e-3) == scaled
    assert measured(fd.report, "field_residual") == residual
    assert fd.sup_norm == sup
    assert measured(fd.report, "max_factor_norm_sq") == norm_sq


def test_field_residual_against_needs_factors_only_on_covered_vertices():
    fld, coloring = _mixed_field()
    fd = decompose_field(fld, coloring)
    covered = {v for simplex in fld.complex.maximal_simplices for v in simplex}
    assert covered != set(range(fld.complex.vertex_count))
    factors = [ozfield.SqrtWeightedFactor(color=f.color, entries=tuple(
        (v, x) for v, x in f.entries if v in covered)) for f in fd.factors]
    trimmed = ozfield.FieldDecomposition(factors=factors, report=fd.report, sup_norm=fd.sup_norm)
    assert field_residual_against(trimmed, fld, partial(value_at, fld)) == \
        field_residual_against(fd, fld, partial(value_at, fld))


@st.composite
def _mixed_dimension_fields(draw):
    """A field on up to four maximal simplices of dimension 0 to 4 over at
    most 8 used vertices, with up to two vertices in no simplex, n x n
    random trace-zero values (n from 1 to 4) at one scale from 1e-6 to 1e6."""
    used = draw(st.integers(1, 8))
    simplices = draw(st.lists(st.sets(st.integers(0, used - 1), min_size=1, max_size=5),
                              min_size=1, max_size=4))
    vertices = used + draw(st.integers(0, 2))
    n = draw(st.integers(1, 4))
    rng = SplitMix64(draw(st.integers(0, 2 ** 32)))
    scale = 10.0 ** draw(st.integers(-6, 6))
    values = [scale * random_trace_zero_hermitian(rng, n) for _ in range(vertices)]
    return make_field(SimplicialComplex.make(vertices, simplices), values)


@settings(max_examples=60, deadline=None)
@given(fld=_mixed_dimension_fields(), scaled=st.booleans())
def test_field_residual_is_the_lattice_maximum_at_the_vertices(fld, scaled):
    # the lattice holds the vertices, so the vertex maximum is never above
    # the lattice maximum; the residual is convex in the weights, so the
    # lattice maximum is above it by rounding at most
    from helpers import reference_field_grid
    with pytest.MonkeyPatch.context() as monkeypatch:
        if scaled:
            _scale_factors_by_vertex(monkeypatch)
        fd = decompose_field(fld, greedy_coloring(fld.complex))
    lattice, sup, _ = reference_field_grid(fd, fld)
    residual = measured(fd.report, "field_residual")
    assert residual <= lattice
    assert lattice - residual <= 1e-13 * sup
    if scaled:
        assert residual == pytest.approx(lattice, rel=1e-12, abs=1e-13 * sup)


def test_decompose_field_takes_no_single_matrix_norm(monkeypatch):
    # every norm comes from one batched SVD of a vertex stack
    from tracezero import matcore
    calls = itertools.count()

    def counted(m):
        next(calls)
        return operator_norm(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("tracezero") and getattr(module, "operator_norm",
                                                    None) is matcore.operator_norm:
            monkeypatch.setattr(module, "operator_norm", counted)
    rng = SplitMix64(61)
    fld = make_field(octahedron_complex(),
                     [random_trace_zero_hermitian(rng, 4) for _ in range(6)])
    for _ in range(2):
        sub = barycentric_subdivide(fld.complex)
        fld = subdivide_field(fld, sub)
    assert fld.complex.vertex_count == 146
    decompose_field(fld, sub.coloring)
    assert next(calls) == 0


def test_mesh_refinement_script_prints_its_table():
    from helpers import circle_refinement_residual, run_script
    stdout = run_script("mesh_refinement.py", "--levels", "2")
    header, *rows = [line.split() for line in stdout.splitlines()]
    assert header == ["vertices", "residual", "ratio"]
    assert [row[0] for row in rows] == ["8", "16"]
    coarse, fine = (float(row[1]) for row in rows)
    assert fine == pytest.approx(circle_refinement_residual(16), rel=1e-6)
    assert float(rows[1][2]) == pytest.approx(fine / coarse, abs=1e-3)


def test_a_field_holds_its_values_as_one_read_only_stack():
    values = [SZ, 2 * SZ, SX]
    fld = make_field(SimplicialComplex.make(3, [(0, 1), (1, 2)]), values)
    assert fld.values.shape == (3, 2, 2) and fld.values.dtype == complex
    assert not fld.values.flags.writeable
    assert not any(np.shares_memory(fld.values, v) for v in values)  # copied once
    np.testing.assert_array_equal(fld.values, np.stack(values))
    sub = barycentric_subdivide(fld.complex)
    assert not subdivide_field(fld, sub).values.flags.writeable


def test_a_non_finite_value_is_named_by_its_first_vertex():
    bad = [SZ, np.full((2, 2), np.nan), np.full((2, 2), np.inf)]
    with pytest.raises(InvalidInputError, match=r"^value at vertex 1 has non-finite entries$"):
        make_field(SimplicialComplex.make(3, [(0, 1), (1, 2)]), bad)
