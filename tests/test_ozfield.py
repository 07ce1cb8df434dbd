import itertools
import math
import types

import numpy as np
import pytest

from tracezero import ozfield
from tracezero.errors import InvalidInputError
from tracezero.matcore import operator_norm
from tracezero.ozfield import (
    SimplicialComplex,
    barycentric_lattice,
    barycentric_subdivide,
    circle_complex,
    decompose_field,
    field_residual_against,
    greedy_coloring,
    is_proper,
    is_trace_zero_field,
    make_field,
    octahedron_complex,
    phi_k,
    psi_k,
    sample_grid,
    solid_triangle_complex,
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
        assert is_proper(sub.complex, sub.coloring)

    def test_solid_triangle(self):
        # faces: 3 vertices + 3 edges + 1 triangle
        sub = barycentric_subdivide(solid_triangle_complex())
        assert sub.complex.vertex_count == 7
        assert sub.coloring.color_count == 3
        assert len(sub.complex.maximal_simplices) == 6
        assert is_proper(sub.complex, sub.coloring)

    def test_octahedron_subdivision_counts(self):
        sub = barycentric_subdivide(octahedron_complex())
        assert sub.complex.vertex_count == 6 + 12 + 8
        assert len(sub.complex.maximal_simplices) == 8 * 6
        assert sub.coloring.color_count == 3


class TestColoring:
    def test_greedy_octahedron(self):
        col = greedy_coloring(octahedron_complex())
        assert col.color_count == 3
        assert is_proper(octahedron_complex(), col)

    def test_greedy_even_cycle(self):
        c = circle_complex(8)
        col = greedy_coloring(c)
        assert col.color_count == 2
        assert is_proper(c, col)


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

    def test_lattice_is_built_once_and_read_only(self):
        w = barycentric_lattice(4, 8)
        assert barycentric_lattice(4, 8) is w
        assert not w.flags.writeable

    def test_value_at_rows_is_a_stack_of_values(self):
        c = solid_triangle_complex()
        fld = make_field(c, [SZ, SX, SY])
        w = barycentric_lattice(3, 4)
        stack = fld.value_at(0, w)
        assert stack.shape == (len(w), 2, 2)
        for row, value in zip(w, stack):
            np.testing.assert_array_equal(value, fld.value_at(0, row))
        np.testing.assert_allclose(fld.value_at(0, [0.5, 0.25, 0.25]),
                                   0.5 * SZ + 0.25 * SX + 0.25 * SY, atol=1e-15)
        with pytest.raises(InvalidInputError):
            fld.value_at(0, [0.5, 0.5])

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
            prod = f.value_at(idx, w) @ g.value_at(idx, w)
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
            np.testing.assert_allclose(total.value_at(idx, w), SZ, atol=1e-14)

    def test_phi_color_mismatch(self):
        sub = barycentric_subdivide(circle_complex(3))
        v = next(w for w in range(sub.complex.vertex_count)
                 if sub.coloring.colors[w] == 1)
        with pytest.raises(InvalidInputError):
            phi_k(sub.complex, sub.coloring, 0, [(v, SZ)])


class TestTraceZeroField:
    def test_constant_traceless(self):
        c = circle_complex(4)
        assert is_trace_zero_field(make_field(c, [SZ] * 4))

    def test_identity_field(self):
        c = circle_complex(4)
        assert not is_trace_zero_field(make_field(c, [np.eye(2, dtype=complex)] * 4))

    def test_scalar_multiples_of_traceless(self):
        c = circle_complex(5)
        vals = [float(k) * (SX + SY) for k in range(5)]
        assert is_trace_zero_field(make_field(c, vals))


class TestDecomposeField:
    def test_constant_field_on_subdivided_cycle(self):
        sub = barycentric_subdivide(circle_complex(3))
        fld = make_field(sub.complex, [SZ] * sub.complex.vertex_count)
        fd = decompose_field(fld, sub.coloring)
        assert len(fd.factors) == 2
        assert fd.report.residual_norm <= 1e-10
        assert fd.report.all_passed

    def test_pl_field_on_circle(self):
        sub = barycentric_subdivide(circle_complex(6))
        vals = [np.sin(2 * np.pi * v / sub.complex.vertex_count) * SZ
                for v in range(sub.complex.vertex_count)]
        fld = make_field(sub.complex, vals)
        fd = decompose_field(fld, sub.coloring)
        assert fd.report.residual_norm <= 1e-8 * max(fd.sup_norm, 1e-30)

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
                assert fd.report.residual_norm <= 1e-8 * fd.sup_norm
                assert len(fd.factors) == coloring.color_count
                for check in fd.report.bound_checks:
                    assert check.passed, check

    def test_error_names_vertex(self):
        c = circle_complex(4)
        vals = [SZ, SZ, np.eye(2, dtype=complex), SZ]
        with pytest.raises(InvalidInputError, match="vertex 2"):
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


def _pointwise_reference(fd, fld, target=None):
    """Residual and largest squared factor norm by the pointwise loop over
    the order-8 lattice: at each point y_k = sum over color-k vertices of
    sqrt(w_i) x_{v_i}, one matrix at a time.  ``target(idx, w)`` defaults to
    the PL interpolation of the field."""
    lookups = [dict(factor.entries) for factor in fd.factors]
    size = fld.matrix_size
    residual = norm_sq = 0.0
    for idx, simplex in enumerate(fld.complex.maximal_simplices):
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
    # vertex 4 lies in no simplex: its factor must not count in any norm
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


@pytest.mark.parametrize("case", range(3), ids=_CASE_IDS)
def test_decompose_field_matches_the_pointwise_reference(case):
    fld, coloring = _reference_cases()[case]
    fd = decompose_field(fld, coloring)
    residual, norm_sq = _pointwise_reference(fd, fld)
    measured = {check.name: check.measured_value for check in fd.report.bound_checks}
    assert fd.sup_norm == max(operator_norm(v) for v in fld.values)
    assert measured["grid_residual"] == pytest.approx(residual, abs=1e-13 * fd.sup_norm)
    assert fd.report.residual_norm == measured["grid_residual"]
    assert measured["max_factor_norm_sq"] == pytest.approx(norm_sq, rel=1e-12)
    isolated = [v for v in range(fld.complex.vertex_count)
                if all(v not in s for s in fld.complex.maximal_simplices)]
    for v in isolated:
        x = dict(fd.factors[coloring.colors[v]].entries)[v]
        assert operator_norm(x) ** 2 > 2.0 * measured["max_factor_norm_sq"]

    # against a non-PL target the residual is far from rounding
    def bent(idx, w):
        return fld.value_at(idx, w) + float(np.prod(w)) * np.eye(fld.matrix_size)

    expected = _pointwise_reference(fd, fld, bent)[0]
    assert expected > 1e-3
    assert field_residual_against(fd, fld, bent) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("case", range(3), ids=_CASE_IDS)
def test_decompose_field_residual_of_wrong_factors_matches_the_reference(case, monkeypatch):
    # scaling vertex v's factor by 1 + v/100 gives every simplex its own
    # residual, far from rounding, so each one has to be measured
    exact = ozfield.self_commutator_decompose
    calls = itertools.count()

    def scaled(value):
        return types.SimpleNamespace(
            factors=[(1.0 + 0.01 * next(calls)) * exact(value).factors[0]])

    monkeypatch.setattr(ozfield, "self_commutator_decompose", scaled)
    fld, coloring = _reference_cases()[case]
    fd = decompose_field(fld, coloring)
    residual, norm_sq = _pointwise_reference(fd, fld)
    assert residual > 1e-3
    assert fd.report.residual_norm == pytest.approx(residual, rel=1e-12)
    measured = {check.name: check.measured_value for check in fd.report.bound_checks}
    assert measured["max_factor_norm_sq"] == pytest.approx(norm_sq, rel=1e-12)


def test_mesh_refinement_script_prints_its_table():
    from helpers import circle_refinement_residual, run_script
    stdout = run_script("mesh_refinement.py", "--levels", "2")
    header, *rows = [line.split() for line in stdout.splitlines()]
    assert header == ["vertices", "residual", "ratio"]
    assert [row[0] for row in rows] == ["8", "16"]
    coarse, fine = (float(row[1]) for row in rows)
    assert fine == pytest.approx(circle_refinement_residual(16), rel=1e-6)
    assert float(rows[1][2]) == pytest.approx(fine / coarse, abs=1e-3)
