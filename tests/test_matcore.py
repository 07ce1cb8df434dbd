import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracezero.errors import InvalidInputError
from tracezero.matcore import (
    KIND_SELF,
    CommutatorDecomposition,
    commutator,
    frobenius_bound,
    hermitian_eig,
    is_hermitian,
    norm_exceeds,
    operator_norm,
    verify_decomposition,
)
from tracezero.rand import SplitMix64, random_complex_matrix, random_unitary


def unit(i, j, n):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


class TestCommutator:
    def test_rank_one_shift_identity(self):
        c = commutator(unit(0, 1, 2), unit(1, 0, 2))
        np.testing.assert_allclose(c, np.diag([1.0, -1.0]))

    def test_self_bracket_vanishes(self):
        rng = SplitMix64(1)
        x = random_complex_matrix(rng, 5)
        assert operator_norm(commutator(x, x)) == 0.0

    def test_random_pair_has_zero_trace(self):
        # oracle: direct summation of the diagonal
        rng = SplitMix64(2)
        x = random_complex_matrix(rng, 4)
        y = random_complex_matrix(rng, 4)
        c = commutator(x, y)
        assert abs(sum(c[i, i] for i in range(4))) <= 1e-12 * (
            1 + operator_norm(x) * operator_norm(y))

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            commutator(np.eye(2), np.eye(3))

    @given(st.lists(st.integers(-5, 5), min_size=8, max_size=8),
           st.lists(st.integers(-5, 5), min_size=8, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_trace_property(self, xs, ys):
        x = np.array(xs, dtype=complex).reshape(2, 4)[:, :2]
        y = np.array(ys, dtype=complex).reshape(2, 4)[:, :2]
        c = commutator(x, y)
        n = 2
        bound = 1e-10 * n * (1 + operator_norm(x) * operator_norm(y))
        assert abs(np.trace(c)) <= bound


class TestOperatorNorm:
    def test_diagonal(self):
        assert operator_norm(np.diag([3.0, -1.0])) == pytest.approx(3.0)

    def test_zero(self):
        assert operator_norm(np.zeros((3, 3))) == 0.0

    def test_symmetric_shift(self):
        # eigenvalues of [[0,1],[1,0]] are +-1 by direct solve
        assert operator_norm(unit(0, 1, 2) + unit(1, 0, 2)) == pytest.approx(1.0)

    def test_unitary_invariance(self):
        rng = SplitMix64(3)
        a = random_complex_matrix(rng, 6)
        for seed in range(5):
            u = random_unitary(SplitMix64(100 + seed), 6)
            assert operator_norm(u @ a @ u.conj().T) == pytest.approx(
                operator_norm(a), rel=1e-9)


@st.composite
def scaled_matrices(draw):
    """Matrices over the whole float range: full rank or rank 1 at scales
    1e-300..1e300, the zero matrix, and matrices of subnormal entries."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["full", "rank1", "zero", "subnormal"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "zero":
        return np.zeros((n, n), dtype=complex)
    if kind == "subnormal":
        return (rng.integers(-3, 4, (n, n)) + 1j * rng.integers(-3, 4, (n, n))) * 5e-324
    u = rng.standard_normal((n, 2)) @ [1.0, 1j]
    v = rng.standard_normal((n, 2)) @ [1.0, 1j]
    base = (np.outer(u, v.conj()) if kind == "rank1"
            else rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return base * 10.0 ** draw(st.integers(-300, 300))


def exact_frobenius(m):
    return math.hypot(*np.abs(m).ravel())  # scaled: no squares underflow or overflow


class TestFrobeniusScreen:
    BOUNDS = {
        "norm": operator_norm,
        "ulp above": lambda m: float(np.nextafter(operator_norm(m), np.inf)),
        "ulp below": lambda m: float(np.nextafter(operator_norm(m), 0.0)),
        "frobenius": exact_frobenius,
        "zero": lambda m: 0.0,
    }

    @settings(max_examples=400, deadline=None)
    @given(scaled_matrices(), st.sampled_from(sorted(BOUNDS)))
    @example(1e-170 * np.eye(3, dtype=complex), "ulp below")
    @example(1e200 * np.eye(3, dtype=complex), "ulp below")
    @example(np.full((2, 2), 5e-324, dtype=complex), "zero")
    def test_decides_exactly_as_the_svd(self, m, bound_name):
        b = self.BOUNDS[bound_name](m)
        assert norm_exceeds(m, b) == (operator_norm(m) > b)

    @settings(max_examples=200, deadline=None)
    @given(scaled_matrices())
    def test_bound_is_sound(self, m):
        assert frobenius_bound(m) >= operator_norm(m)

    def test_underflowed_squares_go_to_the_svd(self):
        assert norm_exceeds(1e-170 * np.eye(3), 1e-171)
        assert frobenius_bound(np.full((2, 2), 5e-324)) == np.inf

    def test_overflowed_squares_go_to_the_svd(self):
        assert norm_exceeds(1e200 * np.eye(3), 1e199)
        assert frobenius_bound(1e200 * np.eye(3)) == np.inf

    def test_zero_only_for_the_zero_matrix(self):
        assert frobenius_bound(np.zeros((3, 3), dtype=complex)) == 0.0
        assert frobenius_bound(np.zeros((0, 0))) == 0.0
        assert not norm_exceeds(np.zeros((3, 3)), 0.0)


class TestHermitianEig:
    def test_identity(self):
        es = hermitian_eig(np.eye(3, dtype=complex))
        np.testing.assert_allclose(es.eigenvalues, [1.0, 1.0, 1.0])

    def test_diagonal_sorted(self):
        es = hermitian_eig(np.diag([-1.0, 2.0]).astype(complex))
        np.testing.assert_allclose(es.eigenvalues, [-1.0, 2.0])
        np.testing.assert_allclose(es.unitary, np.eye(2), atol=1e-12)

    def test_symmetric_shift_spectrum(self):
        # characteristic polynomial x^2 - 1 = 0 by hand
        es = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        np.testing.assert_allclose(es.eigenvalues, [-1.0, 1.0], atol=1e-12)

    def test_reconstruction_and_unitarity(self):
        rng = SplitMix64(4)
        a = random_complex_matrix(rng, 8)
        a = (a + a.conj().T) / 2
        es = hermitian_eig(a)
        recon = (es.unitary * es.eigenvalues) @ es.unitary.conj().T
        assert operator_norm(a - recon) <= 1e-10 * max(1.0, operator_norm(a))
        assert operator_norm(es.unitary @ es.unitary.conj().T - np.eye(8)) <= 1e-10

    def test_phase_convention(self):
        rng = SplitMix64(5)
        a = random_complex_matrix(rng, 6)
        a = (a + a.conj().T) / 2
        u = hermitian_eig(a).unitary
        for j in range(6):
            col = u[:, j]
            lead = col[np.flatnonzero(np.abs(col) > 1e-8)[0]]
            assert abs(lead.imag) <= 1e-12
            assert lead.real > 0

    def test_deterministic(self):
        rng = SplitMix64(6)
        a = random_complex_matrix(rng, 7)
        a = (a + a.conj().T) / 2
        e1 = hermitian_eig(a)
        e2 = hermitian_eig(a.copy())
        assert np.array_equal(e1.eigenvalues, e2.eigenvalues)
        assert np.array_equal(e1.unitary, e2.unitary)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidInputError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


class TestVerifyDecomposition:
    def test_exact_self_factor(self):
        a = np.diag([1.0, -1.0]).astype(complex)
        dec = CommutatorDecomposition(
            kind=KIND_SELF, factors=[unit(1, 0, 2)], residual=np.zeros((2, 2)),
            claimed_bounds=[("reconstruction_residual", 1e-9),
                            ("norm_sq_over_norm_a", 2.0)])
        report = verify_decomposition(a, dec)
        assert report.residual_norm == 0.0
        assert report.all_passed
        assert report.commutator_count == 1

    def test_empty_factors_residual_is_norm(self):
        a = np.diag([2.0, -2.0]).astype(complex)
        dec = CommutatorDecomposition(kind=KIND_SELF, factors=[], residual=a.copy(),
                                      claimed_bounds=[("reconstruction_residual", 1e-9)])
        report = verify_decomposition(a, dec)
        assert report.residual_norm == pytest.approx(2.0)
        assert report.all_passed

    def test_dimension_mismatch(self):
        a = np.diag([1.0, -1.0]).astype(complex)
        dec = CommutatorDecomposition(kind=KIND_SELF, factors=[np.zeros((3, 3))],
                                      residual=np.zeros((2, 2)), claimed_bounds=[])
        with pytest.raises(InvalidInputError):
            verify_decomposition(a, dec)

    def test_failed_bound_is_reported(self):
        a = np.diag([1.0, -1.0]).astype(complex)
        dec = CommutatorDecomposition(
            kind=KIND_SELF, factors=[2.0 * unit(1, 0, 2)], residual=np.zeros((2, 2)),
            claimed_bounds=[("reconstruction_residual", 1e-9)])
        report = verify_decomposition(a, dec)
        assert not report.all_passed


def test_is_hermitian_tolerance():
    a = np.eye(2, dtype=complex)
    a[0, 1] = 1e-14
    assert is_hermitian(a)
    a[0, 1] = 1e-3
    assert not is_hermitian(a)
