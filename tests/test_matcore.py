import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import random_unitary
from tracezero.errors import InvalidInputError
from tracezero.matcore import (
    BoundCheck,
    VerificationReport,
    commutator,
    hermitian_eig,
    is_hermitian,
    max_operator_norm,
    operator_norm,
)
from tracezero.rand import SplitMix64, random_complex_matrix


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

    def test_zero_and_empty_take_no_svd(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an SVD of a zero matrix")

        monkeypatch.setattr(np.linalg, "norm", refuse)
        assert operator_norm(np.zeros((3, 3))) == 0.0
        assert operator_norm(np.full((2, 2), -0.0 - 0.0j)) == 0.0
        assert operator_norm(np.zeros((0, 0))) == 0.0
        with pytest.raises(AssertionError):
            operator_norm(np.diag([0.0, 5e-324]))

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
def scaled_matrices(draw, n=None):
    """Matrices over the whole float range: full rank or rank 1 at scales
    1e-300..1e300, the zero matrix, and matrices of subnormal entries; n x n
    for a given n, else of a drawn size."""
    n = draw(st.integers(1, 4)) if n is None else n
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


@st.composite
def scaled_stacks(draw):
    """Stacks of 0 to 8 same-size scaled_matrices, some of them repeated."""
    n = draw(st.integers(1, 4))
    mats = draw(st.lists(scaled_matrices(n), max_size=8))
    mats += [mats[i] for i in draw(st.lists(st.integers(0, len(mats) - 1), max_size=3))
             ] if mats else []
    return np.array(mats, dtype=complex).reshape(len(mats), n, n)


def _svd_max(stack):
    return max((operator_norm(m) for m in stack), default=None)


class TestMaxOperatorNorm:
    FLOORS = {
        "none": None,
        "zero": lambda top: 0.0,
        "max": lambda top: top,
        "ulp above": lambda top: float(np.nextafter(top, np.inf)),
        "ulp below": lambda top: float(np.nextafter(top, 0.0)),
        "above every norm": lambda top: 2.0 * top + 1.0,
    }

    def _check(self, stack, floor_name):
        top = _svd_max(stack)
        floor = self.FLOORS[floor_name]
        if floor is None:
            assert max_operator_norm(stack) == (0.0 if top is None else top)
            return
        f = floor(0.0 if top is None else top)
        expected = f if top is None else max(f, top)
        assert max(f, max_operator_norm(stack)) == expected

    @settings(max_examples=400, deadline=None)
    @given(scaled_stacks(), st.sampled_from(sorted(FLOORS)))
    def test_equals_the_largest_svd_norm(self, stack, floor_name):
        self._check(stack, floor_name)

    @pytest.mark.parametrize("floor_name", sorted(FLOORS))
    @pytest.mark.parametrize("stack", [
        np.zeros((3, 2, 2), dtype=complex),
        # subnormal entries: the squares underflow, so the Frobenius sum is 0
        np.full((2, 3, 3), 5e-324, dtype=complex) * np.array([1, 3])[:, None, None],
        # 1e200 entries: the squares overflow
        np.array([1e200 * np.eye(3), 2e200 * np.eye(3), np.ones((3, 3))], dtype=complex),
        # rank 1: the Frobenius and operator norms agree
        np.array([np.outer([1, 2], [3, 1j]), np.outer([2, 1], [1, 1])], dtype=complex),
        # exact ties
        np.array([np.diag([1.0, -1.0]), np.diag([-1.0, 1.0]), np.diag([1.0, 0.0])],
                 dtype=complex),
        np.zeros((0, 4, 4), dtype=complex),
    ], ids=["zero", "subnormal", "overflowing", "rank-1", "ties", "empty"])
    def test_edge_stacks(self, stack, floor_name):
        self._check(stack, floor_name)


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

    def test_stack_is_each_matrix_alone(self):
        rng = SplitMix64(8)
        stack = np.array([random_complex_matrix(rng, 5) for _ in range(6)])
        stack = stack + stack.conj().transpose(0, 2, 1)
        stack[2] = 0.0
        es = hermitian_eig(stack)
        for k, a in enumerate(stack):
            alone = hermitian_eig(a)
            assert es.eigenvalues[k].tobytes() == alone.eigenvalues.tobytes()
            assert es.unitary[k].tobytes() == alone.unitary.tobytes()

    @pytest.mark.parametrize("rows, error", [
        (["good", "not hermitian", "good", "not finite"], "matrix is not Hermitian"),
        (["good", "not finite", "not hermitian"], "matrix has non-finite entries"),
        (["good", "out of range", "not hermitian"], "matrix has entries beyond about 8.988e"),
        (["good", "not hermitian", "out of range"], "matrix is not Hermitian"),
        (["good", "norm out of range", "not hermitian"], "matrix has norm beyond 8.988e"),
        (["good", "not hermitian", "norm out of range"], "matrix is not Hermitian"),
    ])
    def test_stack_raises_for_its_first_failing_matrix(self, rows, error):
        matrices = {"good": np.diag([1.0, -1.0]), "not hermitian": [[0.0, 1.0], [0.0, 0.0]],
                    "not finite": np.diag([np.inf, 0.0]),
                    "out of range": [[0.0, 1e308], [1e308, 0.0]],
                    "norm out of range": [[8e307, 8e307], [8e307, -8e307]]}
        with pytest.raises(InvalidInputError, match=error) as info:
            hermitian_eig(np.array([matrices[r] for r in rows], dtype=complex))
        assert info.value.index == 1


    def test_entries_just_inside_the_range_decompose(self):
        half_max = np.finfo(float).max / 2  # m + m* overflows above it
        es = hermitian_eig(np.diag([half_max, -half_max]).astype(complex))
        np.testing.assert_allclose(es.eigenvalues, [-half_max, half_max], rtol=1e-15)
        with pytest.raises(InvalidInputError, match="where m \\+ m\\* overflows a float"):
            hermitian_eig(np.diag([1.0, -1.0]) * np.nextafter(half_max, np.inf))


class TestVerificationReport:
    def test_failed_bound_is_reported(self):
        within = BoundCheck("reconstruction_residual", 1e-9, 1e-9 + 5e-13, 1e-12)
        over = BoundCheck("norm_sq_over_norm_a", 2.0, 4.0, 0.0)
        assert within.passed and not over.passed
        assert VerificationReport([within]).all_passed
        report = VerificationReport([within, over])
        assert not report.all_passed
        assert report.to_json()["all_passed"] is False
        assert [c["passed"] for c in report.to_json()["bound_checks"]] == [True, False]


def test_is_hermitian_tolerance():
    a = np.eye(2, dtype=complex)
    a[0, 1] = 1e-14
    assert is_hermitian(a)
    a[0, 1] = 1e-3
    assert not is_hermitian(a)


def unscaled_hermitian_rule(m):
    """max |m - m*| <= HERMITIAN_TOL * max |m| + TINY as written, TINY the
    smallest normal float, or None where a side overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = np.max(np.abs(m - m.conj().T), initial=0.0)
        rhs = 1e-12 * np.max(np.abs(m), initial=0.0) + np.finfo(float).tiny
    return bool(lhs <= rhs) if np.isfinite(lhs) and np.isfinite(rhs) else None


@given(st.integers(2, 4), st.integers(-320, 308), st.integers(-16, 0), st.integers(0, 2 ** 32))
@settings(max_examples=300, deadline=None)
@example(2, 307, -12, 0)   # near the boundary at the top of the range
@example(2, -315, -3, 1)   # subnormal entries
def test_is_hermitian_keeps_the_unscaled_verdict(n, exponent, defect_exponent, seed):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (h + h.conj().T) / 2 + 10.0 ** defect_exponent * rng.standard_normal((n, n))
    with np.errstate(over="ignore"):
        m = h * 10.0 ** exponent
    expected = unscaled_hermitian_rule(m) if np.isfinite(m).all() else None
    if expected is not None:
        assert is_hermitian(m) == expected


def test_is_hermitian_does_not_overflow():
    skew = np.array([[0.0, 1e308], [-1e308, 0.0]])
    imaginary_diagonal = np.diag([1.7e308 + 1.7e308j, 0.0])
    with np.errstate(all="raise"):
        assert not is_hermitian(skew)
        # unscaled, both sides overflow to inf and inf <= inf called it Hermitian
        assert not is_hermitian(imaginary_diagonal)
