import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    random_unitary,
    reconstruction_error,
    reference_self_commutator,
    reference_signed_order,
    run_script,
)
from tracezero.errors import InvalidInputError
from tracezero.matcore import (
    PHASE_CUTOFF,
    commutator,
    hermitian_eig,
    operator_norm,
)
from tracezero.rand import SplitMix64, random_trace_zero_hermitian
from tracezero.selfcomm import (
    greedy_nonneg_order,
    self_commutator_decompose,
    self_commutator_factors,
    signed_order,
    tight_commutator_decompose,
)


def zero_sum_multisets(max_size, lo=-5, hi=5):
    """All deduplicated integer multisets with entries in [lo, hi] and sum 0."""
    for size in range(2, max_size + 1):
        for combo in itertools.combinations_with_replacement(range(lo, hi + 1), size):
            if sum(combo) == 0:
                yield combo


class TestGreedyOrder:
    def test_two_point(self):
        order = greedy_nonneg_order([1.0, -1.0])
        assert order.permutation == (0, 1)
        np.testing.assert_allclose(order.partial_sums, [1.0, 0.0])

    def test_all_zero(self):
        order = greedy_nonneg_order([0.0, 0.0, 0.0])
        assert order.permutation == (0, 1, 2)
        np.testing.assert_allclose(order.partial_sums, [0.0, 0.0, 0.0])

    def test_spread(self):
        order = greedy_nonneg_order([3.0, -1.0, -1.0, -1.0])
        assert order.permutation == (0, 1, 2, 3)
        np.testing.assert_allclose(order.partial_sums, [3.0, 2.0, 1.0, 0.0])
        assert np.max(order.partial_sums) <= 2 * 3.0

    def test_orders_a_nonzero_sum(self):
        # the rule orders any multiset; the window is a theorem of zero sums
        order = greedy_nonneg_order([1.0, 2.0, 1.0])
        assert order.permutation == (1, 0, 2)
        np.testing.assert_array_equal(order.partial_sums, [2.0, 3.0, 4.0])

    def test_exhaustive_small_scale(self):
        for combo in zero_sum_multisets(6):
            lam = np.array(combo, dtype=float)
            mx = np.max(np.abs(lam))
            s = greedy_nonneg_order(lam).partial_sums
            assert np.min(s) >= -1e-12
            assert np.max(s) <= 2 * mx + 1e-12

    def test_permutation_oracle_on_square_window(self):
        # oracle: enumerate every ordering of (1, 1, -1, -1) whose partial
        # sums stay nonnegative; none beats max partial sum = max|value|,
        # so the window cannot shrink below [0, max]; the greedy witness
        # (4, 4, -3, -5) shows it must widen past [0, max] as well.
        values = (1, 1, -1, -1)
        best = np.inf
        for perm in itertools.permutations(values):
            sums = np.cumsum(perm)
            if np.min(sums) >= 0:
                best = min(best, np.max(sums))
        assert best == 1.0  # == max|value|
        s = greedy_nonneg_order([4.0, 4.0, -3.0, -5.0]).partial_sums
        assert np.max(s) > 5.0  # greedy exceeds max|value| here...
        assert np.max(s) <= 2 * 5.0  # ...but never the doubled window

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=7))
    @settings(max_examples=200, deadline=None)
    def test_property_windows(self, values):
        values = values + [-sum(values)]
        if max(abs(v) for v in values) == 0:
            return
        lam = np.array(values, dtype=float)
        mx = np.max(np.abs(lam))
        g = greedy_nonneg_order(lam).partial_sums
        assert np.min(g) >= -1e-12 and np.max(g) <= 2 * mx + 1e-12
        s = signed_order(lam).partial_sums
        assert np.max(np.abs(s)) <= mx + 1e-12


class TestSignedOrder:
    def test_two_point(self):
        order = signed_order([1.0, -1.0])
        np.testing.assert_allclose(order.partial_sums, [1.0, 0.0])

    def test_boundary_equality(self):
        order = signed_order([2.0, -1.0, -1.0])
        assert order.permutation == (0, 1, 2)
        np.testing.assert_allclose(order.partial_sums, [2.0, 1.0, 0.0])
        assert np.max(np.abs(order.partial_sums)) <= 2.0

    def test_alternating(self):
        order = signed_order([1.0, 1.0, -2.0])
        assert order.permutation == (0, 2, 1)
        np.testing.assert_allclose(order.partial_sums, [1.0, -1.0, 0.0])

    def test_exhaustive_small_scale(self):
        for combo in zero_sum_multisets(6):
            lam = np.array(combo, dtype=float)
            mx = np.max(np.abs(lam))
            s = signed_order(lam).partial_sums
            assert np.max(np.abs(s)) <= mx + 1e-12

    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -3.0, 1e-300]),
                    min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_masked_argmax_matches_the_list_scan(self, values):
        # ties, signed zeros and repeated values: the first occurrence wins
        lam = np.array(values + [-sum(values)])
        order = signed_order(lam)
        assert order.permutation == tuple(reference_signed_order(lam))
        assert order.partial_sums.tobytes() == np.cumsum(lam[list(order.permutation)]).tobytes()
        rows = signed_order(np.stack([lam, lam[::-1]]))
        assert rows.permutation[0].tolist() == list(order.permutation)
        assert rows.permutation[1].tolist() == reference_signed_order(lam[::-1])


class TestSelfCommutatorDecompose:
    def test_two_by_two(self):
        dec = self_commutator_decompose(np.diag([1.0, -1.0]).astype(complex))
        x = dec.factors[0]
        np.testing.assert_allclose(x, [[0, 0], [1, 0]], atol=1e-12)

    def test_zero_matrix(self):
        dec = self_commutator_decompose(np.zeros((3, 3)))
        assert operator_norm(dec.factors[0]) == 0.0

    def test_weighted_shift_example(self):
        # oracle: [x*, x] = diag(3,-1,-1,-1) for x = sqrt(3) e21 + sqrt(2) e32 + e43
        a = np.diag([3.0, -1.0, -1.0, -1.0]).astype(complex)
        dec = self_commutator_decompose(a)
        x = dec.factors[0]
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 0] = np.sqrt(3.0)
        expected[2, 1] = np.sqrt(2.0)
        expected[3, 2] = 1.0
        np.testing.assert_allclose(x, expected, atol=1e-12)
        np.testing.assert_allclose(commutator(x.conj().T, x), a, atol=1e-12)

    def test_random_family_bounds(self):
        rng = SplitMix64(20)
        for trial in range(100):
            n = 2 + trial % 15
            a = random_trace_zero_hermitian(rng, n)
            dec = self_commutator_decompose(a)
            x = dec.factors[0]
            a_norm = operator_norm(a)
            assert operator_norm(a - commutator(x.conj().T, x)) <= 1e-9 * max(1.0, a_norm)
            assert operator_norm(x) ** 2 <= 2 * a_norm + 1e-9
            err = reconstruction_error(a, dec)
            assert err <= 1e-9 * max(1.0, a_norm)
            assert dec.report.bound_checks[0].measured_value == pytest.approx(err, abs=1e-15)
            assert dec.report.all_passed

    def test_report_of_an_exact_factor(self):
        a = np.diag([1.0, -1.0]).astype(complex)
        dec = self_commutator_decompose(a)
        assert reconstruction_error(a, dec) == 0.0
        assert len(dec.factors) == 1
        assert [(c.name, c.claimed_bound, c.measured_value) for c in dec.report.bound_checks] \
            == [("reconstruction_residual", 1e-9, 0.0), ("norm_sq_over_norm_a", 2.0, 1.0)]
        assert dec.report.all_passed

    def test_unitary_covariance(self):
        rng = SplitMix64(21)
        a = random_trace_zero_hermitian(rng, 7)
        u = random_unitary(rng, 7)
        d1 = self_commutator_decompose(a)
        d2 = self_commutator_decompose(u @ a @ u.conj().T)
        n1 = operator_norm(d1.factors[0]) ** 2
        n2 = operator_norm(d2.factors[0]) ** 2
        assert abs(n1 - n2) <= 1e-8

    def test_rejects_nonzero_trace(self):
        # by its report: the factors decompose a - (tr a/n)*1, so they leave
        # (tr a/n)*1, the least any sum of commutators can leave, and the
        # reconstruction claim fails on it; the tight form leaves the same
        a = np.diag([3.0, -1.0, 0.5]).astype(complex)
        self_dec, tight_dec = self_commutator_decompose(a), tight_commutator_decompose(a)
        x = self_dec.factors[0]
        for dec, comm in [(self_dec, commutator(x.conj().T, x)),
                          (tight_dec, commutator(*tight_dec.factors[0]))]:
            np.testing.assert_allclose(a - comm, (2.5 / 3) * np.eye(3), atol=1e-15)
            residual = dec.report.bound_checks[0]
            assert residual.name == "reconstruction_residual"
            assert residual.measured_value == pytest.approx(2.5 / 3, rel=1e-15)
            assert not residual.passed and dec.report.bound_checks[1].passed
            assert not dec.report.all_passed


@st.composite
def hermitian_stacks(draw):
    """1 to 6 trace-zero Hermitian n x n matrices, n from 1 to 6, each drawn
    apart: random at a scale from 1e-12 to 1e12, so a stack mixes scales;
    repeated integer eigenvalues, diagonal or rotated; zero; or a diagonal
    of +-0.0 entries, with a +-1 pair when n > 1, whose eigenvalues tie at
    +-0.0."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mats = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["random", "repeated", "rotated", "zero", "signed zeros"]))
        if kind == "random":
            h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = (h + h.conj().T) / 2.0 - np.trace(h).real / n * np.eye(n)
            mats.append(h * 10.0 ** draw(st.integers(-12, 12)))
        elif kind in ("repeated", "rotated"):
            spectrum = rng.integers(-2, 3, n).astype(float)
            spectrum[-1] = -spectrum[:-1].sum()
            q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
            a = (q * spectrum) @ q.conj().T if kind == "rotated" else np.diag(spectrum)
            mats.append((a + a.conj().T) / 2.0)
        elif kind == "zero":
            mats.append(np.zeros((n, n)))
        else:
            diagonal = [draw(st.sampled_from([0.0, -0.0])) for _ in range(n)]
            if n > 1:
                diagonal[0], diagonal[1] = 1.0, -1.0
            a = np.diag(diagonal).astype(complex)
            a.imag = draw(st.sampled_from([0.0, -0.0]))
            mats.append(a)
    return np.array(mats, dtype=complex)


class TestStackedSelfCommutator:
    @given(hermitian_stacks())
    @settings(max_examples=200, deadline=None)
    def test_stack_matches_the_per_matrix_reference(self, stack):
        x, norms = self_commutator_factors(stack)
        lam = hermitian_eig(stack).eigenvalues
        order = greedy_nonneg_order(lam - lam.mean(axis=1, keepdims=True))
        for v, a in enumerate(stack):
            expected, perm = reference_self_commutator(a)
            assert x[v].view(float).tobytes() == expected.view(float).tobytes()
            assert order.permutation[v].tolist() == perm
            assert norms[v] == np.max(np.abs(np.linalg.eigh((a + a.conj().T) / 2.0)[0]))

    def test_phase_pivot_is_divided_by_its_hypot(self):
        # np.abs of one of this matrix's pivots differs from hypot in the
        # last bit, and the factor with it differs from the reference
        a = np.array([[-6.0, 4j, -2.0], [-4j, 0.0, -4j], [-2.0, 4j, 6.0]])
        u = np.linalg.eigh(a)[1]
        pivots = u[np.argmax(np.abs(u) > PHASE_CUTOFF, axis=0), range(3)]
        assert np.any(np.abs(pivots) != np.hypot(pivots.real, pivots.imag))
        x, _ = self_commutator_factors(a[None])
        assert x[0].view(float).tobytes() == reference_self_commutator(a)[0].view(float).tobytes()

    @given(st.lists(st.sampled_from(["good", "not hermitian", "traced"]), min_size=1,
                    max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_stack_raises_what_the_first_failing_matrix_raises(self, kinds):
        # a traced matrix raises nothing: its reconstruction claim judges it
        stack = []
        for v, kind in enumerate(kinds):
            a = np.diag([1.0, -1.0 + (0.01 * (v + 1) if kind == "traced" else 0.0)])
            a = a.astype(complex)
            a[0, 1] = 0.5 if kind == "not hermitian" else 0.0
            stack.append(a)
        expected = None
        for a in stack:
            try:
                self_commutator_decompose(a)
            except InvalidInputError as err:
                expected = err
                break
        if expected is None:
            self_commutator_factors(np.array(stack))
            return
        with pytest.raises(type(expected)) as info:
            self_commutator_factors(np.array(stack))
        assert str(info.value) == str(expected)


class TestTightCommutatorDecompose:
    def test_two_by_two(self):
        dec = tight_commutator_decompose(np.diag([1.0, -1.0]).astype(complex))
        x, y = dec.factors[0]
        np.testing.assert_allclose(x, [[0, 1], [0, 0]], atol=1e-12)
        np.testing.assert_allclose(y, [[0, 0], [1, 0]], atol=1e-12)
        assert operator_norm(x) * operator_norm(y) <= 1.0 + 1e-9

    def test_zero_matrix(self):
        dec = tight_commutator_decompose(np.zeros((2, 2)))
        x, y = dec.factors[0]
        assert operator_norm(x) == 0.0 and operator_norm(y) == 0.0

    def test_conjugated_case(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        dec = tight_commutator_decompose(a)
        x, y = dec.factors[0]
        np.testing.assert_allclose(commutator(x, y), a, atol=1e-12)
        assert operator_norm(x) * operator_norm(y) <= operator_norm(a) + 1e-9

    @pytest.mark.parametrize("a, message", [
        (np.diag([1.0, -1.0]), None),
        (np.array([[0.0, 1.0], [0.0, 0.0]]),
         "a is not Hermitian within 1e-12 of its largest entry"),
        (np.diag([np.nan, 0.0]), "a has non-finite entries"),
    ], ids=["hermitian", "not-hermitian", "non-finite"])
    def test_takes_one_hermitian_check(self, monkeypatch, a, message):
        from tracezero import matcore
        calls = []
        each = matcore._hermitian_each
        monkeypatch.setattr(matcore, "_hermitian_each", lambda m: calls.append(m) or each(m))
        if message is None:
            tight_commutator_decompose(a)
        else:
            with pytest.raises(InvalidInputError) as error:
                tight_commutator_decompose(a)
            assert str(error.value) == message
        assert len(calls) == 1

    def test_random_family_bounds(self):
        rng = SplitMix64(22)
        for trial in range(100):
            n = 2 + trial % 15
            a = random_trace_zero_hermitian(rng, n)
            dec = tight_commutator_decompose(a)
            x, y = dec.factors[0]
            a_norm = operator_norm(a)
            assert operator_norm(a - commutator(x, y)) <= 1e-9 * max(1.0, a_norm)
            assert operator_norm(x) * operator_norm(y) <= a_norm + 1e-9
            err = reconstruction_error(a, dec)
            assert err <= 1e-9 * max(1.0, a_norm)
            assert dec.report.bound_checks[0].measured_value == pytest.approx(err, abs=1e-15)
            assert dec.report.all_passed


def test_decompose_random_script_prints_json():
    doc = json.loads(run_script("decompose_random.py", "--count", "5", "--size", "6"))
    assert (doc["count"], doc["size"], len(doc["rows"])) == (5, 6, 5)
    assert doc["worst_self_ratio"] <= 2.0 + 1e-9
    assert doc["worst_tight_ratio"] <= 1.0 + 1e-9
