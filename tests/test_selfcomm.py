import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_collapse, run_script
from tracezero.errors import InvalidInputError, NumericsError, PreconditionError
from tracezero.matcore import commutator, operator_norm, verify_decomposition
from tracezero.rand import SplitMix64, random_trace_zero_hermitian, random_unitary
from tracezero.selfcomm import (
    collapse_orthogonal,
    greedy_nonneg_order,
    self_commutator_decompose,
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

    def test_rejects_nonzero_sum(self):
        with pytest.raises(InvalidInputError):
            greedy_nonneg_order([1.0, 1.0])

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
            assert verify_decomposition(a, dec).all_passed

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
        with pytest.raises(InvalidInputError):
            self_commutator_decompose(np.eye(2, dtype=complex))


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


_ENTRIES = st.sampled_from([0.0, -0.0, 1e-170, -1e-170, 1e-11, 0.5, -1.0, 2.0])


@st.composite
def block_sparse_pairs(draw):
    """1 to 4 pairs (c, d) of n x n matrices.  The rows and the columns of
    each matrix of pair i are the indices pair i owns plus, sometimes, one
    more index, drawn apart for rows and columns, which another pair may own."""
    n = draw(st.integers(2, 6))
    count = draw(st.integers(1, 4))
    owner = draw(st.lists(st.integers(-1, count - 1), min_size=n, max_size=n))
    extra = st.lists(st.integers(0, n - 1), max_size=1)
    pairs = []
    for i in range(count):
        owned = [k for k in range(n) if owner[k] == i]
        pair = []
        for _ in range(2):
            m = np.zeros((n, n), dtype=complex)
            rows, cols = owned + draw(extra), owned + draw(extra)
            for row in rows:
                for col in cols:
                    m[row, col] = complex(draw(_ENTRIES), draw(_ENTRIES))
            pair.append(m)
        pairs.append(tuple(pair))
    return pairs


class TestCollapseOrthogonal:
    @given(block_sparse_pairs())
    @settings(max_examples=200, deadline=None)
    def test_screen_matches_unscreened_reference(self, pairs):
        try:
            expected = reference_collapse(pairs)
        except (PreconditionError, NumericsError) as err:
            with pytest.raises(type(err)) as info:
                collapse_orthogonal(pairs)
            assert str(info.value) == str(err)
            return
        c, d, defect = collapse_orthogonal(pairs)
        assert c.tobytes() == expected[0].tobytes()
        assert d.tobytes() == expected[1].tobytes()
        assert defect == expected[2]

    def test_single_pair(self):
        c = np.diag([1.0, 0.0]).astype(complex)
        d = np.diag([0.0, 0.0]).astype(complex)
        c2, d2, _ = collapse_orthogonal([(c, d)])
        np.testing.assert_array_equal(c2, c)
        np.testing.assert_array_equal(d2, d)

    def test_empty_list(self):
        c, d, _ = collapse_orthogonal([], dim=3)
        assert operator_norm(c) == 0.0 and operator_norm(d) == 0.0

    def test_empty_list_needs_dim(self):
        with pytest.raises(InvalidInputError):
            collapse_orthogonal([])

    def test_two_disjoint_blocks(self):
        # oracle: block direct sum, checked by multiplication
        rng = SplitMix64(23)
        pairs = []
        full = np.zeros((4, 4), dtype=complex)
        for block in range(2):
            sl = slice(2 * block, 2 * block + 2)
            c = np.zeros((4, 4), dtype=complex)
            d = np.zeros((4, 4), dtype=complex)
            sub = random_trace_zero_hermitian(rng, 2)
            c[sl, sl] = sub
            d[sl, sl] = random_trace_zero_hermitian(rng, 2)
            pairs.append((c, d))
            full += commutator(c, d)
        c, d, _ = collapse_orthogonal(pairs)
        np.testing.assert_allclose(commutator(c, d), full, atol=1e-12)

    def test_defect_is_largest_cross_product(self):
        # reference: every cross product collapse needs to vanish, measured directly
        eta = 1e-12
        c0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        d0 = np.diag([0.5, 0.0, 0.0]).astype(complex)
        c1 = np.diag([eta, 1.0, 0.0]).astype(complex)
        d1 = np.diag([0.0, 0.0, 2.0]).astype(complex)
        d1[0, 1] = eta
        pairs = [(c0, d0), (c1, d1)]
        expected = 0.0
        for i in range(2):
            for j in range(2):
                if i == j:
                    continue
                ci, di = pairs[i]
                cj, dj = pairs[j]
                for prod in (ci.conj().T @ dj, ci @ dj, ci.conj().T @ dj.conj().T,
                             ci.conj().T @ cj, ci @ cj.conj().T,
                             di.conj().T @ dj, di @ dj.conj().T):
                    expected = max(expected, operator_norm(prod))
        assert expected > 0.0
        _, _, defect = collapse_orthogonal(pairs)
        assert defect == expected

    def test_violation_names_pair(self):
        c = np.diag([1.0, 0.0]).astype(complex)
        d = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(PreconditionError, match="0 and 1"):
            collapse_orthogonal([(c, d), (c, d)])

    def test_tiny_overlap_is_measured_exactly(self):
        # 1e-170 squares to 0 in a Frobenius sum; the defect must still see it
        c0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        c1 = np.diag([1e-170, 1.0, 0.0]).astype(complex)
        d1 = np.diag([0.0, 0.0, 1.0]).astype(complex)
        _, _, defect = collapse_orthogonal([(c0, np.zeros_like(c0)), (c1, d1)])
        assert defect == 1e-170

    def test_first_violation_in_loop_order_is_named(self):
        # pairs 0, 1: c0* d1 has Frobenius norm 1.13e-10 but operator norm
        # 0.8e-10, so it passes; pairs 0, 2 (c*.d, 2e-10) fail before the
        # larger c overlap of pairs 1 and 2 (5.0)
        c0 = np.diag([1.0, 1.0, 0.0]).astype(complex)
        d1 = np.diag([0.8e-10, 0.8e-10, 0.0]).astype(complex)
        c1 = np.diag([0.0, 0.0, 5.0]).astype(complex)
        c2 = np.diag([0.0, 0.0, 1.0]).astype(complex)
        d2 = np.diag([0.0, 2e-10, 0.0]).astype(complex)
        pairs = [(c0, np.zeros_like(c0)), (c1, d1), (c2, d2)]
        with pytest.raises(PreconditionError) as info:
            collapse_orthogonal(pairs)
        assert str(info.value) == "pairs 0 and 2 are not orthogonal: c*.d != 0"


def test_decompose_random_script_prints_json():
    doc = json.loads(run_script("decompose_random.py", "--count", "5", "--size", "6"))
    assert (doc["count"], doc["size"], len(doc["rows"])) == (5, 6, 5)
    assert doc["worst_self_ratio"] <= 2.0 + 1e-9
    assert doc["worst_tight_ratio"] <= 1.0 + 1e-9
