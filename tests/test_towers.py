import numpy as np
import pytest

from helpers import run_script
from tracezero.errors import InvalidInputError, NumericsError, PreconditionError
from tracezero.matcore import commutator, operator_norm, verify_decomposition
from tracezero.rand import SplitMix64, random_complex_matrix, random_hermitian
from tracezero.towers import (
    ElementSpectrum,
    Support,
    TowerModel,
    block_two_commutator_split,
    cuntz_witness,
    make_block_tower,
    push_step,
    tower_iterate,
)


def embedded_trace_zero(rng, n, lo, hi):
    z = np.zeros((n, n), dtype=complex)
    r = hi - lo
    h = random_hermitian(rng, r)
    h -= (np.trace(h).real / r) * np.eye(r)
    z[lo:hi, lo:hi] = h
    return z


class TestRamp:
    def test_plus_mode(self):
        a = np.diag([1.0, 0.1]).astype(complex)
        np.testing.assert_allclose(ElementSpectrum.of(a, 0.5).plus.matrix,
                                   np.diag([0.5, 0.0]), atol=1e-14)

    def test_ramp_mode(self):
        a = np.diag([1.0, 0.1]).astype(complex)
        np.testing.assert_allclose(ElementSpectrum.of(a, 0.5).g.matrix,
                                   np.diag([1.0, 0.0]), atol=1e-14)

    def test_ramp_acts_as_unit_on_high_spectrum(self):
        # oracle: spectral projection onto eigenvalues > eps
        rng = SplitMix64(40)
        m = random_complex_matrix(rng, 6)
        a = m @ m.conj().T  # PSD
        eps = 0.5 * operator_norm(a)
        spec = ElementSpectrum.of(a, eps)
        g = spec.g.matrix
        p = spec.plus.projection
        assert operator_norm(g @ p - p) <= 1e-10

    def test_rejects_negative_spectrum(self):
        with pytest.raises(InvalidInputError):
            ElementSpectrum.of(np.diag([1.0, -0.5]).astype(complex), 0.2)

    def test_ramp_profile_window(self):
        from tracezero.towers import SpectralRamp
        ramp = SpectralRamp(0.5)
        assert ramp.profile(0.0) == 0.0
        assert ramp.profile(0.25) == 0.0
        assert ramp.profile(0.375) == pytest.approx(0.5)
        assert ramp.profile(0.5) == 1.0
        assert ramp.profile(2.0) == 1.0


def witness_errors(v, g, p_ap, p_b, L, K):
    """||V*V - g (x) 1_L|| and ||VV* - P_c VV* P_c||, with P_c = p_ap on the
    first L-1 diagonal blocks and p_b on the last K."""
    vstarv = np.linalg.norm(v.conj().T @ v - np.kron(np.eye(L), g), 2)
    p_c = (np.kron(np.diag([1.0] * (L - 1) + [0.0] * K), p_ap)
           + np.kron(np.diag([0.0] * (L - 1) + [1.0] * K), p_b))
    vvs = v @ v.conj().T
    return vstarv, np.linalg.norm(vvs - p_c @ vvs @ p_c, 2)


class TestCuntzWitness:
    def test_a_equals_b(self):
        a = np.diag([1.0, 0.8, 0.0]).astype(complex)
        wit = cuntz_witness(ElementSpectrum.of(a, 0.1), Support.of(a), 1, 1)
        # g = g_{0.05}(a) and the supports of (a - 0.1)_+ and a: all diag(1, 1, 0)
        p = np.diag([1.0, 1.0, 0.0])
        vstarv, range_error = witness_errors(wit.V, p, p, p, 1, 1)
        assert vstarv <= 1e-12
        assert range_error <= 1e-12

    def test_two_by_two_swap(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        wit = cuntz_witness(ElementSpectrum.of(a, 0.1), Support.of(b), 1, 1)
        # V = e21 up to phase: single nonzero entry of modulus 1 at (1, 0)
        np.testing.assert_allclose(np.abs(wit.V), [[0.0, 0.0], [1.0, 0.0]], atol=1e-12)

    def test_rank_failure(self):
        with pytest.raises(PreconditionError, match="rank comparison"):
            cuntz_witness(ElementSpectrum.of(np.eye(2, dtype=complex), 0.1),
                          Support.of(np.diag([1.0, 0.0]).astype(complex)), 1, 1)

    @pytest.mark.parametrize("L", [1, 2, 3])
    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_invariants_on_block_models(self, L, K):
        rng = SplitMix64(41)
        r_b = 2
        r_a = K * r_b
        n = r_a + r_b
        a = np.zeros((n, n), dtype=complex)
        a[:r_a, :r_a] = np.eye(r_a)
        b = np.zeros((n, n), dtype=complex)
        b[r_a:, r_a:] = np.eye(r_b)
        wit = cuntz_witness(ElementSpectrum.of(a, 0.5), Support.of(b), L, K)
        # a and b are projections, so g = (a - 0.5)_+'s support projection = a
        vstarv, range_error = witness_errors(wit.V, a, a, b, L, K)
        assert vstarv <= 1e-8
        assert range_error <= 1e-8
        assert np.kron(np.eye(L), np.eye(n)).shape[0] == wit.V.shape[1]

    def test_defective_witness_reports_its_error(self):
        # a support basis 2*e_0 is not orthonormal: V = 8 e_1 e_0*, so
        # V*V - g = 64 e_0 e_0* - 4 e_0 e_0* has norm 60
        e0 = np.array([[2.0], [0.0]], dtype=complex)
        e1 = np.array([[0.0], [1.0]], dtype=complex)
        spec = ElementSpectrum(g=Support(basis=e0, values=np.array([1.0])),
                               plus=Support(basis=e0[:, :0], values=np.zeros(0)))
        with pytest.raises(NumericsError, match=r"^witness V\*V check failed: 6\.000e\+01$"):
            cuntz_witness(spec, Support(basis=e1, values=np.array([1.0])), 1, 1)


class TestPushStep:
    def test_minimal_example(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        lam = 0.7
        res = push_step(lam * np.diag([1.0, 0.0]).astype(complex),
                        ElementSpectrum.of(a, 0.1), Support.of(b), 1, 1)
        assert len(res.pairs) == 1
        c, d = res.pairs[0]
        np.testing.assert_allclose(commutator(c, d) + res.remainder,
                                   lam * np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(res.remainder, lam * np.diag([0.0, 1.0]), atol=1e-12)
        assert res.all_passed

    def test_zero_input(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        res = push_step(np.zeros((2, 2)), ElementSpectrum.of(a, 0.1), Support.of(b), 1, 1)
        assert operator_norm(res.remainder) == 0.0
        assert all(operator_norm(d) == 0.0 for _, d in res.pairs)

    def test_rejects_unsupported_x(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(PreconditionError, match="supported"):
            push_step(np.eye(2, dtype=complex), ElementSpectrum.of(a, 0.1), Support.of(b), 1, 1)

    def test_six_by_six_L2_K1(self):
        rng = SplitMix64(42)
        n = 6  # two rank-3 blocks
        a = np.zeros((n, n), dtype=complex)
        a[:3, :3] = np.eye(3)
        b = np.zeros((n, n), dtype=complex)
        b[3:, 3:] = np.eye(3)
        x = embedded_trace_zero(rng, n, 0, 3)
        res = push_step(x, ElementSpectrum.of(a, 0.5), Support.of(b), 2, 1)
        assert len(res.pairs) == 2 * (2 + 1 - 1)  # L(L+K-1) = 4
        assert res.all_passed

    @pytest.mark.parametrize("L", [1, 2, 3])
    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_counts_and_bounds(self, L, K):
        rng = SplitMix64(43 + 10 * L + K)
        r_b = 2
        r_a = K * r_b
        n = r_a + r_b
        a = np.zeros((n, n), dtype=complex)
        a[:r_a, :r_a] = np.eye(r_a)
        b = np.zeros((n, n), dtype=complex)
        b[r_a:, r_a:] = np.eye(r_b)
        x = embedded_trace_zero(rng, n, 0, r_a)
        res = push_step(x, ElementSpectrum.of(a, 0.5), Support.of(b), L, K)
        x_norm = operator_norm(x)
        assert len(res.pairs) == L * (L + K - 1)
        recon = sum(commutator(c, d) for c, d in res.pairs) + res.remainder
        assert operator_norm(x - recon) <= 1e-8 * x_norm
        assert operator_norm(res.remainder) <= K * x_norm + 1e-8
        for c, d in res.pairs:
            assert operator_norm(c) * operator_norm(d) <= x_norm + 1e-8
        assert np.linalg.norm(res.y, 2) <= L * x_norm + 1e-6
        assert res.remainder_norm == operator_norm(res.remainder)

    def test_given_x_norm_is_used_as_is(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        x = np.diag([0.7, 0.0]).astype(complex)
        spec, b_support = ElementSpectrum.of(a, 0.1), Support.of(b)
        measured = push_step(x, spec, b_support, 1, 1)
        given = push_step(x, spec, b_support, 1, 1, x_norm=operator_norm(x))
        assert [c.to_json() for c in given.checks] == [c.to_json() for c in measured.checks]
        # the claimed bounds are read from x_norm, not re-measured
        halved = push_step(x, spec, b_support, 1, 1, x_norm=0.35)
        assert halved.checks[1].claimed_bound == 1 * 0.35 + 1e-8
        assert not halved.all_passed

    def test_averaging_map_contraction(self):
        # norm(Phi) <= (L-1)/L, sampled on unit-norm test elements
        rng = SplitMix64(44)
        L, K = 3, 2
        r_b = 2
        r_a = K * r_b
        n = r_a + r_b
        a = np.zeros((n, n), dtype=complex)
        a[:r_a, :r_a] = np.eye(r_a)
        b = np.zeros((n, n), dtype=complex)
        b[r_a:, r_a:] = np.eye(r_b)
        wit = cuntz_witness(ElementSpectrum.of(a, 0.5), Support.of(b), L, K)
        for _ in range(10):
            y = embedded_trace_zero(rng, n, 0, r_a)
            y /= operator_norm(y)
            phi_y = sum(wit.blocks[i][j] @ y @ wit.blocks[i][j].conj().T
                        for i in range(L - 1) for j in range(L)) / L
            assert operator_norm(phi_y) <= (L - 1) / L + 1e-6


class TestTowerModel:
    def test_orthogonality_enforced(self):
        e = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(PreconditionError, match="orthogonal"):
            TowerModel(elements=[e, e, e], epsilons=[0.5] * 3, L=1, K=1, M=1,
                       deltas=[0.5, 0.25])

    def test_rank_condition_enforced(self):
        # block 1 larger than K * block 2
        with pytest.raises(PreconditionError, match="rank condition"):
            make_block_tower([2, 4, 1], L=1, K=1)

    def test_pair_budget_bounds_the_whole_tower(self):
        # (blocks - 1) * L * (L + K - 1) commutator pairs: 16 * 32 = 512 is admitted
        assert make_block_tower([1, 1], L=16, K=17).L == 16
        with pytest.raises(InvalidInputError, match="528 commutator pairs"):
            make_block_tower([1, 1], L=16, K=18)
        with pytest.raises(InvalidInputError, match="over the budget of 512"):
            make_block_tower([1] * 18, L=2, K=15)

    def test_make_block_tower(self):
        tower = make_block_tower([2, 2, 2], L=1, K=1, ambient=8)
        assert tower.depth_limit == 2
        assert tower.elements[0].shape == (8, 8)


class TestTowerIterate:
    def test_depth_zero(self):
        tower = make_block_tower([3, 3], L=1, K=1)
        rng = SplitMix64(50)
        z0 = embedded_trace_zero(rng, 6, 0, 3)
        dec, report = tower_iterate(z0, tower, 0)
        assert dec.factor_count() == 0
        np.testing.assert_array_equal(dec.residual, z0)

    def test_depth_four_unit_parameters(self):
        # 5 equal-rank blocks inside a 32-dimensional ambient space
        tower = make_block_tower([6, 6, 6, 6, 6], L=1, K=1, M=1, ambient=32)
        rng = SplitMix64(51)
        z0 = embedded_trace_zero(rng, 32, 0, 6)
        dec, report = tower_iterate(z0, tower, 4)
        assert dec.factor_count() <= 1 + max(1, 1)
        assert operator_norm(dec.residual) <= tower.deltas[3]  # 1/16
        assert report.collapse_defect <= 1e-10
        vrep = verify_decomposition(z0, dec)
        assert vrep.all_passed
        assert report.all_passed

    def test_depth_three_K2(self):
        tower = make_block_tower([2, 2, 2, 2], L=1, K=2, M=1)
        rng = SplitMix64(52)
        z0 = embedded_trace_zero(rng, 8, 0, 2)
        dec, report = tower_iterate(z0, tower, 3)
        n_count = 1 * (1 + 2 - 1)
        assert dec.factor_count() <= n_count + max(1, n_count)  # 4
        assert operator_norm(dec.residual) <= tower.deltas[2]
        assert verify_decomposition(z0, dec).all_passed

    def test_depth_four_L2_K2(self):
        tower = make_block_tower([3, 3, 3, 3, 3], L=2, K=2, M=1)
        rng = SplitMix64(53)
        z0 = embedded_trace_zero(rng, 15, 0, 3)
        dec, report = tower_iterate(z0, tower, 4)
        n_count = 2 * (2 + 2 - 1)
        assert dec.factor_count() <= n_count + max(1, n_count)  # 12
        assert operator_norm(dec.residual) <= tower.deltas[3]
        assert verify_decomposition(z0, dec).all_passed

    def test_rejects_nonzero_trace(self):
        tower = make_block_tower([3, 3], L=1, K=1)
        z0 = np.zeros((6, 6), dtype=complex)
        z0[0, 0] = 1.0
        with pytest.raises(InvalidInputError, match="trace"):
            tower_iterate(z0, tower, 1)

    def test_rejects_bad_support(self):
        tower = make_block_tower([3, 3], L=1, K=1)
        z0 = np.zeros((6, 6), dtype=complex)
        z0[4, 4] = 1.0
        z0[5, 5] = -1.0
        with pytest.raises(PreconditionError, match="supported"):
            tower_iterate(z0, tower, 1)


class TestBlockSplit:
    def test_two_blocks_zero_pairs(self):
        beta = 0.7
        r = 2
        blk = np.diag([beta, beta]).astype(complex)
        b = np.zeros((4, 4), dtype=complex)
        b[:r, :r] = blk
        b[r:, r:] = -blk
        zero = np.zeros((r, r), dtype=complex)
        pairs = [(zero, zero), (zero, zero)]
        res = block_two_commutator_split(b, 2, pairs, np.eye(r, dtype=complex))
        np.testing.assert_allclose(res.shift_upper[:r, r:], blk, atol=1e-12)
        np.testing.assert_allclose(
            commutator(res.shift_upper, res.shift_lower), res.diag_part, atol=1e-12)
        assert res.all_passed

    def test_diagonal_already_commutators(self):
        rng = SplitMix64(60)
        r, d = 2, 3
        pairs = [(random_complex_matrix(rng, r), random_complex_matrix(rng, r))
                 for _ in range(d)]
        b = np.zeros((d * r, d * r), dtype=complex)
        for i, (x, y) in enumerate(pairs):
            b[i * r:(i + 1) * r, i * r:(i + 1) * r] = commutator(x, y)
        res = block_two_commutator_split(b, d, pairs, np.eye(r, dtype=complex))
        assert operator_norm(res.shift_upper) == 0.0
        assert operator_norm(res.diag_part) <= 1e-14

    def test_random_instances(self):
        rng = SplitMix64(61)
        for trial in range(20):
            d = 2 + trial % 5
            r = 3
            pairs = [(random_complex_matrix(rng, r), random_complex_matrix(rng, r))
                     for _ in range(d)]
            b = np.zeros((d * r, d * r), dtype=complex)
            for i in range(d):
                for j in range(d):
                    b[i * r:(i + 1) * r, j * r:(j + 1) * r] = random_complex_matrix(rng, r)
            # overwrite the last diagonal block to satisfy the sum condition
            total = sum(commutator(x, y) for x, y in pairs)
            others = sum(b[i * r:(i + 1) * r, i * r:(i + 1) * r] for i in range(d - 1))
            b[(d - 1) * r:, (d - 1) * r:] = total - others
            res = block_two_commutator_split(b, d, pairs, np.eye(r, dtype=complex))
            err = operator_norm(commutator(res.shift_upper, res.shift_lower) - res.diag_part)
            assert err <= 1e-9 * max(1.0, operator_norm(b))
            np.testing.assert_allclose(res.diag_part + res.rest, b, atol=1e-12)

    def test_trace_condition_error(self):
        b = np.eye(4, dtype=complex)
        zero = np.zeros((2, 2), dtype=complex)
        with pytest.raises(InvalidInputError, match="sum to zero"):
            block_two_commutator_split(b, 2, [(zero, zero)] * 2, np.eye(2, dtype=complex))

    def test_single_block_cases(self):
        rng = SplitMix64(62)
        x, y = random_complex_matrix(rng, 2), random_complex_matrix(rng, 2)
        b = commutator(x, y)
        res = block_two_commutator_split(b, 1, [(x, y)], np.eye(2, dtype=complex))
        np.testing.assert_array_equal(res.rest, b)
        with pytest.raises(InvalidInputError, match="b_11"):
            block_two_commutator_split(np.diag([1.0, -1.0]).astype(complex), 1,
                                       [(np.zeros((2, 2)), np.zeros((2, 2)))],
                                       np.eye(2, dtype=complex))

    def test_non_unit_e_rejected(self):
        beta = 1.0
        b = np.diag([beta, -beta]).astype(complex)
        zero = np.zeros((1, 1), dtype=complex)
        with pytest.raises(PreconditionError, match="unit"):
            block_two_commutator_split(b, 2, [(zero, zero)] * 2,
                                       np.zeros((1, 1), dtype=complex))

    def test_nontrivial_unit_element(self):
        # e = ramp of c acts as a unit on her((c - eps)_+)
        c = np.diag([1.0, 0.9, 0.1]).astype(complex)
        eps = 0.5
        spec = ElementSpectrum.of(c, eps)
        e = spec.g.matrix
        q = spec.plus.basis
        rng = SplitMix64(63)
        d = 2
        her = lambda: q @ random_complex_matrix(rng, q.shape[1]) @ q.conj().T
        pairs = [(her(), her()) for _ in range(d)]
        b = np.zeros((6, 6), dtype=complex)
        total = sum(commutator(x, y) for x, y in pairs)
        b[:3, :3] = total / 2 + (her() - her()) * 0
        b[3:, 3:] = total - b[:3, :3]
        res = block_two_commutator_split(b, d, pairs, e)
        assert res.all_passed


def test_thresholded_rank():
    assert Support.of(np.diag([1.0, 1e-12, 0.0])).rank == 1
    assert Support.of(np.zeros((3, 3))).rank == 0
    assert Support.of(np.eye(4)).rank == 4


def test_tower_audit_script_verifies_its_demo():
    stdout = run_script("tower_audit.py", "--m-max", "2", "--depth", "3")
    assert "verified True" in stdout
    assert "collapse defect 0.000e+00" in stdout
