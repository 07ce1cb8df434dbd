import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    collapse_defect,
    fack_run_input,
    psd_matrix,
    random_unitary,
    reconstruction_error,
    record_collapse,
    reference_witness,
    run_script,
    support_of,
)
from tracezero import jsonio, towers
from tracezero.errors import InvalidInputError
from tracezero.matcore import commutator, operator_norm
from tracezero.rand import SplitMix64, random_complex_matrix, random_hermitian
from tracezero.towers import (
    ElementSpectrum,
    Support,
    TowerModel,
    block_two_commutator_split,
    cuntz_witness,
    push_step,
    ramp,
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
        np.testing.assert_allclose(psd_matrix(ElementSpectrum.of(a, 0.5).plus),
                                   np.diag([0.5, 0.0]), atol=1e-14)

    def test_ramp_mode(self):
        a = np.diag([1.0, 0.1]).astype(complex)
        np.testing.assert_allclose(psd_matrix(ElementSpectrum.of(a, 0.5).g),
                                   np.diag([1.0, 0.0]), atol=1e-14)

    def test_ramp_acts_as_unit_on_high_spectrum(self):
        # oracle: spectral projection onto eigenvalues > eps
        rng = SplitMix64(40)
        m = random_complex_matrix(rng, 6)
        a = m @ m.conj().T  # PSD
        eps = 0.5 * operator_norm(a)
        spec = ElementSpectrum.of(a, eps)
        g = psd_matrix(spec.g)
        p = spec.plus.projection
        assert operator_norm(g @ p - p) <= 1e-10

    def test_rejects_negative_spectrum(self):
        with pytest.raises(InvalidInputError):
            ElementSpectrum.of(np.diag([1.0, -0.5]).astype(complex), 0.2)

    def test_ramp_profile_window(self):
        assert ramp(0.0, 0.5) == 0.0
        assert ramp(0.25, 0.5) == 0.0
        assert ramp(0.375, 0.5) == pytest.approx(0.5)
        assert ramp(0.5, 0.5) == 1.0
        assert ramp(2.0, 0.5) == 1.0

    def test_ramp_of_a_subnormal_epsilon_is_a_step(self):
        # 1 / (eps / 2) overflows, and 5e-324 / 2 rounds to 0: the ramp is
        # the step at eps / 2 in both, with no warning
        np.testing.assert_array_equal(ramp([0.0, 1e-320, 1.0], 1e-320), [0.0, 1.0, 1.0])
        np.testing.assert_array_equal(ramp([0.0, 5e-324, 1.0], 5e-324), [0.0, 1.0, 1.0])


def witness_errors(blocks, g, p_ap, p_b, L, K):
    """||V*V - g (x) 1_L|| and ||VV* - P_c VV* P_c|| of the witness with
    ``blocks``, with P_c = p_ap on the first L-1 diagonal blocks and p_b on
    the last K."""
    v = np.block(blocks)
    vstarv = np.linalg.norm(v.conj().T @ v - np.kron(np.eye(L), g), 2)
    p_c = (np.kron(np.diag([1.0] * (L - 1) + [0.0] * K), p_ap)
           + np.kron(np.diag([0.0] * (L - 1) + [1.0] * K), p_b))
    vvs = v @ v.conj().T
    return vstarv, np.linalg.norm(vvs - p_c @ vvs @ p_c, 2)


def _rank_spectra(ranks, ambient=None):
    ambient = sum(ranks) if ambient is None else ambient
    starts = np.cumsum([0] + ranks[:-1])
    return [ElementSpectrum.of_block(ambient, int(s), r, 0.5) for s, r in zip(starts, ranks)]


def _element_spectra(diagonals, seed=None):
    """Spectra at epsilon 0.5 of diag(d) for each d, conjugated by a seeded
    unitary when ``seed`` is given."""
    u = np.eye(len(diagonals[0])) if seed is None else random_unitary(SplitMix64(seed),
                                                                      len(diagonals[0]))
    return [ElementSpectrum.of(u @ np.diag(d).astype(complex) @ u.conj().T, 0.5)
            for d in diagonals]


_PAIRS6 = [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1]]
# g_{0.25} of 0.3 is 0.2, so g and its square root are no projections
_GRADED = [[1.0, 0.7, 0.3, 0, 0, 0, 0, 0], [0, 0, 0, 1, 1, 1, 1, 1]]
_WITNESS_TOWERS = {
    "equal": lambda: _rank_spectra([3] * 4),
    "unequal": lambda: _rank_spectra([4, 3, 5]),
    "padded": lambda: _rank_spectra([2, 2, 2], ambient=9),
    "diagonal": lambda: _element_spectra(_PAIRS6),
    "graded": lambda: _element_spectra(_GRADED),
    "rotated": lambda: _element_spectra(_PAIRS6, seed=32),
    "rotated-graded": lambda: _element_spectra(_GRADED, seed=33),
}


class TestCuntzWitness:
    @pytest.mark.parametrize("L", [1, 2, 3])
    @pytest.mark.parametrize("K", [1, 2, 3])
    @pytest.mark.parametrize("tower", sorted(_WITNESS_TOWERS))
    def test_blocks_equal_the_dense_reference(self, L, K, tower):
        spectra = _WITNESS_TOWERS[tower]()
        stages = [t for t in range(len(spectra) - 1)
                  if L * spectra[t].g.rank
                  <= (L - 1) * spectra[t].plus.rank + K * spectra[t + 1].plus.rank]
        assert stages
        for t in stages:
            blocks = cuntz_witness(spectra[t], spectra[t + 1].plus, L, K)
            v, range_defect = reference_witness(spectra[t], spectra[t + 1].plus, L, K)
            assert len(blocks) == L + K - 1 and all(len(row) == L for row in blocks)
            if tower.startswith("rotated") and L > 1:
                # dense g^{1/2}: one matmul over L n columns of which n are
                # nonzero rounds apart from the matmul over those n alone
                np.testing.assert_allclose(np.block(blocks), v, rtol=0.0, atol=1e-15)
            else:
                np.testing.assert_array_equal(np.block(blocks), v)
            assert range_defect <= 1e-8

    def test_holds_a_few_copies_of_v_and_no_range_projection(self):
        # L = 1, K = 127, n = 17: V is 2159 x 17 (0.6 MB), where a dense
        # ((L+K-1) n)^2 range projection would be 75 MB
        spectra = _rank_spectra([16, 1])
        tracemalloc.start()
        try:
            blocks = cuntz_witness(spectra[0], spectra[1].plus, 1, 127)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        v_bytes = np.block(blocks).nbytes
        assert v_bytes == 127 * 17 * 17 * 16
        assert peak < 5 * v_bytes

    def test_a_remainder_outside_b_fails_its_hereditary_claim(self):
        # b's basis e1, e2, (e1 + e2)/sqrt 2 has unit columns, but P_b = BB* is
        # no projection: V = e1 e0* leaves the remainder e1 e1*, and
        # P_b e1 = (3 e1 + e2)/2, so norm(rem - P_b rem P_b) is 0.75 + sqrt(13)/4
        e = np.eye(3, dtype=complex)
        spec = ElementSpectrum(g=Support(basis=e[:, :1], values=np.array([1.0])),
                               plus=Support(basis=e[:, :0], values=np.zeros(0)))
        basis = np.column_stack([e[:, 1], e[:, 2], (e[:, 1] + e[:, 2]) / np.sqrt(2.0)])
        res = push_step(np.outer(e[:, 0], e[:, 0]), spec,
                        Support(basis=basis, values=np.ones(3)), 1, 1)
        checks = {c.name: c for c in res.report.bound_checks}
        assert checks["remainder_in_hereditary"].measured_value \
            == pytest.approx(0.75 + math.sqrt(13.0) / 4.0)
        assert [c.name for c in res.report.bound_checks if not c.passed] \
            == ["remainder_in_hereditary"]

    def test_a_equals_b(self):
        a = np.diag([1.0, 0.8, 0.0]).astype(complex)
        blocks = cuntz_witness(ElementSpectrum.of(a, 0.1), support_of(a), 1, 1)
        # g = g_{0.05}(a) and the supports of (a - 0.1)_+ and a: all diag(1, 1, 0)
        p = np.diag([1.0, 1.0, 0.0])
        vstarv, range_error = witness_errors(blocks, p, p, p, 1, 1)
        assert vstarv <= 1e-12
        assert range_error <= 1e-12

    def test_two_by_two_swap(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        blocks = cuntz_witness(ElementSpectrum.of(a, 0.1), support_of(b), 1, 1)
        # V = e21 up to phase: single nonzero entry of modulus 1 at (1, 0)
        np.testing.assert_allclose(np.abs(np.block(blocks)), [[0.0, 0.0], [1.0, 0.0]],
                                   atol=1e-12)

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
        blocks = cuntz_witness(ElementSpectrum.of(a, 0.5), support_of(b), L, K)
        # a and b are projections, so g = (a - 0.5)_+'s support projection = a
        vstarv, range_error = witness_errors(blocks, a, a, b, L, K)
        assert vstarv <= 1e-8
        assert range_error <= 1e-8
        assert np.block(blocks).shape == ((L + K - 1) * n, L * n)

    def test_a_defective_witness_fails_its_push_step_claims(self):
        # a support basis 2*e_0 is not orthonormal: V = 8 e_1 e_0*, so on
        # x = e_0 e_0* the one pair is (8 e_0 e_1*, 8 e_1 e_0*), with norm
        # product 64, and the split sums to 64 x, 63 away from x
        e0 = np.array([[2.0], [0.0]], dtype=complex)
        e1 = np.array([[0.0], [1.0]], dtype=complex)
        spec = ElementSpectrum(g=Support(basis=e0, values=np.array([1.0])),
                               plus=Support(basis=e0[:, :0], values=np.zeros(0)))
        res = push_step(np.diag([1.0, 0.0]), spec, Support(basis=e1, values=np.array([1.0])),
                        1, 1)
        checks = {c.name: c for c in res.report.bound_checks}
        assert checks["reconstruction_residual"].measured_value == pytest.approx(63.0)
        assert checks["max_norm_product"].measured_value == pytest.approx(64.0)
        assert [c.name for c in res.report.bound_checks if not c.passed] \
            == ["reconstruction_residual", "remainder_norm", "max_norm_product"]


class TestPushStep:
    def test_minimal_example(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        lam = 0.7
        res = push_step(lam * np.diag([1.0, 0.0]).astype(complex),
                        ElementSpectrum.of(a, 0.1), support_of(b), 1, 1)
        assert len(res.pairs) == 1
        c, d = res.pairs[0]
        np.testing.assert_allclose(commutator(c, d) + res.remainder,
                                   lam * np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(res.remainder, lam * np.diag([0.0, 1.0]), atol=1e-12)
        assert res.report.all_passed

    def test_zero_input(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        res = push_step(np.zeros((2, 2)), ElementSpectrum.of(a, 0.1), support_of(b), 1, 1)
        assert operator_norm(res.remainder) == 0.0
        assert all(operator_norm(d) == 0.0 for _, d in res.pairs)

    def test_unsupported_x_fails_its_reconstruction_claim(self):
        # the support precondition is the caller's: the split sums to g x,
        # and the reconstruction claim measures norm(x - g x) = 1
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        res = push_step(np.eye(2, dtype=complex), ElementSpectrum.of(a, 0.1), support_of(b), 1, 1)
        assert res.report.bound_checks[0].name == "reconstruction_residual"
        assert res.report.bound_checks[0].measured_value == pytest.approx(1.0)
        assert not res.report.bound_checks[0].passed
        assert [c.passed for c in res.report.bound_checks[1:]] == [True] * 4

    def test_six_by_six_L2_K1(self):
        rng = SplitMix64(42)
        n = 6  # two rank-3 blocks
        a = np.zeros((n, n), dtype=complex)
        a[:3, :3] = np.eye(3)
        b = np.zeros((n, n), dtype=complex)
        b[3:, 3:] = np.eye(3)
        x = embedded_trace_zero(rng, n, 0, 3)
        res = push_step(x, ElementSpectrum.of(a, 0.5), support_of(b), 2, 1)
        assert len(res.pairs) == 2 * (2 + 1 - 1)  # L(L+K-1) = 4
        assert res.report.all_passed

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
        res = push_step(x, ElementSpectrum.of(a, 0.5), support_of(b), L, K)
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
        spec, b_support = ElementSpectrum.of(a, 0.1), support_of(b)
        measured = push_step(x, spec, b_support, 1, 1)
        given = push_step(x, spec, b_support, 1, 1, x_norm=operator_norm(x))
        assert given.report.to_json() == measured.report.to_json()
        # the claimed bounds are read from x_norm, not re-measured
        halved = push_step(x, spec, b_support, 1, 1, x_norm=0.35)
        assert halved.report.bound_checks[1].claimed_bound \
            == 1 * 0.35 + (1e-8 * 0.35 + 2.0 ** -1022)
        assert not halved.report.all_passed

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
        v = cuntz_witness(ElementSpectrum.of(a, 0.5), support_of(b), L, K)
        for _ in range(10):
            y = embedded_trace_zero(rng, n, 0, r_a)
            y /= operator_norm(y)
            phi_y = sum(v[i][j] @ y @ v[i][j].conj().T
                        for i in range(L - 1) for j in range(L)) / L
            assert operator_norm(phi_y) <= (L - 1) / L + 1e-6


_P = [np.diag([1.0, 1.0, 0.0, 0.0]), np.diag([0.0, 0.0, 1.0, 1.0])]
_Z = np.diag([1.0, -1.0, 0.0, 0.0])


class TestTowerInput:
    """The fack-run decoder, which the command and verify share, states every
    tower rule that needs no construction."""

    @pytest.mark.parametrize("read, message", [
        (lambda: fack_run_input([2, 2], deltas=[0.5, 0.25]), "need one delta per stage"),
        (lambda: fack_run_input([2, 2], ambient=3), "ambient size 3 too small for ranks [2, 2]"),
        (lambda: fack_run_input([_P[0], _P[1] + 1e-3j * np.eye(4)]),
         "e_1 is not Hermitian within 1e-12 of its largest entry"),
        (lambda: fack_run_input([_P[0], np.eye(2)]), "all tower elements must share one size"),
        (lambda: fack_run_input([1, 1]).run_depth(2), "depth must lie in [0, 1]"),
        (lambda: fack_run_input([2], M=10 ** 400),
         "the commutator count bound is too large for a float"),
        (lambda: fack_run_input(_P, z0=_Z + np.eye(4, k=1)),
         "z0 is not Hermitian within 1e-12 of its largest entry"),
        (lambda: fack_run_input(_P, z0=np.diag([1.0, -1.0, 0.0, 0.0, 0.0])),
         "z0 size does not match the tower"),
        (lambda: fack_run_input([2, 2], deltas=[math.inf]),
         "tower.deltas[0] must be a finite number, not inf"),
        (lambda: fack_run_input([2, 2], deltas=[math.nan]),
         "tower.deltas[0] must be a finite number, not nan"),
        (lambda: fack_run_input([2, 2], epsilon=math.nan),
         "tower.epsilon must be a finite number, not nan"),
    ], ids=["delta-count", "ambient", "element-hermitian", "element-size", "depth-range",
            "count-bound", "z0-hermitian", "z0-size", "inf-delta", "nan-delta", "nan-epsilon"])
    def test_words_each_rule(self, read, message):
        with pytest.raises(InvalidInputError) as error:
            read()
        assert str(error.value) == message

    def test_z0_trace_rule_takes_a_norm_only_above_its_floor(self, monkeypatch):
        norms = []
        monkeypatch.setattr(jsonio, "operator_norm", lambda m: norms.append(m) or operator_norm(m))
        fack_run_input(_P, z0=_Z)
        assert norms == []
        # |tr| = 1e-7 is over TINY, but under 1e-9 n norm(z0) = 4e-6
        fack_run_input(_P, z0=1e3 * _Z + np.diag([1e-7, 0.0, 0.0, 0.0]))
        assert len(norms) == 1
        # the floor is TINY, 2^-1022: a trace of 2^-1021 takes a norm
        fack_run_input(_P, z0=_Z + np.diag([0.0, 0.0, 2.0 ** -1021, 0.0]))
        assert len(norms) == 2
        # and below norm 1 the rule is relative: 1e-305 is over 4e-309 + TINY
        with pytest.raises(InvalidInputError, match="z0 must be trace zero"):
            fack_run_input(_P, z0=1e-300 * _Z + np.diag([1e-305, 0.0, 0.0, 0.0]))

    def test_pair_budget_bounds_the_whole_tower(self):
        # (blocks - 1) * L * (L + K - 1) commutator pairs: 16 * 32 = 512 is admitted
        assert fack_run_input([1, 1], L=16, K=17).L == 16
        with pytest.raises(InvalidInputError, match="528 commutator pairs"):
            fack_run_input([1, 1], L=16, K=18)
        with pytest.raises(InvalidInputError, match="over the budget of 512"):
            fack_run_input([1] * 18, L=2, K=15)

    def test_entry_budget_counts_what_a_run_holds(self):
        # (blocks + (L+K-1) L + 2 pairs) n^2: one witness and every stage's
        # pairs, not a ((L+K-1) n)^2 range check
        assert fack_run_input([16, 1], K=511).K == 511  # (2 + 511 + 1022) * 17^2
        with pytest.raises(InvalidInputError) as error:
            fack_run_input([16] * 60)
        assert str(error.value) == ("tower needs 164966400 complex entries (60 elements of "
                                    "size 960, L=1, K=1), over the budget of 67108864")

    def test_output_budget_counts_the_matrices_a_run_writes(self):
        # (1 + 4 L(L+K-1)) n^2: z0 and both matrices of up to 2 L(L+K-1) pairs
        assert fack_run_input([16] * 9).ambient == 144  # tower-deep, 103680 entries
        assert fack_run_input([16, 1], K=511).K == 511  # 2045 * 17^2 = 591005
        assert fack_run_input([228, 229]).ambient == 457  # 5 * 457^2 = 1044245
        with pytest.raises(InvalidInputError) as error:
            fack_run_input([229, 229])
        assert str(error.value) == ("tower output holds 1048820 complex entries (z0 and up "
                                    "to 2 commutator pairs of size 458), over the budget of "
                                    "1048576")
        with pytest.raises(InvalidInputError, match="holds 1081805 complex entries"):
            fack_run_input([22, 1], K=511)  # 2045 * 23^2

    def test_rejects_nonzero_trace(self):
        z0 = np.zeros((6, 6), dtype=complex)
        z0[0, 0] = 1.0
        with pytest.raises(InvalidInputError, match="trace"):
            fack_run_input([3, 3], z0=z0)


class TestTowerModel:
    def test_orthogonality_enforced(self):
        e = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(InvalidInputError, match="orthogonal"):
            TowerModel(fack_run_input([e, e, e]))

    def test_rank_condition_enforced(self):
        # block 1 larger than K * block 2
        with pytest.raises(InvalidInputError, match="rank condition"):
            TowerModel(fack_run_input([2, 4, 1]))

    def test_make_block_tower(self, monkeypatch):
        calls = []
        eig = towers.hermitian_eig
        monkeypatch.setattr(towers, "hermitian_eig", lambda *a, **k: calls.append(a) or eig(*a, **k))
        tower = TowerModel(fack_run_input([2, 2, 2], ambient=8))
        assert len(tower.spectra) == 3
        np.testing.assert_array_equal(tower.spectra[1].plus.basis, np.eye(8)[:, 2:4])
        assert calls == []

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 20), min_size=2, max_size=7), st.integers(0, 4),
           st.floats(0.0, 2.5, exclude_min=True))
    def test_rank_spectra_match_the_eigendecomposed_projections(self, ranks, pad, eps):
        ambient, start = sum(ranks) + pad, 0
        for r in ranks:
            dense = np.zeros((ambient, ambient), dtype=complex)
            dense[start:start + r, start:start + r] = np.eye(r)
            block = ElementSpectrum.of_block(ambient, start, r, eps)
            reference = ElementSpectrum.of(dense, eps)
            start += r
            for got, want in ((block.g, reference.g), (block.plus, reference.plus)):
                assert got.rank == want.rank
                np.testing.assert_array_equal(got.values, want.values)
                np.testing.assert_array_equal(got.projection, want.projection)
            np.testing.assert_array_equal(block.g_sqrt, reference.g_sqrt)


class TestTowerIterate:
    def test_depth_zero(self):
        rng = SplitMix64(50)
        inp = fack_run_input([3, 3], z0=embedded_trace_zero(rng, 6, 0, 3))
        dec, report = tower_iterate(inp.z0, TowerModel(inp), 0)
        assert dec.factors == []
        np.testing.assert_array_equal(dec.residual, inp.z0)

    def test_depth_zero_report_residual_is_norm(self):
        rng = SplitMix64(50)
        inp = fack_run_input([3, 3], z0=embedded_trace_zero(rng, 6, 0, 3))
        dec, report = tower_iterate(inp.z0, TowerModel(inp), 0)
        # with no factors, the residual is z0 itself
        assert reconstruction_error(inp.z0, dec) == dec.residual_norm == operator_norm(inp.z0)
        assert report.to_json() == {"stage_checks": [], "all_passed": True}
        # with no stage, delta_depth is undefined: the report is the count alone
        assert [(c.name, c.measured_value) for c in dec.report.bound_checks] \
            == [("commutator_count", 0.0)]
        assert dec.report.all_passed

    def test_depth_four_unit_parameters(self, monkeypatch):
        # 5 equal-rank blocks inside a 32-dimensional ambient space
        slots = record_collapse(monkeypatch)
        rng = SplitMix64(51)
        inp = fack_run_input([6, 6, 6, 6, 6], z0=embedded_trace_zero(rng, 32, 0, 6), ambient=32)
        dec, report = tower_iterate(inp.z0, TowerModel(inp), 4)
        assert len(dec.factors) <= 1 + max(1, 1)
        assert operator_norm(dec.residual) <= inp.deltas[3]  # 1/16
        assert collapse_defect(slots) <= 1e-10
        # the in-block finish absorbs the last remainder: z0 = sum [x_k, y_k] up to rounding
        assert reconstruction_error(inp.z0, dec) <= 1e-8 * max(1.0, operator_norm(inp.z0))
        assert dec.report.all_passed
        assert report.all_passed

    def test_depth_three_K2(self):
        rng = SplitMix64(52)
        inp = fack_run_input([2, 2, 2, 2], z0=embedded_trace_zero(rng, 8, 0, 2), K=2)
        dec, report = tower_iterate(inp.z0, TowerModel(inp), 3)
        n_count = 1 * (1 + 2 - 1)
        assert len(dec.factors) <= n_count + max(1, n_count)  # 4
        assert operator_norm(dec.residual) <= inp.deltas[2]
        assert reconstruction_error(inp.z0, dec) <= 1e-8 * max(1.0, operator_norm(inp.z0))
        assert dec.report.all_passed

    def test_depth_four_L2_K2(self):
        rng = SplitMix64(53)
        inp = fack_run_input([3, 3, 3, 3, 3], z0=embedded_trace_zero(rng, 15, 0, 3), L=2, K=2)
        dec, report = tower_iterate(inp.z0, TowerModel(inp), 4)
        n_count = 2 * (2 + 2 - 1)
        assert len(dec.factors) <= n_count + max(1, n_count)  # 12
        assert operator_norm(dec.residual) <= inp.deltas[3]
        assert reconstruction_error(inp.z0, dec) <= 1e-8 * max(1.0, operator_norm(inp.z0))
        assert dec.report.all_passed

    @pytest.mark.parametrize("depth", [0, 1])
    def test_rejects_unsupported_x(self, depth):
        # z0 = diag(1, -1) reaches into block 1: checked before any push step
        inp = fack_run_input([1, 1], z0=np.diag([1.0, -1.0]).astype(complex))
        with pytest.raises(InvalidInputError, match="supported"):
            tower_iterate(inp.z0, TowerModel(inp), depth)

    def test_rejects_bad_support(self):
        z0 = np.zeros((6, 6), dtype=complex)
        z0[4, 4] = 1.0
        z0[5, 5] = -1.0
        inp = fack_run_input([3, 3], z0=z0)
        with pytest.raises(InvalidInputError, match="supported"):
            tower_iterate(inp.z0, TowerModel(inp), 1)


class TestCollapse:
    """``collapse`` sums each slot unchecked; the oracle forms every cross
    product the sum needs to vanish, on the slots of real runs."""

    @pytest.mark.parametrize("L, K", [(1, 1), (2, 1), (1, 2), (2, 2)])
    @pytest.mark.parametrize("tower", ["rank", "rotated"])
    def test_summed_slots_are_orthogonal(self, monkeypatch, tower, L, K):
        slots = record_collapse(monkeypatch)
        rng = SplitMix64(60 + 10 * L + K)
        if tower == "rank":
            blocks, z0 = [3] * 5, embedded_trace_zero(rng, 15, 0, 3)
        else:  # five rank-2 blocks in size 10, conjugated by a seeded unitary
            u = random_unitary(SplitMix64(61), 10)
            blocks = [u @ np.diag(d).astype(complex) @ u.conj().T
                      for d in np.repeat(np.eye(5), 2, axis=1)]
            z0 = u @ embedded_trace_zero(rng, 10, 0, 2) @ u.conj().T
            z0 = (z0 + z0.conj().T) / 2
        inp = fack_run_input(blocks, z0=z0, L=L, K=K)
        dec, report = tower_iterate(inp.z0, TowerModel(inp), 4)
        assert max(len(slot) for slot in slots) > 1
        assert collapse_defect(slots) <= 1e-10
        assert dec.report.all_passed and report.all_passed


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
        assert res.report.all_passed

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
        with pytest.raises(InvalidInputError, match="unit"):
            block_two_commutator_split(b, 2, [(zero, zero)] * 2,
                                       np.zeros((1, 1), dtype=complex))

    def test_nontrivial_unit_element(self):
        # e = ramp of c acts as a unit on her((c - eps)_+)
        c = np.diag([1.0, 0.9, 0.1]).astype(complex)
        eps = 0.5
        spec = ElementSpectrum.of(c, eps)
        e = psd_matrix(spec.g)
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
        assert res.report.all_passed


def test_thresholded_rank():
    assert support_of(np.diag([1.0, 1e-12, 0.0])).rank == 1
    assert support_of(np.zeros((3, 3))).rank == 0
    assert support_of(np.eye(4)).rank == 4


def test_tower_audit_script_verifies_its_demo():
    stdout = run_script("tower_audit.py", "--m-max", "2", "--depth", "3")
    assert "verified True" in stdout


class TestScaleRelativeRules:
    """The input rules of ``towers`` are ``claims.slack(c, scale)``, relative
    down to the underflow range: scaled by 1e-20, an input that breaks one
    still breaks it."""

    def test_a_psd_element_is_negative_only_relative_to_its_largest_eigenvalue(self):
        ElementSpectrum.of(np.diag([1e-6, -1e-17]).astype(complex), 0.5)
        with pytest.raises(InvalidInputError, match="negative spectrum"):
            ElementSpectrum.of(np.diag([1e-6, -1e-15]).astype(complex), 0.5)

    def test_tiny_blocks_must_be_orthogonal(self):
        e = 1e-20 * np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(InvalidInputError, match="blocks 0 and 2 are not orthogonal"):
            TowerModel(fack_run_input([e, e, e]))

    def test_tiny_defects_must_sum_to_zero(self):
        zero = np.zeros((2, 2), dtype=complex)
        with pytest.raises(InvalidInputError, match="sum to zero"):
            block_two_commutator_split(1e-20 * np.eye(4, dtype=complex), 2, [(zero, zero)] * 2,
                                       np.eye(2, dtype=complex))

    def test_e_must_act_as_a_unit_on_a_tiny_partial_sum(self):
        zero = np.zeros((1, 1), dtype=complex)
        with pytest.raises(InvalidInputError, match="unit"):
            block_two_commutator_split(np.diag([1e-20, -1e-20]).astype(complex), 2,
                                       [(zero, zero)] * 2, zero)
