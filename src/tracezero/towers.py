"""Rank-comparison witnesses and iterated commutator extraction in towers.

The central step: when L*rank(g_{eps/2}(a)) <= (L-1)*rank((a-eps)_+) +
K*rank(b), a block partial isometry V with V*V = g_{eps/2}(a) (x) 1_L and
range(VV*) inside the ranges of (a-eps)_+ (L-1 times) and b (K times)
splits any x supported in her((a-eps)_+) into exactly L(L+K-1) commutators
plus a remainder pushed into her(b), with certified norms: each
norm(x_k)*norm(y_k) <= norm(x) and norm(remainder) <= K*norm(x).  Chaining
the step down a tower of orthogonal blocks and finishing with one exact
in-block decomposition gives a certified decomposition with at most
L(L+K-1) + max(M, L(L+K-1)) commutators after collapsing the
mutually-orthogonal stages.

``g_{eps/2}`` is the piecewise-linear ramp that is 0 on [0, eps/2] and 1 on
[eps, infinity); the only property used is g_{eps/2}(a) y = y for y
supported in her((a-eps)_+).  Each tower element is eigendecomposed once,
into an ``ElementSpectrum``; witnesses and push steps read its supports.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, NumericsError, PreconditionError
from .matcore import (
    KIND_GENERAL,
    BoundCheck,
    CommutatorDecomposition,
    as_matrix,
    commutator,
    frobenius_bound,
    hermitian_eig,
    norm_exceeds,
    operator_norm,
    require_hermitian,
)
from .selfcomm import collapse_orthogonal, tight_commutator_decompose

RANK_TOL = 1e-8
NEUMANN_TOL = 1e-10
NEUMANN_MAX_ITER = 10_000
TOWER_ENTRY_BUDGET = 2 ** 26  # complex entries: the elements and a witness's range check


@dataclass(frozen=True)
class SpectralRamp:
    """PL ramp: 0 on [0, eps/2], then linear, then 1 on [eps, infinity)."""

    epsilon: float

    def profile(self, t):
        half = self.epsilon / 2.0
        return np.clip((np.asarray(t, dtype=float) - half) / half, 0.0, 1.0)


def _psd_eigensystem(a, tol: float = 1e-10):
    es = hermitian_eig(a)
    if es.eigenvalues.size and float(es.eigenvalues[0]) < -tol:
        raise InvalidInputError(
            f"matrix has negative spectrum beyond tolerance: {float(es.eigenvalues[0]):.3e}")
    return es


@dataclass(frozen=True)
class Support:
    """A PSD matrix B diag(values) B*, kept as an orthonormal basis B of its
    support and the positive values on it; the rank is the basis width.  The
    matrix and the support projection are formed when read."""

    basis: np.ndarray
    values: np.ndarray

    @classmethod
    def from_eigen(cls, unitary, values) -> "Support":
        """Support of U diag(values) U* for nonnegative values: the columns of
        U whose value exceeds RANK_TOL times the largest, in U's order."""
        top = float(np.max(values)) if values.size else 0.0
        keep = values > RANK_TOL * top
        return cls(basis=unitary[:, keep], values=values[keep])

    @classmethod
    def of(cls, a) -> "Support":
        """Support of a PSD matrix, from its own eigendecomposition."""
        es = _psd_eigensystem(a)
        return cls.from_eigen(es.unitary, np.clip(es.eigenvalues, 0.0, None))

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @property
    def matrix(self) -> np.ndarray:
        return (self.basis * self.values) @ self.basis.conj().T

    @property
    def projection(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T


@dataclass(frozen=True)
class ElementSpectrum:
    """Spectral data of a PSD element e at threshold eps, all from one
    eigendecomposition: the supports of the ramp g = g_{eps/2}(e) and of
    (e-eps)_+, and the square root of g."""

    g: Support
    plus: Support

    @classmethod
    def of(cls, e, epsilon: float) -> "ElementSpectrum":
        if epsilon <= 0:
            raise InvalidInputError("epsilon must be positive")
        es = _psd_eigensystem(e)
        lam = np.clip(es.eigenvalues, 0.0, None)
        u = es.unitary
        return cls(g=Support.from_eigen(u, SpectralRamp(epsilon).profile(lam)),
                   plus=Support.from_eigen(u, np.maximum(lam - epsilon, 0.0)))

    @property
    def g_sqrt(self) -> np.ndarray:
        b = self.g.basis
        return (b * np.sqrt(self.g.values)) @ b.conj().T


@dataclass
class CuntzWitness:
    """Block partial isometry certifying a rank comparison.

    ``blocks[i][j]`` (i in 0..L+K-2, j in 0..L-1) are the n x n blocks of V,
    which is (L+K-1)n x Ln so that V*V = g (x) 1_L can hold.
    """

    L: int
    K: int
    n: int
    V: np.ndarray
    blocks: list
    vstarv_error: float
    range_error: float
    ranks: dict


def cuntz_witness(a_spec: ElementSpectrum, b_support: Support, L: int,
                  K: int) -> CuntzWitness:
    """Build V with V*V = g_{eps/2}(a) (x) 1_L and range(VV*) inside range(c).

    c is (a-eps)_+ on the first L-1 diagonal blocks and b on the last K;
    ``a_spec`` carries g, its square root and both supports of a, and
    ``b_support`` the support of b.  Requires L*rank(g) <=
    (L-1)*rank((a-eps)_+) + K*rank(b); the partial isometry pairs ascending
    eigenbases, so the construction is deterministic.
    """
    if L < 1 or K < 1:
        raise InvalidInputError("L and K must be positive integers")
    g, a_plus = a_spec.g, a_spec.plus
    n = g.basis.shape[0]
    if b_support.basis.shape[0] != n:
        raise InvalidInputError("a and b must act on the same space")

    lhs = L * g.rank
    rhs = (L - 1) * a_plus.rank + K * b_support.rank
    if lhs > rhs:
        raise PreconditionError(
            f"rank comparison fails: L*rank(g) = {lhs} > "
            f"(L-1)*rank((a-eps)_+) + K*rank(b) = {rhs}")

    sources = [(j, g.basis[:, s]) for j in range(L) for s in range(g.rank)]
    targets = [(i, a_plus.basis[:, t]) for i in range(L - 1) for t in range(a_plus.rank)]
    targets += [(i, b_support.basis[:, t])
                for i in range(L - 1, L + K - 1) for t in range(b_support.rank)]

    big_rows = (L + K - 1) * n
    big_cols = L * n
    w = np.zeros((big_rows, big_cols), dtype=complex)
    for m, (j, svec) in enumerate(sources):
        i, tvec = targets[m]
        w[i * n:(i + 1) * n, j * n:(j + 1) * n] += np.outer(tvec, svec.conj())
    v_big = w @ np.kron(np.eye(L), a_spec.g_sqrt)
    blocks = [[v_big[i * n:(i + 1) * n, j * n:(j + 1) * n] for j in range(L)]
              for i in range(L + K - 1)]

    vstarv_error = operator_norm(v_big.conj().T @ v_big - np.kron(np.eye(L), g.matrix))
    p_ap, p_b = a_plus.projection, b_support.projection
    p_c = np.zeros((big_rows, big_rows), dtype=complex)
    for i in range(L + K - 1):
        p_c[i * n:(i + 1) * n, i * n:(i + 1) * n] = p_ap if i < L - 1 else p_b
    vvs = v_big @ v_big.conj().T
    range_error = operator_norm(vvs - p_c @ vvs @ p_c)
    if vstarv_error > 1e-8:
        raise NumericsError(f"witness V*V check failed: {vstarv_error:.3e}")
    if range_error > 1e-8:
        raise NumericsError(f"witness range check failed: {range_error:.3e}")
    return CuntzWitness(L=L, K=K, n=n, V=v_big, blocks=blocks,
                        vstarv_error=vstarv_error, range_error=range_error,
                        ranks={"g": g.rank, "a_plus": a_plus.rank, "b": b_support.rank})


@dataclass
class PushStepResult:
    """x = sum of L(L+K-1) certified commutators + remainder in her(b)."""

    pairs: list  # (c, d) with sum [c, d] + remainder = x
    remainder: np.ndarray
    y_norm: float
    witness: CuntzWitness
    checks: list

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def push_step(x, a_spec: ElementSpectrum, b_support: Support, L: int,
              K: int) -> PushStepResult:
    """Split x in her((a-eps)_+) into L(L+K-1) commutators + her(b) remainder.

    Solves y = x + Phi(y) by iteration, where Phi averages conjugation by
    the first L-1 block rows of the witness; norm(Phi) <= (L-1)/L makes the
    iteration contract with norm(y) <= L*norm(x).  The commutators are
    (1/L)[v_ij*, v_ij y] over all blocks, and the remainder collects the
    last K block rows.
    """
    xm = as_matrix(x, square=True, name="x")
    x_norm = operator_norm(xm)
    p_ap = a_spec.plus.projection
    compress_defect = xm - p_ap @ xm @ p_ap
    if norm_exceeds(compress_defect, 1e-8 * max(1.0, x_norm)):
        raise PreconditionError("x is not supported in her((a-eps)_+): "
                                f"defect {operator_norm(compress_defect):.3e}")
    wit = cuntz_witness(a_spec, b_support, L, K)
    v = wit.blocks

    def phi(y):
        out = np.zeros_like(y)
        for i in range(L - 1):
            for j in range(L):
                out += v[i][j] @ y @ v[i][j].conj().T
        return out / L

    if x_norm == 0.0:
        y = np.zeros_like(xm)
    else:
        y = xm.copy()
        for _ in range(NEUMANN_MAX_ITER):
            fy = phi(y)
            if not norm_exceeds(y - fy - xm, NEUMANN_TOL * x_norm):
                break
            y = xm + fy
        else:
            raise NumericsError(
                "fixed-point iteration did not converge; the witness is defective")

    pairs = []
    for i in range(L + K - 1):
        for j in range(L):
            pairs.append((v[i][j].conj().T / L, v[i][j] @ y))
    remainder = np.zeros_like(xm)
    for i in range(L - 1, L + K - 1):
        for j in range(L):
            remainder += v[i][j] @ y @ v[i][j].conj().T
    remainder /= L

    recon = sum(commutator(c, d) for c, d in pairs) + remainder
    recon_err = operator_norm(xm - recon)
    rem_norm = operator_norm(remainder)
    worst_product = max(operator_norm(c) * operator_norm(d) for c, d in pairs)
    p_b = b_support.projection
    rem_defect = operator_norm(remainder - p_b @ remainder @ p_b)
    count = L * (L + K - 1)
    checks = [
        BoundCheck("reconstruction_residual", 1e-8 * max(1.0, x_norm), recon_err,
                   0.0, recon_err <= 1e-8 * max(1.0, x_norm)),
        BoundCheck("remainder_norm", K * x_norm + 1e-8, rem_norm, 0.0,
                   rem_norm <= K * x_norm + 1e-8),
        BoundCheck("max_norm_product", x_norm + 1e-8, worst_product, 0.0,
                   worst_product <= x_norm + 1e-8),
        BoundCheck("remainder_in_hereditary", 1e-8 * max(1.0, rem_norm), rem_defect,
                   0.0, rem_defect <= 1e-8 * max(1.0, rem_norm)),
        BoundCheck("commutator_count", float(count), float(len(pairs)), 0.0,
                   len(pairs) == count),
    ]
    return PushStepResult(pairs=pairs, remainder=remainder,
                          y_norm=operator_norm(y), witness=wit, checks=checks)


# --------------------------------------------------------------------------
# Towers of orthogonal blocks and the iterated decomposition.

@dataclass
class TowerModel:
    """Positive elements e_0..e_T with thresholds, parameters, and a
    truncation schedule.

    Blocks with index >= 1 must be mutually orthogonal; consecutive blocks
    must satisfy the rank comparison that feeds ``push_step``.  ``spectra``
    holds one ``ElementSpectrum`` per element at its threshold.
    """

    elements: list
    epsilons: list
    L: int
    K: int
    M: int
    deltas: list
    spectra: list = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.elements) < 1:
            raise InvalidInputError("a tower needs at least e_0")
        if len(self.epsilons) != len(self.elements):
            raise InvalidInputError("need one epsilon per element")
        if len(self.deltas) != len(self.elements) - 1:
            raise InvalidInputError("need one delta per stage")
        if self.L < 1 or self.K < 1 or self.M < 1:
            raise InvalidInputError("L, K, M must be positive")
        if any(d <= 0 for d in self.deltas):
            raise InvalidInputError("deltas must be positive")
        self.elements = [require_hermitian(e, name=f"e_{i}")
                         for i, e in enumerate(self.elements)]
        shape = self.elements[0].shape
        if any(e.shape != shape for e in self.elements):
            raise InvalidInputError("all tower elements must share one size")
        _require_tower_budget(len(self.elements), shape[0], self.L, self.K)
        for i in range(1, len(self.elements)):
            for j in range(i + 1, len(self.elements)):
                ei, ej = self.elements[i], self.elements[j]
                product = ei @ ej
                if frobenius_bound(product) <= 1e-10:
                    continue
                defect = operator_norm(product)
                if defect > 1e-10 * max(1.0, operator_norm(ei) * operator_norm(ej)):
                    raise PreconditionError(
                        f"tower blocks {i} and {j} are not orthogonal: {defect:.3e}")
        self.spectra = [ElementSpectrum.of(e, eps)
                        for e, eps in zip(self.elements, self.epsilons)]
        for i in range(len(self.elements) - 1):
            g_rank = self.spectra[i].g.rank
            ap_rank = self.spectra[i].plus.rank
            b_rank = self.spectra[i + 1].plus.rank
            if self.L * g_rank > (self.L - 1) * ap_rank + self.K * b_rank:
                raise PreconditionError(
                    f"rank condition fails between blocks {i} and {i + 1}: "
                    f"{self.L * g_rank} > {(self.L - 1) * ap_rank + self.K * b_rank}")

    @property
    def depth_limit(self) -> int:
        return len(self.elements) - 1


def _require_tower_budget(count: int, n: int, L: int, K: int):
    """Reject towers whose elements plus the ((L+K-1)n)^2 matrices of a
    witness's range check exceed TOWER_ENTRY_BUDGET entries."""
    entries = (count + (L + K - 1) ** 2) * n * n
    if entries > TOWER_ENTRY_BUDGET:
        raise InvalidInputError(
            f"tower needs {entries} complex entries ({count} elements of size {n}, "
            f"L={L}, K={K}), over the budget of {TOWER_ENTRY_BUDGET}")


def make_block_tower(block_ranks, L: int = 1, K: int = 1, M: int = 1, *,
                     ambient: int | None = None, epsilon: float = 0.5,
                     deltas=None) -> TowerModel:
    """Tower of 0/1 diagonal projections on consecutive index ranges."""
    ranks = [int(r) for r in block_ranks]
    if any(r < 1 for r in ranks):
        raise InvalidInputError("block ranks must be positive")
    total = sum(ranks)
    n = total if ambient is None else int(ambient)
    if n < total:
        raise InvalidInputError(f"ambient size {n} too small for ranks {ranks}")
    _require_tower_budget(len(ranks), n, L, K)
    elements = []
    start = 0
    for r in ranks:
        e = np.zeros((n, n), dtype=complex)
        e[start:start + r, start:start + r] = np.eye(r)
        elements.append(e)
        start += r
    if deltas is None:
        deltas = [2.0 ** -(i + 1) for i in range(len(ranks) - 1)]
    return TowerModel(elements=elements, epsilons=[epsilon] * len(ranks),
                      L=L, K=K, M=M, deltas=list(deltas))


@dataclass
class TowerRunReport:
    stage_checks: list  # one list of BoundCheck per push step
    inblock_residual: float
    collapse_defect: float
    family_sizes: list

    @property
    def all_passed(self) -> bool:
        return all(c.passed for checks in self.stage_checks for c in checks)

    def to_json(self) -> dict:
        return {
            "stage_checks": [[c.to_json() for c in checks] for checks in self.stage_checks],
            "inblock_residual": self.inblock_residual,
            "collapse_defect": self.collapse_defect,
            "family_sizes": self.family_sizes,
            "all_passed": self.all_passed,
        }


def tower_iterate(z0, tower: TowerModel, depth: int):
    """Iterate push steps down the tower, then decompose the last remainder
    exactly inside its block.

    Stage t pushes the running remainder from block t-1 into block t
    (L(L+K-1) commutators each); the final remainder, a trace-zero Hermitian
    element of her((e_depth - eps)_+), is written as a single commutator in
    that block.  Odd stages, even stages, and the in-block pair are mutually
    orthogonal families, so collapsing slot-by-slot returns at most
    L(L+K-1) + max(M, L(L+K-1)) commutators; every merge re-checks
    orthogonality.  Returns (decomposition, report).
    """
    zm = require_hermitian(z0, name="z0")
    if not (0 <= depth <= tower.depth_limit):
        raise InvalidInputError(f"depth must lie in [0, {tower.depth_limit}]")
    n = zm.shape[0]
    if zm.shape != tower.elements[0].shape:
        raise InvalidInputError("z0 size does not match the tower")
    z_norm = operator_norm(zm)
    if abs(np.trace(zm)) > 1e-9 * n * max(1.0, z_norm):
        raise InvalidInputError("z0 must be trace zero")
    p0 = tower.spectra[0].plus.projection
    if norm_exceeds(zm - p0 @ zm @ p0, 1e-8 * max(1.0, z_norm)):
        raise PreconditionError("z0 is not supported in her((e_0 - eps_0)_+)")

    count_n = tower.L * (tower.L + tower.K - 1)
    count_bound = count_n + max(tower.M, count_n)
    if depth == 0:
        decomp = CommutatorDecomposition(
            kind=KIND_GENERAL, factors=[], residual=zm.copy(),
            claimed_bounds=[("reconstruction_residual", 1e-8 * max(1.0, z_norm)),
                            ("commutator_count", float(count_bound))])
        report = TowerRunReport(stage_checks=[], inblock_residual=z_norm,
                                collapse_defect=0.0, family_sizes=[0, 0])
        return decomp, report

    stage_pairs = []
    stage_checks = []
    z = zm
    for t in range(1, depth + 1):
        step = push_step(z, tower.spectra[t - 1], tower.spectra[t].plus, tower.L, tower.K)
        stage_pairs.append(step.pairs)
        stage_checks.append(step.checks)
        z = step.remainder

    # Exact in-block finish: compress to the final block and use the
    # two-factor shift decomposition there.
    q = tower.spectra[depth].plus.basis
    if q.shape[1] == 0:
        raise PreconditionError(f"tower block {depth} has empty support above its threshold")
    z_small = q.conj().T @ z @ q
    z_small = (z_small + z_small.conj().T) / 2.0
    r = z_small.shape[0]
    z_small -= (np.trace(z_small).real / r) * np.eye(r)  # remove float dust
    tight = tight_commutator_decompose(z_small)
    x_small, y_small = tight.factors[0]
    inblock_pair = (q @ x_small @ q.conj().T, q @ y_small @ q.conj().T)
    residual = z - commutator(*inblock_pair)

    odd_items = [stage_pairs[t - 1] for t in range(1, depth + 1) if t % 2 == 1]
    even_items = [stage_pairs[t - 1] for t in range(1, depth + 1) if t % 2 == 0]
    if depth % 2 == 0:
        odd_items.append([inblock_pair])
    else:
        even_items.append([inblock_pair])

    factors = []
    collapse_defect = 0.0
    family_sizes = []
    for items in (odd_items, even_items):
        if not items:
            family_sizes.append(0)
            continue
        slots = max(len(item) for item in items)
        family_sizes.append(slots)
        for k in range(slots):
            slot = [item[k] for item in items if k < len(item)]
            c, d, defect = collapse_orthogonal(slot)
            collapse_defect = max(collapse_defect, defect)
            factors.append((c, d))

    decomp = CommutatorDecomposition(
        kind=KIND_GENERAL,
        factors=factors,
        residual=residual,
        claimed_bounds=[
            ("reconstruction_residual", 1e-8 * max(1.0, z_norm)),
            ("residual_norm", tower.deltas[depth - 1]),
            ("commutator_count", float(count_bound)),
        ],
    )
    report = TowerRunReport(
        stage_checks=stage_checks,
        inblock_residual=operator_norm(residual),
        collapse_defect=collapse_defect,
        family_sizes=family_sizes,
    )
    return decomp, report


# --------------------------------------------------------------------------
# Two-commutator split of a block matrix with commutator diagonal sum.

@dataclass
class BlockSplitResult:
    shift_upper: np.ndarray  # S, superdiagonal partial sums
    shift_lower: np.ndarray  # E, subdiagonal unit element
    diag_part: np.ndarray    # b' = [S, E]
    rest: np.ndarray         # b'' = b - b', diagonal blocks are commutators
    checks: list

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def block_two_commutator_split(b, n_blocks: int, pairs, e) -> BlockSplitResult:
    """Split b in M_d(her) into b' = [S, E] plus b'' with commutator diagonal.

    Requires sum_i b_ii = sum_i [x_i, y_i].  S carries the partial sums
    s_i = sum_{j<=i}(b_jj - [x_j, y_j]) on the superdiagonal and E carries e
    on the subdiagonal, where e must act as a unit on every s_i; then
    [S, E] is exactly the block diagonal of the defects.
    """
    bm = as_matrix(b, square=True, name="b")
    d = int(n_blocks)
    if d < 1 or bm.shape[0] % d:
        raise InvalidInputError(f"matrix size {bm.shape[0]} is not {d} equal blocks")
    r = bm.shape[0] // d
    if len(pairs) != d:
        raise InvalidInputError("need one (x, y) pair per diagonal block")
    em = as_matrix(e, square=True, name="e")
    if em.shape[0] != r:
        raise InvalidInputError("e must have the block size")
    xy = [(as_matrix(x, square=True, name="x"), as_matrix(y, square=True, name="y"))
          for x, y in pairs]
    if any(x.shape[0] != r or y.shape[0] != r for x, y in xy):
        raise InvalidInputError("pair factors must have the block size")

    b_norm = operator_norm(bm)
    diag = [bm[i * r:(i + 1) * r, i * r:(i + 1) * r] for i in range(d)]
    comms = [commutator(x, y) for x, y in xy]
    defects = [diag[i] - comms[i] for i in range(d)]
    if d == 1:
        if norm_exceeds(defects[0], 1e-8 * max(1.0, b_norm)):
            raise InvalidInputError("with one block, b_11 must itself be [x_1, y_1]")
        zero = np.zeros_like(bm)
        checks = [BoundCheck("shift_reconstruction", 1e-9 * max(1.0, b_norm), 0.0,
                             0.0, True)]
        return BlockSplitResult(zero, zero.copy(), zero.copy(), bm.copy(), checks)
    total = sum(defects)
    if norm_exceeds(total, 1e-8 * max(1.0, b_norm)):
        raise InvalidInputError(
            "diagonal blocks minus commutators must sum to zero "
            f"(defect {operator_norm(total):.3e})")

    partial = []
    acc = np.zeros((r, r), dtype=complex)
    for i in range(d - 1):
        acc = acc + defects[i]
        partial.append(acc.copy())
    for i, s in enumerate(partial):
        unit_defects = (em @ s - s, s @ em - s)
        if not any(frobenius_bound(u) > 1e-9 for u in unit_defects):
            continue
        tol = 1e-9 * max(1.0, operator_norm(s))
        if any(operator_norm(u) > tol for u in unit_defects):
            raise PreconditionError(
                f"e does not act as a unit on partial sum {i + 1}")

    big = np.zeros_like(bm)
    shift_upper = big.copy()
    shift_lower = big.copy()
    for i in range(d - 1):
        shift_upper[i * r:(i + 1) * r, (i + 1) * r:(i + 2) * r] = partial[i]
        shift_lower[(i + 1) * r:(i + 2) * r, i * r:(i + 1) * r] = em
    diag_part = np.zeros_like(bm)
    for i in range(d):
        diag_part[i * r:(i + 1) * r, i * r:(i + 1) * r] = defects[i]
    rest = bm - diag_part

    recon_err = operator_norm(commutator(shift_upper, shift_lower) - diag_part)
    rest_diag_err = max(
        operator_norm(rest[i * r:(i + 1) * r, i * r:(i + 1) * r] - comms[i])
        for i in range(d))
    checks = [
        BoundCheck("shift_reconstruction", 1e-9 * max(1.0, b_norm), recon_err, 0.0,
                   recon_err <= 1e-9 * max(1.0, b_norm)),
        BoundCheck("rest_diagonal_is_commutators", 1e-10 * max(1.0, b_norm),
                   rest_diag_err, 0.0, rest_diag_err <= 1e-10 * max(1.0, b_norm)),
    ]
    return BlockSplitResult(shift_upper=shift_upper, shift_lower=shift_lower,
                            diag_part=diag_part, rest=rest, checks=checks)
