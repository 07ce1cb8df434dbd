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
mutually-orthogonal stages: commutators of pairs with mutually orthogonal
supports add up to one, [sum c_i, sum d_i] = sum [c_i, d_i].

``g_{eps/2}`` is the piecewise-linear ramp that is 0 on [0, eps/2] and 1 on
[eps, infinity); the only property used is g_{eps/2}(a) y = y for y
supported in her((a-eps)_+).  Each tower block's spectral data is an
``ElementSpectrum``, taken once: a ``ranks`` block's supports are its
coordinate columns in index order, with no eigendecomposition, and a given
element is eigendecomposed once.  A push step works in support
coordinates: its witness, Neumann loop and claims are r x r, on Q*xQ for
Q an orthonormal basis of its two blocks' supports (r = 32 of n = 144 on
nine rank-16 blocks).  Its pairs and remainder are embedded into M_n for
the collapse and the output, where ``tower_iterate``'s claims are measured.

Each property is checked once, by the claim that measures it.  A push step
raises on nothing it builds, nor re-checks that x lies in her((a-eps)_+):
``tower_iterate`` checks z0, and each stage's ``remainder_in_hereditary``
claim covers the next stage's input.  The collapse is a plain sum.  Its
precondition, orthogonal blocks, is checked once, by ``TowerModel`` on the
input, and the merged factors are measured by ``tower_iterate``'s
``residual_norm`` claim, norm(z0 - sum [x_k, y_k]), which ``verify``
measures again from the written factors.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import claims
from .errors import InvalidInputError
from .jsonio import TowerInput
from .matcore import (
    KIND_GENERAL,
    CommutatorDecomposition,
    VerificationReport,
    bound_checks,
    commutator,
    hermitian_eig,
    operator_norm,
)
from .selfcomm import tight_commutator_factors

NEUMANN_TOL = 1e-10
PSD_TOL = 1e-10  # most negative eigenvalue a PSD element may have, relative to its largest
NEUMANN_MAX_ITER = 10_000


def ramp(t, epsilon: float) -> np.ndarray:
    """g_{eps/2} at t: 0 on [0, eps/2], then linear, then 1 on [eps, infinity);
    the step at eps/2 where a subnormal eps overflows the quotient."""
    t = np.asarray(t, dtype=float)
    half = epsilon / 2.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return np.where(t > half, np.clip((t - half) / half, 0.0, 1.0), 0.0)


@dataclass(frozen=True)
class Support:
    """A PSD matrix B diag(values) B*, kept as an orthonormal basis B of its
    support and the positive values on it; the rank is the basis width.  The
    support projection is formed when read."""

    basis: np.ndarray
    values: np.ndarray

    @classmethod
    def from_eigen(cls, unitary, values) -> "Support":
        """Support of U diag(values) U* for nonnegative values: the columns of
        U whose value exceeds ``claims.RANK_TOL`` times the largest, in U's order."""
        top = float(np.max(values)) if values.size else 0.0
        keep = values > claims.RANK_TOL * top
        return cls(basis=unitary[:, keep], values=values[keep])

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @property
    def projection(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T


@dataclass(frozen=True)
class ElementSpectrum:
    """Spectral data of a PSD element e = U diag(lam) U* at threshold eps:
    the supports of the ramp g = g_{eps/2}(e) and of (e-eps)_+, and the
    square root of g."""

    g: Support
    plus: Support

    @classmethod
    def from_eigen(cls, unitary, lam, epsilon: float) -> "ElementSpectrum":
        return cls(g=Support.from_eigen(unitary, ramp(lam, epsilon)),
                   plus=Support.from_eigen(unitary, np.maximum(lam - epsilon, 0.0)))

    @classmethod
    def of(cls, e, epsilon: float, name: str = "matrix") -> "ElementSpectrum":
        """The spectrum of a PSD matrix, from its one eigendecomposition;
        ``name`` is the matrix's name in an error."""
        es = hermitian_eig(e, name=name)
        if es.eigenvalues.size and es.eigenvalues[0] < -claims.slack(PSD_TOL, es.eigenvalues[-1]):
            raise InvalidInputError(
                f"{name} has negative spectrum beyond tolerance: {float(es.eigenvalues[0]):.3e}")
        return cls.from_eigen(es.unitary, np.clip(es.eigenvalues, 0.0, None), epsilon)

    @classmethod
    def of_block(cls, ambient: int, start: int, rank: int, epsilon: float) -> "ElementSpectrum":
        """The spectrum of the 0/1 diagonal projection on [start, start + rank):
        its coordinate columns, in index order, each with eigenvalue 1."""
        block = np.zeros((ambient, rank), dtype=complex)
        block[start:start + rank] = np.eye(rank)
        return cls.from_eigen(block, np.ones(rank), epsilon)

    @property
    def g_sqrt(self) -> np.ndarray:
        b = self.g.basis
        return (b * np.sqrt(self.g.values)) @ b.conj().T


def cuntz_witness(a_spec: ElementSpectrum, b_support: Support, L: int, K: int) -> list:
    """The blocks ``v[i][j]`` (i < L+K-1, j < L), square of the bases' row
    count, of a block partial isometry V with V*V = g_{eps/2}(a) (x) 1_L
    and range(V) inside range(c).

    c is (a-eps)_+ on the first L-1 diagonal blocks and b on the last K;
    ``a_spec`` carries g, its square root and both supports of a, and
    ``b_support`` the support of b, on the same rows.  Requires L*rank(g)
    <= (L-1)*rank((a-eps)_+) + K*rank(b), which ``TowerModel`` checks of
    every pair of consecutive blocks before any push step.  W pairs the
    support bases of g with those of c in index order, so the construction
    is deterministic, and V is built one block column at a time as
    W_j g^{1/2}.  V itself is not checked: ``push_step`` measures its
    reconstruction, norm-product and hereditary-remainder claims on the
    pairs and remainder that V produces.
    """
    g, a_plus = a_spec.g, a_spec.plus
    n = g.basis.shape[0]
    sources = [(j, g.basis[:, s]) for j in range(L) for s in range(g.rank)]
    row_bases = [a_plus.basis] * (L - 1) + [b_support.basis] * K
    targets = [(i, q[:, t]) for i, q in enumerate(row_bases) for t in range(q.shape[1])]
    v = np.zeros(((L + K - 1) * n, L * n), dtype=complex)
    for m, (j, svec) in enumerate(sources):
        i, tvec = targets[m]
        v[i * n:(i + 1) * n, j * n:(j + 1) * n] += np.outer(tvec, svec.conj())
    g_sqrt = a_spec.g_sqrt
    for j in range(L):
        v[:, j * n:(j + 1) * n] = v[:, j * n:(j + 1) * n] @ g_sqrt

    return [[v[i * n:(i + 1) * n, j * n:(j + 1) * n] for j in range(L)]
            for i in range(L + K - 1)]


@dataclass
class PushStepResult:
    """x = sum of L(L+K-1) certified commutators + remainder in her(b)."""

    pairs: list  # (c, d) with sum [c, d] + remainder = x
    remainder: np.ndarray
    remainder_norm: float
    y: np.ndarray  # the fixed point y = x + Phi(y), in the step's support basis
    report: VerificationReport


def push_step(x, a_spec: ElementSpectrum, b_support: Support, L: int,
              K: int, *, x_norm: float | None = None) -> PushStepResult:
    """Split x in her((a-eps)_+) into L(L+K-1) commutators + her(b) remainder.

    The step works on the r x r matrices of Q*xQ, Q an orthonormal basis (a
    QR factor) of the span of g's and b's support bases; the support of
    (a-eps)_+ lies in g's.  The witness is built on the bases written in Q.
    Solves y = x + Phi(y) by iteration, where Phi averages conjugation by
    the first L-1 block rows of the witness; norm(Phi) <= (L-1)/L makes the
    iteration contract with norm(y) <= L*norm(x); it stops at
    NEUMANN_MAX_ITER steps if not before.  The commutators are
    (1/L)[v_ij*, v_ij y] over all blocks, and the remainder collects the
    last K block rows.  Every claim is measured in Q; the pairs and the
    remainder are returned embedded in M_n, y is not.  ``x`` is a complex
    n x n array; ``x_norm``, when the caller already holds
    ``operator_norm(x)``, saves taking it again.

    That x lies in her((a-eps)_+) is the caller's to check, as
    ``tower_iterate`` does: it checks z0, and each stage's
    ``remainder_in_hereditary`` claim is the next stage's precondition.
    The commutators and remainder sum to g(y - Phi(y)), so the
    reconstruction claim measures norm(x - g x), the Neumann residual and
    norm(x - QQ*xQQ*), the part of x outside Q (exactly 0 on rank towers).
    """
    if x_norm is None:
        x_norm = operator_norm(x)
    q = np.linalg.qr(np.hstack([a_spec.g.basis, b_support.basis]))[0]
    qh = q.conj().T
    g, plus, b_local = (Support(basis=qh @ s.basis, values=s.values)
                        for s in (a_spec.g, a_spec.plus, b_support))
    v = cuntz_witness(ElementSpectrum(g=g, plus=plus), b_local, L, K)
    xc = qh @ x @ q

    def conjugated(y, rows):  # (1/L) sum of v_ij y v_ij* over the block rows i
        return sum((v[i][j] @ y @ v[i][j].conj().T for i in rows for j in range(L)),
                   np.zeros_like(y)) / L

    if x_norm == 0.0:
        y = np.zeros_like(xc)
    else:
        y = xc.copy()
        for _ in range(NEUMANN_MAX_ITER):
            fy = conjugated(y, range(L - 1))  # Phi(y)
            if operator_norm(y - fy - xc) <= NEUMANN_TOL * x_norm:
                break
            y = xc + fy

    pairs = [(v[i][j].conj().T / L, v[i][j] @ y) for i in range(L + K - 1) for j in range(L)]
    remainder = conjugated(y, range(L - 1, L + K - 1))
    recon = sum(commutator(c, d) for c, d in pairs) + remainder
    recon_err = operator_norm(xc - recon) + operator_norm(x - q @ xc @ qh)
    rem_norm = operator_norm(remainder)
    worst_product = max(operator_norm(c) * operator_norm(d) for c, d in pairs)
    p_b = b_local.projection
    rem_defect = operator_norm(remainder - p_b @ remainder @ p_b)
    checks = bound_checks(claims.stage(x_norm, rem_norm, K, L * (L + K - 1)),
                          reconstruction_residual=recon_err, remainder_norm=rem_norm,
                          max_norm_product=worst_product, remainder_in_hereditary=rem_defect,
                          commutator_count=float(len(pairs)))
    return PushStepResult(pairs=[(q @ c @ qh, q @ d @ qh) for c, d in pairs],
                          remainder=q @ remainder @ qh, remainder_norm=rem_norm,
                          y=y, report=VerificationReport(checks))


# --------------------------------------------------------------------------
# Towers of orthogonal blocks and the iterated decomposition.

@dataclass
class TowerModel:
    """The blocks e_0..e_T of a decoded fack-run input, each at the input's
    one epsilon: 0/1 diagonal projections on consecutive index ranges for
    ``ranks``, else the given ``elements``.

    ``spectra`` holds one ``ElementSpectrum`` per block, read off its index
    range for ``ranks`` (disjoint ranges: orthogonal by construction).  Given
    elements must be PSD, and mutually orthogonal except blocks 0 and 1:
    stage t's factors lie on the supports of blocks t-1 and t, a collapsed
    family merges stages two apart and may take the in-block pair on block
    ``depth``, so every pair of blocks but 0 and 1 can meet in one family.
    This is the collapse's one check.  Consecutive blocks must satisfy the
    rank comparison of ``push_step``.
    """

    input: TowerInput
    spectra: list = field(init=False, repr=False)

    def __post_init__(self):
        inp = self.input
        if inp.ranks is None:
            elements = inp.elements
            norms = [operator_norm(e) for e in elements]
            for i in range(len(elements)):
                for j in range(max(i + 1, 2), len(elements)):
                    defect = operator_norm(elements[i] @ elements[j])
                    if defect > claims.slack(1e-10, norms[i] * norms[j]):
                        raise InvalidInputError(
                            f"tower blocks {i} and {j} are not orthogonal: {defect:.3e}")
            self.spectra = [ElementSpectrum.of(e, inp.epsilon, f"e_{i}")
                            for i, e in enumerate(elements)]
        else:
            self.spectra, start = [], 0
            for r in inp.ranks:
                self.spectra.append(ElementSpectrum.of_block(inp.ambient, start, r, inp.epsilon))
                start += r
        for i, (a, b) in enumerate(zip(self.spectra, self.spectra[1:])):
            lhs, rhs = inp.L * a.g.rank, (inp.L - 1) * a.plus.rank + inp.K * b.plus.rank
            if lhs > rhs:
                raise InvalidInputError(
                    f"rank condition fails between blocks {i} and {i + 1}: {lhs} > {rhs}")


@dataclass
class TowerRunReport:
    stage_checks: list  # one list of BoundCheck per push step

    @property
    def all_passed(self) -> bool:
        return all(c.passed for checks in self.stage_checks for c in checks)

    def to_json(self) -> dict:
        return {"stage_checks": [[c.to_json() for c in checks] for checks in self.stage_checks],
                "all_passed": self.all_passed}


@dataclass
class TowerDecomposition(CommutatorDecomposition):
    """z0 = sum of commutators + ``residual``, of norm ``residual_norm``:
    ``residual`` is z0 - sum [x_k, y_k], measured on the factors."""

    residual: np.ndarray
    residual_norm: float


def tower_iterate(z0, tower: TowerModel, depth: int):
    """Iterate push steps down the tower, then decompose the last remainder
    exactly inside its block.

    Stage t pushes the running remainder from block t-1 into block t
    (L(L+K-1) commutators each); the final remainder, a trace-zero Hermitian
    element of her((e_depth - eps)_+), is written as a single commutator in
    that block.  Odd stages and even stages, with the in-block pair in the
    place of stage depth + 1, form two families of mutually orthogonal
    stages, so ``collapse`` sums each slot to one pair and at most
    L(L+K-1) + max(M, L(L+K-1)) commutators remain.  ``z0`` is a
    trace-zero Hermitian matrix of the tower's size and ``depth`` lies in
    [0, T], as ``TowerInput`` admits them.
    Returns (``TowerDecomposition``, run report); the decomposition's
    report measures norm(z0 - sum [x_k, y_k]) against delta_depth (at
    depth >= 1) and the count.
    """
    inp = tower.input
    z_norm = operator_norm(z0)
    q0 = tower.spectra[0].plus.basis
    outside = operator_norm(z0 - q0 @ (q0.conj().T @ z0 @ q0) @ q0.conj().T)
    if outside > claims.z0_outside_limit(z_norm):
        raise InvalidInputError("z0 is not supported in her((e_0 - eps_0)_+)")

    factors, run = _descend(z0, z_norm, tower, depth) if depth else ([], TowerRunReport([]))
    residual = z0 - sum((commutator(c, d) for c, d in factors), np.zeros_like(z0))
    residual_norm = operator_norm(residual) if depth else z_norm
    spec = claims.tower(z_norm, inp.deltas[depth - 1] if depth else None, inp.count_bound)
    report = VerificationReport(bound_checks(
        spec, residual_norm=residual_norm, commutator_count=float(len(factors))))
    return TowerDecomposition(kind=KIND_GENERAL, factors=factors, report=report,
                              residual=residual, residual_norm=residual_norm), run


def _descend(z0, z_norm: float, tower: TowerModel, depth: int):
    """``tower_iterate``'s push steps, in-block finish and collapse, for
    depth >= 1: returns (factors, run report)."""
    stage_pairs, stage_checks = [], []
    z, x_norm = z0, z_norm
    for t in range(1, depth + 1):
        step = push_step(z, tower.spectra[t - 1], tower.spectra[t].plus, tower.input.L,
                         tower.input.K, x_norm=x_norm)
        stage_pairs.append(step.pairs)
        stage_checks.append(step.report.bound_checks)
        z, x_norm = step.remainder, step.remainder_norm

    # Exact in-block finish: compress to the final block and use the
    # two-factor shift decomposition there.
    q = tower.spectra[depth].plus.basis
    if q.shape[1] == 0:
        raise InvalidInputError(f"tower block {depth} has empty support above its threshold")
    z_small = q.conj().T @ z @ q
    z_small = (z_small + z_small.conj().T) / 2.0
    x_small, y_small, _ = tight_commutator_factors(z_small)
    inblock_pair = (q @ x_small @ q.conj().T, q @ y_small @ q.conj().T)

    # stage t sits at index t - 1 and the in-block pair at index depth
    stages = stage_pairs + [[inblock_pair]]
    factors = []
    for items in (stages[0::2], stages[1::2]):  # odd stages, even stages
        for k in range(max((len(item) for item in items), default=0)):
            factors.append(collapse([item[k] for item in items if k < len(item)]))

    return factors, TowerRunReport(stage_checks)


def collapse(pairs):
    """(sum c_i, sum d_i) of a non-empty list of pairs with mutually
    orthogonal supports, whose one commutator is sum [c_i, d_i].  The
    orthogonality is ``TowerModel``'s check of the blocks."""
    return sum(c for c, _ in pairs), sum(d for _, d in pairs)


# --------------------------------------------------------------------------
# Two-commutator split of a block matrix with commutator diagonal sum.

@dataclass
class BlockSplitResult:
    shift_upper: np.ndarray  # S, superdiagonal partial sums
    shift_lower: np.ndarray  # E, subdiagonal unit element
    diag_part: np.ndarray    # b' = [S, E]
    rest: np.ndarray         # b'' = b - b', diagonal blocks are commutators
    report: VerificationReport


def block_two_commutator_split(b, d: int, pairs, e) -> BlockSplitResult:
    """Split b in M_d(her) into b' = [S, E] plus b'' with commutator diagonal.

    Requires sum_i b_ii = sum_i [x_i, y_i].  S carries the partial sums
    s_i = sum_{j<=i}(b_jj - [x_j, y_j]) on the superdiagonal and E carries e
    on the subdiagonal, where e must act as a unit on every s_i; then
    [S, E] is exactly the block diagonal of the defects.  The complex
    arrays are in ``require_block_layout``'s layout, as ``decode_input``
    admits them.
    """
    r = b.shape[0] // d
    b_norm = operator_norm(b)
    diag = [b[i * r:(i + 1) * r, i * r:(i + 1) * r] for i in range(d)]
    comms = [commutator(x, y) for x, y in pairs]
    defects = [diag[i] - comms[i] for i in range(d)]
    if d == 1:
        if operator_norm(defects[0]) > claims.one_block_limit(b_norm):
            raise InvalidInputError("with one block, b_11 must itself be [x_1, y_1]")
        zero = np.zeros_like(b)
        report = VerificationReport(bound_checks(claims.split(b_norm, d),
                                                 shift_reconstruction=0.0))
        return BlockSplitResult(zero, zero.copy(), zero.copy(), b.copy(), report)
    total = operator_norm(sum(defects))
    if total > claims.slack(1e-8, b_norm):
        raise InvalidInputError(
            f"diagonal blocks minus commutators must sum to zero (defect {total:.3e})")

    partial = []
    acc = np.zeros((r, r), dtype=complex)
    for i in range(d - 1):
        acc = acc + defects[i]
        partial.append(acc.copy())
    for i, s in enumerate(partial):
        defect = max(operator_norm(e @ s - s), operator_norm(s @ e - s))
        if defect > claims.slack(1e-9, operator_norm(s)):
            raise InvalidInputError(f"e does not act as a unit on partial sum {i + 1}")

    shift_upper, shift_lower = np.zeros_like(b), np.zeros_like(b)
    for i in range(d - 1):
        shift_upper[i * r:(i + 1) * r, (i + 1) * r:(i + 2) * r] = partial[i]
        shift_lower[(i + 1) * r:(i + 2) * r, i * r:(i + 1) * r] = e
    diag_part = np.zeros_like(b)
    for i in range(d):
        diag_part[i * r:(i + 1) * r, i * r:(i + 1) * r] = defects[i]
    rest = b - diag_part

    recon_err = operator_norm(commutator(shift_upper, shift_lower) - diag_part)
    rest_diag_err = max(
        operator_norm(rest[i * r:(i + 1) * r, i * r:(i + 1) * r] - comms[i])
        for i in range(d))
    checks = bound_checks(claims.split(b_norm, d), shift_reconstruction=recon_err,
                          rest_diagonal_is_commutators=rest_diag_err)
    return BlockSplitResult(shift_upper=shift_upper, shift_lower=shift_lower,
                            diag_part=diag_part, rest=rest, report=VerificationReport(checks))
