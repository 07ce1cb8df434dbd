"""Dense complex-matrix substrate shared by every decomposition routine.

Matrices are plain complex128 numpy arrays; the structured results
(eigensystems, commutator decompositions, verification reports) are small
dataclasses.  Conventions fixed here and relied on everywhere else:

* ``operator_norm`` is the largest singular value; every norm a result
  reports is one.  A norm that only decides pass or fail goes through
  ``norm_exceeds``, which settles the comparison by the Frobenius bound
  and takes the SVD only when that bound cannot;
* a product that ``NonzeroPattern`` proves exactly zero need not be formed;
* ``hermitian_eig`` returns eigenvalues ascending with a deterministic
  eigenvector phase (the first component of modulus > 1e-8 is made real
  positive), so bit-identical inputs give bit-identical output;
* ``verify_decomposition`` re-measures every bound a decomposition claims
  and reports one pass/fail check per claim.

All operations are pure and never mutate their inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericsError

HERMITIAN_TOL = 1e-12
EIG_TOL = 1e-10  # unitarity and reconstruction checks of hermitian_eig
PHASE_CUTOFF = 1e-8
# The Frobenius screen.  np.linalg.norm sums unscaled squares: below the
# floor, squares of small entries may have underflowed, so the sum can miss
# them; the margin covers SVD rounding where the two norms agree (rank 1).
FROBENIUS_FLOOR = 1e-140
FROBENIUS_MARGIN = 1e-6


def as_matrix(a, *, square: bool = False, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-d complex array, without copying when possible."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise InvalidInputError(f"{name} has non-finite entries")
    if square and m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"{name} must be square, got shape {m.shape}")
    return m


def commutator(x, y) -> np.ndarray:
    """xy - yx for square matrices of equal size."""
    xm = as_matrix(x, square=True, name="x")
    ym = as_matrix(y, square=True, name="y")
    if xm.shape != ym.shape:
        raise InvalidInputError(f"commutator size mismatch: {xm.shape} vs {ym.shape}")
    return xm @ ym - ym @ xm


def operator_norm(a) -> float:
    """Largest singular value."""
    m = as_matrix(a)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def frobenius_bound(m) -> float:
    """A sound upper bound on ``operator_norm(m)`` from ||m||_2 <= ||m||_F.

    Exact 0 only for the zero matrix; inf, meaning "take the SVD", where
    the unscaled sum of squares may have underflowed or overflowed.
    """
    m = np.asarray(m)
    with np.errstate(over="ignore"):
        f = float(np.linalg.norm(m))
    if f == 0.0 and not m.any():
        return 0.0
    if not FROBENIUS_FLOOR <= f < math.inf:
        return math.inf
    return f * (1.0 + FROBENIUS_MARGIN)


def norm_exceeds(m, bound: float) -> bool:
    """Exactly ``operator_norm(m) > bound``; the SVD runs only when the
    Frobenius bound cannot settle the comparison."""
    return frobenius_bound(m) > bound and operator_norm(m) > bound


@dataclass(frozen=True)
class NonzeroPattern:
    """Which rows and which columns of a matrix hold a nonzero entry.

    The structural-zero screen: for finite matrices, ``a @ b`` is exactly
    the zero matrix when no index k has column k of a and row k of b both
    nonzero, since every term of every entry then has a factor +-0.
    """

    rows: np.ndarray
    cols: np.ndarray

    @classmethod
    def of(cls, m) -> "NonzeroPattern":
        nonzero = np.asarray(m) != 0
        return cls(rows=nonzero.any(axis=1), cols=nonzero.any(axis=0))

    @property
    def adjoint(self) -> "NonzeroPattern":
        return NonzeroPattern(rows=self.cols, cols=self.rows)

    def product_vanishes(self, right: "NonzeroPattern") -> bool:
        """True when (this matrix) @ (right's matrix) is exactly zero."""
        return not np.any(self.cols & right.rows)


def max_abs(a) -> float:
    m = as_matrix(a)
    return float(np.max(np.abs(m))) if m.size else 0.0


def hermitian_defect(a) -> float:
    m = as_matrix(a, square=True)
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def is_hermitian(a) -> bool:
    m = as_matrix(a, square=True)
    return hermitian_defect(m) <= HERMITIAN_TOL * (1.0 + max_abs(m))


def require_hermitian(a, name: str = "matrix") -> np.ndarray:
    m = as_matrix(a, square=True, name=name)
    if not is_hermitian(m):
        raise InvalidInputError(f"{name} is not Hermitian within tolerance {HERMITIAN_TOL}")
    return m


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues and a unitary whose columns are eigenvectors."""

    eigenvalues: np.ndarray
    unitary: np.ndarray


def _fix_phases(u: np.ndarray) -> np.ndarray:
    """Make the first component of modulus > PHASE_CUTOFF real positive."""
    u = u.copy()
    for j in range(u.shape[1]):
        col = u[:, j]
        big = np.flatnonzero(np.abs(col) > PHASE_CUTOFF)
        if big.size:
            pivot = col[big[0]]
            u[:, j] = col * (np.conj(pivot) / abs(pivot))
    return u


def hermitian_eig(a) -> EigenSystem:
    """Diagonalize a Hermitian matrix with the deterministic phase convention."""
    m = require_hermitian(a)
    h = (m + m.conj().T) / 2.0
    eigenvalues, u = np.linalg.eigh(h)
    u = _fix_phases(u)
    n = m.shape[0]
    if norm_exceeds(u @ u.conj().T - np.eye(n), EIG_TOL):
        raise NumericsError("eigenvector matrix failed the unitarity check")
    recon_err = m - (u * eigenvalues) @ u.conj().T
    if (frobenius_bound(recon_err) > EIG_TOL
            and operator_norm(recon_err) > EIG_TOL * max(1.0, operator_norm(m))):
        raise NumericsError("eigendecomposition failed the reconstruction check")
    return EigenSystem(eigenvalues=eigenvalues, unitary=u)


# --------------------------------------------------------------------------
# Commutator decompositions and their verification reports.

KIND_SELF = "self_commutators"
KIND_GENERAL = "general_commutators"


@dataclass
class CommutatorDecomposition:
    """A certified decomposition a = sum of commutators + residual.

    ``kind`` selects the reconstruction rule: for ``self_commutators`` each
    factor is a single matrix x contributing [x*, x]; for
    ``general_commutators`` each factor is a pair (x, y) contributing [x, y].
    ``claimed_bounds`` is an ordered list of (name, upper bound) claims that
    ``verify_decomposition`` knows how to re-measure.
    """

    kind: str
    factors: list
    residual: np.ndarray
    claimed_bounds: list

    def __post_init__(self):
        if self.kind not in (KIND_SELF, KIND_GENERAL):
            raise InvalidInputError(f"unknown decomposition kind: {self.kind!r}")
        self.residual = as_matrix(self.residual, square=True, name="residual")

    def reconstruction(self) -> np.ndarray:
        total = np.zeros_like(self.residual)
        for factor in self.factors:
            if self.kind == KIND_SELF:
                x = as_matrix(factor, square=True, name="factor")
                total += commutator(x.conj().T, x)
            else:
                x, y = factor
                total += commutator(x, y)
        return total

    def factor_count(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class BoundCheck:
    name: str
    claimed_bound: float
    measured_value: float
    tolerance: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "claimed_bound": self.claimed_bound,
            "measured_value": self.measured_value,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


@dataclass
class VerificationReport:
    residual_norm: float
    commutator_count: int
    bound_checks: list

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.bound_checks)

    def to_json(self) -> dict:
        return {
            "residual_norm": self.residual_norm,
            "commutator_count": self.commutator_count,
            "bound_checks": [c.to_json() for c in self.bound_checks],
            "all_passed": self.all_passed,
        }


def _measure_bound(name: str, a: np.ndarray, decomp: CommutatorDecomposition,
                   a_norm: float, recon: np.ndarray):
    """Return (measured value, comparison tolerance) for a named claim."""
    if name == "reconstruction_residual":
        return operator_norm(a - recon - decomp.residual), 0.0
    if name == "norm_sq_over_norm_a":
        worst = max((operator_norm(x) ** 2 for x in decomp.factors), default=0.0)
        if a_norm == 0.0:
            return (0.0 if worst <= 1e-9 else np.inf), 0.0
        return worst / a_norm, 1e-9 / a_norm
    if name == "norm_product_over_norm_a":
        worst = max((operator_norm(x) * operator_norm(y) for x, y in decomp.factors),
                    default=0.0)
        if a_norm == 0.0:
            return (0.0 if worst <= 1e-9 else np.inf), 0.0
        return worst / a_norm, 1e-9 / a_norm
    if name == "residual_norm":
        return operator_norm(decomp.residual), 1e-12
    if name == "commutator_count":
        return float(decomp.factor_count()), 0.0
    raise InvalidInputError(f"unknown bound name: {name!r}")


def verify_decomposition(a, decomp: CommutatorDecomposition) -> VerificationReport:
    """Re-measure every bound the decomposition claims.

    The headline ``residual_norm`` is the distance from ``a`` to the bare sum
    of commutators; the declared residual matrix is accounted for by the
    ``reconstruction_residual`` check.
    """
    am = as_matrix(a, square=True, name="a")
    for factor in decomp.factors:
        x = factor if decomp.kind == KIND_SELF else factor[0]
        if as_matrix(x).shape != am.shape:
            raise InvalidInputError("factor dimensions do not match the element")
    if decomp.residual.shape != am.shape:
        raise InvalidInputError("residual dimensions do not match the element")
    recon = decomp.reconstruction()
    a_norm = operator_norm(am)
    checks = []
    for name, claimed in decomp.claimed_bounds:
        measured, tol = _measure_bound(name, am, decomp, a_norm, recon)
        checks.append(BoundCheck(
            name=name,
            claimed_bound=float(claimed),
            measured_value=float(measured),
            tolerance=tol,
            passed=bool(measured <= claimed + tol),
        ))
    return VerificationReport(
        residual_norm=operator_norm(am - recon),
        commutator_count=decomp.factor_count(),
        bound_checks=checks,
    )
