"""Dense complex-matrix substrate shared by every decomposition routine.

Matrices are plain complex128 numpy arrays; the structured results
(eigensystems, commutator decompositions, verification reports) are small
dataclasses.  Conventions fixed here and relied on everywhere else:

* ``operator_norm`` is the largest singular value; every norm that is
  reported or compared is one, and the largest norm of a stack is
  ``max_operator_norm``, one batched SVD of the stack;
* ``hermitian_eig`` returns eigenvalues ascending with a deterministic
  eigenvector phase (the first component of modulus > 1e-8 is made real
  positive, dividing by its modulus as scalar ``abs`` takes it), so
  bit-identical inputs give bit-identical output; it takes a matrix or a
  stack of them, and each matrix of a stack comes out bit for bit as it
  would alone;
* a constructor measures each claim of ``tracezero.claims`` on the
  matrices it holds (``bound_checks``), and does not also raise on it;
  the independent re-measuring is ``tracezero.certcheck``'s.

All operations are pure and never mutate their inputs.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .claims import TINY
from .errors import InvalidInputError

HERMITIAN_TOL = 1e-12
NOT_HERMITIAN = f"is not Hermitian within {HERMITIAN_TOL} of its largest entry"
PHASE_CUTOFF = 1e-8
MAX_FLOAT = float(np.finfo(float).max)


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
    """xy - yx for square arrays of equal shape."""
    return x @ y - y @ x


def operator_norm(a) -> float:
    """Largest singular value; 0.0 for a zero (or empty) matrix, without an SVD."""
    m = as_matrix(a)
    if not m.any():
        return 0.0
    return float(np.linalg.norm(m, 2))


def operator_norms(stack) -> np.ndarray:
    """``operator_norm`` of every matrix of a stack (k, rows, cols), bit for
    bit, from one batched SVD."""
    m = np.asarray(stack, dtype=complex)
    if not np.isfinite(m).all():
        raise InvalidInputError("matrix has non-finite entries")
    return np.linalg.norm(m, 2, axis=(1, 2))


def max_operator_norm(stack) -> float:
    """Exactly ``max(operator_norm(m) for m in stack)``, 0.0 for an empty stack."""
    return float(operator_norms(stack).max(initial=0.0))


def is_hermitian(a) -> bool:
    """max |a - a*| <= HERMITIAN_TOL * max |a| + TINY entrywise, as claims.slack."""
    return bool(_hermitian_each(as_matrix(a, square=True)))


def _hermitian_each(m) -> np.ndarray:
    """``is_hermitian``'s rule on a matrix, or on each matrix of a stack.

    Both sides are taken on m/4, where neither m - m* nor a modulus can
    overflow, with the absolute term TINY/4.  Scaling by 4 is exact on normal
    floats, and subnormal rounding (at most 2^-1075) is far below TINY/4, so
    the verdict is the unscaled rule's wherever that rule does not overflow."""
    q = m / 4.0
    return (np.max(np.abs(q - q.conj().swapaxes(-1, -2)), axis=(-2, -1), initial=0.0)
            <= HERMITIAN_TOL * np.max(np.abs(q), axis=(-2, -1), initial=0.0) + TINY / 4.0)


def require_hermitian(m, name: str = "matrix") -> np.ndarray:
    """``m``, a decoded matrix, when it is Hermitian."""
    if not is_hermitian(m):
        raise InvalidInputError(f"{name} {NOT_HERMITIAN}")
    return m


def require_block_layout(n: int, d: int, pairs, e) -> int:
    """The block size r of an n x n matrix cut into d >= 1 equal blocks, with
    one (x, y) pair of r x r factors per block and e of size r."""
    if n % d:
        raise InvalidInputError(f"matrix size {n} is not {d} equal blocks")
    r = n // d
    if len(pairs) != d:
        raise InvalidInputError("need one (x, y) pair per diagonal block")
    if e.shape[0] != r:
        raise InvalidInputError("e must have the block size")
    if any(x.shape[0] != r or y.shape[0] != r for x, y in pairs):
        raise InvalidInputError("pair factors must have the block size")
    return r


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues and a unitary whose columns are eigenvectors."""

    eigenvalues: np.ndarray
    unitary: np.ndarray


def raise_first_failure(checks):
    """Raise what checking the matrices of a stack one at a time would
    raise first.

    ``checks`` lists, in the order one matrix is checked, pairs (fails,
    message): ``fails`` marks the matrices that fail the check and
    ``message(k)`` words matrix k's failure.  The ``InvalidInputError``
    raised is the first failing matrix's first failing check, with that
    matrix's position in the stack as ``index``.
    """
    fails = np.array([flags for flags, _ in checks], dtype=bool)
    if fails.any():
        k = int(np.argmax(fails.any(axis=0)))
        err = InvalidInputError(checks[int(np.argmax(fails[:, k]))][1](k))
        err.index = k
        raise err


def _fix_phases(u: np.ndarray) -> np.ndarray:
    """Make the first component of modulus > PHASE_CUTOFF of every column
    real positive, in a stack of unitaries.  The pivot p's modulus is
    hypot(p.real, p.imag), as scalar ``abs`` takes it: ``np.abs`` of a
    complex array can differ from it in the last bit."""
    big = np.abs(u) > PHASE_CUTOFF
    has = big.any(axis=-2, keepdims=True)
    pivot = np.take_along_axis(u, np.argmax(big, axis=-2)[..., None, :], axis=-2)
    pivot = np.where(has, pivot, 1.0)
    return np.where(has, u * (np.conj(pivot) / np.hypot(pivot.real, pivot.imag)), u)


def hermitian_eig(a, name: str = "matrix") -> EigenSystem:
    """Diagonalize a Hermitian n x n array, n >= 1, with the deterministic
    phase convention, or each matrix of a stack (V, n, n) at once: one ``eigh`` of
    (m + m*)/2, which must not overflow and whose eigenvalues must have
    modulus at most MAX_FLOAT / n, so that no sum of them overflows, and one
    phase fix.  A matrix is the V = 1 stack.  A stack that fails its input
    checks raises as ``raise_first_failure`` says; the output is unchecked
    (``eigh`` is backward stable), and its callers' claims measure it."""
    m = np.asarray(a, dtype=complex)
    stack = m[None] if m.ndim == 2 else m
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        stack = np.where(finite[:, None, None], stack, 0.0)
    hermitian = _hermitian_each(stack)
    with np.errstate(over="ignore", invalid="ignore"):
        sym = (stack + stack.conj().swapaxes(1, 2)) / 2.0
    in_range = np.isfinite(sym).all(axis=(1, 2))
    if not in_range.all():
        sym = np.where(in_range[:, None, None], sym, 0.0)
    eigenvalues, u = np.linalg.eigh(sym)
    # A sum of eigenvalues is at most n * norm(a) in modulus; an eigenvalue
    # beyond the float maximum comes back as inf and fails the rule too.
    norm_limit = MAX_FLOAT / stack.shape[1]
    in_norm = np.max(np.abs(eigenvalues), axis=1, initial=0.0) <= norm_limit
    raise_first_failure([
        (~finite, lambda k: f"{name} has non-finite entries"),
        (~hermitian, lambda k: f"{name} {NOT_HERMITIAN}"),
        (~in_range, lambda k: f"{name} has entries beyond about {MAX_FLOAT / 2:.3e} in "
                              "magnitude, where m + m* overflows a float"),
        (~in_norm, lambda k: f"{name} has norm beyond {norm_limit:.3e}, the float maximum "
                             f"over its size {stack.shape[1]}, where a sum of its "
                             "eigenvalues can overflow"),
    ])
    u = _fix_phases(u)
    if m.ndim == 2:
        return EigenSystem(eigenvalues=eigenvalues[0], unitary=u[0])
    return EigenSystem(eigenvalues=eigenvalues, unitary=u)


# --------------------------------------------------------------------------
# Commutator decompositions and their verification reports.

KIND_SELF = "self_commutators"
KIND_GENERAL = "general_commutators"


@dataclass(frozen=True)
class BoundCheck:
    name: str
    claimed_bound: float
    measured_value: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.measured_value <= self.claimed_bound + self.tolerance)

    def to_json(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def bound_checks(spec: dict, **measured) -> list:
    """A ``BoundCheck`` per claim of ``spec`` ({name: (bound, tolerance, scale)},
    from ``tracezero.claims``), in its order, measured as ``measured`` says."""
    return [BoundCheck(name, bound, measured[name], tolerance)
            for name, (bound, tolerance, _) in spec.items()]


@dataclass
class VerificationReport:
    """A construction's claims, each measured where it was made: the one
    report type, and the only place its bounds are stated."""

    bound_checks: list

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.bound_checks)

    def to_json(self) -> dict:
        return {"bound_checks": [c.to_json() for c in self.bound_checks],
                "all_passed": self.all_passed}


@dataclass
class CommutatorDecomposition:
    """A certified decomposition of a into a sum of commutators.

    For ``self_commutators`` each factor is a single matrix x contributing
    [x*, x]; for ``general_commutators`` each factor is a pair (x, y)
    contributing [x, y].  ``report`` holds the claims its constructor
    measured on these matrices.
    """

    kind: str
    factors: list
    report: VerificationReport
