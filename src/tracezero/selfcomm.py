"""Single-commutator decompositions of Hermitian matrices.

Both constructions diagonalize, take the eigenvalues less their mean (the
spectrum of a - (tr a/n)*1), reorder them so the running partial sums stay
inside a controlled window, and realize the reordered diagonal as a
commutator of (weighted) shift matrices.  They leave (tr a/n)*1, closer to
a than any sum of commutators comes, which the reconstruction claim judges:

* ``greedy_nonneg_order`` keeps partial sums in [0, 2*max|eigenvalue|], so
  a = [x*, x] with a single factor satisfying norm(x)^2 <= 2*norm(a);
* ``signed_order`` keeps them in [-max, +max], so a = [x, y] with
  norm(x)*norm(y) <= norm(a).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .claims import NORM_CLAIMS, norm_ratio, single
from .errors import InvalidInputError
from .matcore import (
    KIND_GENERAL,
    KIND_SELF,
    CommutatorDecomposition,
    VerificationReport,
    as_matrix,
    bound_checks,
    commutator,
    hermitian_eig,
    operator_norm,
)


@dataclass(frozen=True)
class PartialSumOrder:
    """A visiting order of the eigenvalues and its running partial sums: a
    tuple and a vector for one multiset, (V, n) arrays for V rows of them."""

    permutation: tuple
    partial_sums: np.ndarray


def _rows(eigenvalues) -> np.ndarray:
    """A 2-d array of rows as given; anything else as one row."""
    lam = np.asarray(eigenvalues, dtype=float)
    rows = lam if lam.ndim == 2 else lam.ravel()[None]
    if rows.shape[1] == 0:
        raise InvalidInputError("empty eigenvalue list")
    return rows


def _visit(rows: np.ndarray, choose) -> np.ndarray:
    """The visiting order (count, n) of every row at once.  Each step asks
    ``choose(s, remaining)``, given the running sums and the mask of values
    not yet taken, for a pool of remaining values and a key per value, and
    takes the pool's first value of largest key: one masked ``argmax`` per
    row, which takes the first of equal keys."""
    count, n = rows.shape
    remaining = np.ones(rows.shape, dtype=bool)
    at = np.arange(count)
    perm = np.empty(rows.shape, dtype=np.intp)
    s = np.zeros(count)
    for step in range(n):
        pool, key = choose(s, remaining)
        pick = np.argmax(np.where(pool, key, -np.inf), axis=1)
        remaining[at, pick] = False
        s = s + rows[at, pick]
        perm[:, step] = pick
    return perm


def _ordered(eigenvalues, rows, perm) -> PartialSumOrder:
    """The order: a tuple and a vector for one multiset, else arrays."""
    sums = np.cumsum(np.take_along_axis(rows, perm, axis=1), axis=1)
    if np.ndim(eigenvalues) == 2:
        return PartialSumOrder(permutation=perm, partial_sums=sums)
    return PartialSumOrder(permutation=tuple(perm[0].tolist()), partial_sums=sums[0])


def greedy_nonneg_order(eigenvalues) -> PartialSumOrder:
    """Order a multiset so that, if its sum is zero, partial sums stay in
    [0, 2*max|value|]; each row of a 2-d array is one multiset, and all rows
    are ordered at once.

    Rule: while the running sum is below max|value| and a nonnegative value
    remains, take the largest remaining nonnegative value; otherwise take the
    largest (closest to zero) remaining negative value.  Ties break on the
    original index.
    """
    rows = _rows(eigenvalues)
    mx = np.max(np.abs(rows), axis=1)
    nonneg, neg = rows >= 0.0, rows < 0.0

    def choose(s, remaining):
        up, down = remaining & nonneg, remaining & neg
        use_up = (s < mx) & up.any(axis=1) | ~down.any(axis=1)
        return np.where(use_up[:, None], up, down), rows

    return _ordered(eigenvalues, rows, _visit(rows, choose))


def signed_order(eigenvalues) -> PartialSumOrder:
    """Order a multiset so that, if its sum is zero, partial sums stay in
    [-max, +max]; each row of a 2-d array is one multiset.

    Rule: take the largest remaining value while the running sum is <= 0,
    else the smallest, the first maximum of the negated values.  Ties break
    on the original index.
    """
    rows = _rows(eigenvalues)
    perm = _visit(rows, lambda s, left: (left, np.where((s <= 0.0)[:, None], rows, -rows)))
    return _ordered(eigenvalues, rows, perm)


def _trace_free(eigenvalues: np.ndarray) -> np.ndarray:
    """Each row of eigenvalues less its mean: the spectrum of a - (tr a/n)*1,
    which no sum of commutators can leave closer to a than |tr a|/n."""
    return eigenvalues - eigenvalues.mean(axis=-1, keepdims=True)


def self_commutator_factors(stack):
    """Write the trace-free part a_v - (tr a_v/n)*1 of each Hermitian a_v of
    a stack (V, n, n) as [x_v*, x_v].

    Returns the factors x as a (V, n, n) stack and the norms max|eigenvalue
    of a_v|.  One ``hermitian_eig`` of the stack, one ``greedy_nonneg_order``
    of its trace-free eigenvalue rows and one batched product x = u shift u*,
    where u holds the eigenvectors in visiting order and shift is the
    weighted lower shift with weights sqrt(s_k); then a_v - [x*, x] is
    (tr a_v/n)*1 and norm(x)^2 = max s_k <= 2*max|trace-free eigenvalue|.
    Each x_v is bit for bit what a_v gives alone, and a stack that fails
    raises what decomposing its matrices in order would raise first.
    """
    es = hermitian_eig(np.asarray(stack, dtype=complex), name="a")
    order = greedy_nonneg_order(_trace_free(es.eigenvalues))
    count, n = order.partial_sums.shape
    shift = np.zeros((count, n, n), dtype=complex)
    k = np.arange(n - 1)
    shift[:, k + 1, k] = np.sqrt(np.clip(order.partial_sums[:, :-1], 0.0, None))
    u = np.take_along_axis(es.unitary, order.permutation[:, None, :], axis=2)
    x = u @ shift @ u.conj().swapaxes(1, 2)
    return x, np.max(np.abs(es.eigenvalues), axis=1)


def _single_commutator(am, command: str, kind: str, factor, comm, a_norm: float, worst):
    """The decomposition a = comm with no residual, and its report: the claims
    of ``command``, bounded at ``a_norm``, the norm claim on ``worst``."""
    err, a_svd_norm = operator_norm(am - comm), operator_norm(am)
    name, _ = NORM_CLAIMS[command]
    checks = bound_checks(single(command, a_norm, a_svd_norm), reconstruction_residual=err,
                          **{name: norm_ratio(worst, a_svd_norm)[0]})
    return CommutatorDecomposition(kind=kind, factors=[factor], report=VerificationReport(checks))


def self_commutator_decompose(a) -> CommutatorDecomposition:
    """Write a Hermitian matrix as a single [x*, x], the V = 1 case of
    ``self_commutator_factors``, claiming norm(x)^2 <= 2*norm(a) and a
    reconstruction residual, |tr a|/n up to rounding, within its bound."""
    am = as_matrix(a, square=True, name="a")
    x, norms = self_commutator_factors(am[None])
    x = x[0]
    return _single_commutator(am, "decompose", KIND_SELF, x, commutator(x.conj().T, x),
                              float(norms[0]), operator_norm(x) ** 2)


def tight_commutator_factors(a):
    """Write the trace-free part a - (tr a/n)*1 of a Hermitian matrix as a
    single [x, y].

    Uses ``signed_order`` of the trace-free eigenvalues and the shift
    identity: with s_k on the superdiagonal of x and ones on the subdiagonal
    of y, [x, y] is the reordered diagonal, whence norm(x)*norm(y) =
    max|s_k| <= max|eigenvalue less the mean|.  Returns x, y and
    max|eigenvalue of a|.
    """
    es = hermitian_eig(a, name="a")
    order = signed_order(_trace_free(es.eigenvalues))
    n = es.eigenvalues.shape[0]
    a_norm = float(np.max(np.abs(es.eigenvalues)))
    if n == 1 or a_norm == 0.0:
        return np.zeros((n, n), dtype=complex), np.zeros((n, n), dtype=complex), a_norm
    k = np.arange(n - 1)
    sup, sub = np.zeros((2, n, n), dtype=complex)
    sup[k, k + 1] = order.partial_sums[:-1]
    sub[k + 1, k] = 1.0
    u = es.unitary[:, list(order.permutation)]
    return u @ sup @ u.conj().T, u @ sub @ u.conj().T, a_norm


def tight_commutator_decompose(a) -> CommutatorDecomposition:
    """``tight_commutator_factors`` with its measured claims, among them
    norm(x)*norm(y) <= norm(a) and the reconstruction residual."""
    x, y, a_norm = tight_commutator_factors(a)
    return _single_commutator(as_matrix(a, square=True, name="a"), "decompose-tight",
                              KIND_GENERAL, (x, y), commutator(x, y), a_norm,
                              operator_norm(x) * operator_norm(y))
