"""Single-commutator decompositions of trace-zero Hermitian matrices.

Both constructions diagonalize, reorder the eigenvalues so the running
partial sums stay inside a controlled window, and realize the reordered
diagonal as a commutator of (weighted) shift matrices:

* ``greedy_nonneg_order`` keeps partial sums in [0, 2*max|eigenvalue|], so
  a = [x*, x] with a single factor satisfying norm(x)^2 <= 2*norm(a);
* ``signed_order`` keeps them in [-max, +max], so a = [x, y] with
  norm(x)*norm(y) <= norm(a).

``collapse_orthogonal`` merges commutator pairs whose factors have mutually
orthogonal supports into one pair, which is how iterated block
decompositions keep their final count small.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericsError, PreconditionError
from .matcore import (
    KIND_GENERAL,
    KIND_SELF,
    CommutatorDecomposition,
    NonzeroPattern,
    as_matrix,
    commutator,
    frobenius_bound,
    hermitian_eig,
    operator_norm,
    require_hermitian,
)

TRACE_TOL = 1e-9
PRODUCT_TOL = 1e-10  # largest cross product collapse_orthogonal accepts


@dataclass(frozen=True)
class PartialSumOrder:
    """A visiting order of the eigenvalues and its running partial sums."""

    permutation: tuple
    partial_sums: np.ndarray


def _check_near_zero_sum(lam: np.ndarray, trace_tol: float):
    mx = float(np.max(np.abs(lam))) if lam.size else 0.0
    if abs(float(np.sum(lam))) > trace_tol * lam.size * mx:
        raise InvalidInputError(
            f"trace too far from zero: sum={float(np.sum(lam)):.3e}, "
            f"allowed {trace_tol * lam.size * mx:.3e}")
    return mx


def _finish_order(lam: np.ndarray, perm: list, mx: float) -> PartialSumOrder:
    sums = np.cumsum(lam[perm])
    slack = 1e-10 * lam.size * mx + 1e-30
    if abs(sums[-1]) > slack:
        raise NumericsError("partial sums failed to return to zero")
    return PartialSumOrder(permutation=tuple(perm), partial_sums=sums)


def greedy_nonneg_order(eigenvalues, *, trace_tol: float = TRACE_TOL) -> PartialSumOrder:
    """Order a zero-sum multiset so partial sums stay in [0, 2*max|value|].

    Rule: while the running sum is below max|value| and a nonnegative value
    remains, take the largest remaining nonnegative value; otherwise take the
    largest (closest to zero) remaining negative value.  Ties break on the
    original index.
    """
    lam = np.asarray(eigenvalues, dtype=float).ravel()
    if lam.size == 0:
        raise InvalidInputError("empty eigenvalue list")
    mx = _check_near_zero_sum(lam, trace_tol)
    remaining = list(range(lam.size))
    perm = []
    s = 0.0
    while remaining:
        nonneg = [i for i in remaining if lam[i] >= 0.0]
        neg = [i for i in remaining if lam[i] < 0.0]
        if s < mx and nonneg:
            pick = max(nonneg, key=lambda i: (lam[i], -i))
        elif neg:
            pick = max(neg, key=lambda i: (lam[i], -i))
        else:  # only float dust can land here
            pick = max(nonneg, key=lambda i: (lam[i], -i))
        remaining.remove(pick)
        s += lam[pick]
        perm.append(pick)
    order = _finish_order(lam, perm, mx)
    slack = 1e-10 * lam.size * mx + 1e-30
    if np.min(order.partial_sums) < -slack or np.max(order.partial_sums) > 2.0 * mx + slack:
        raise NumericsError("greedy partial sums left [0, 2*max] window")
    return order


def signed_order(eigenvalues, *, trace_tol: float = TRACE_TOL) -> PartialSumOrder:
    """Order a zero-sum multiset so partial sums stay in [-max, +max].

    Rule: take the largest remaining value while the running sum is <= 0,
    else the smallest.  Ties break on the original index.
    """
    lam = np.asarray(eigenvalues, dtype=float).ravel()
    if lam.size == 0:
        raise InvalidInputError("empty eigenvalue list")
    mx = _check_near_zero_sum(lam, trace_tol)
    remaining = list(range(lam.size))
    perm = []
    s = 0.0
    while remaining:
        if s <= 0.0:
            pick = max(remaining, key=lambda i: (lam[i], -i))
        else:
            pick = min(remaining, key=lambda i: (lam[i], i))
        remaining.remove(pick)
        s += lam[pick]
        perm.append(pick)
    order = _finish_order(lam, perm, mx)
    slack = 1e-10 * lam.size * mx + 1e-30
    if np.max(np.abs(order.partial_sums)) > mx + slack:
        raise NumericsError("signed partial sums left [-max, +max] window")
    return order


def self_commutator_decompose(a, *, trace_tol: float = TRACE_TOL) -> CommutatorDecomposition:
    """Write a trace-zero Hermitian matrix as a single [x*, x].

    Diagonalize, reorder by ``greedy_nonneg_order`` and take x to be the
    weighted lower shift with weights sqrt(s_k) in the reordered eigenbasis;
    then [x*, x] reproduces a and norm(x)^2 = max s_k <= 2*norm(a).
    """
    am = require_hermitian(a, name="a")
    es = hermitian_eig(am)
    order = greedy_nonneg_order(es.eigenvalues, trace_tol=trace_tol)
    s = np.clip(order.partial_sums, 0.0, None)
    n = am.shape[0]
    shift = np.zeros((n, n), dtype=complex)
    for k in range(n - 1):
        shift[k + 1, k] = math.sqrt(s[k])
    u = es.unitary[:, list(order.permutation)]
    x = u @ shift @ u.conj().T
    a_norm = float(np.max(np.abs(es.eigenvalues)))
    return CommutatorDecomposition(
        kind=KIND_SELF,
        factors=[x],
        residual=np.zeros_like(am),
        claimed_bounds=[
            ("reconstruction_residual", 1e-9 * max(1.0, a_norm)),
            ("norm_sq_over_norm_a", 2.0),
        ],
    )


def tight_commutator_decompose(a, *, trace_tol: float = TRACE_TOL) -> CommutatorDecomposition:
    """Write a trace-zero Hermitian matrix as a single [x, y].

    Uses ``signed_order`` and the shift identity: with s_k on the
    superdiagonal of x and ones on the subdiagonal of y, [x, y] is the
    reordered diagonal, whence norm(x)*norm(y) = max|s_k| <= norm(a).
    """
    am = require_hermitian(a, name="a")
    es = hermitian_eig(am)
    order = signed_order(es.eigenvalues, trace_tol=trace_tol)
    s = order.partial_sums
    n = am.shape[0]
    sup = np.zeros((n, n), dtype=complex)
    sub = np.zeros((n, n), dtype=complex)
    for k in range(n - 1):
        sup[k, k + 1] = s[k]
        sub[k + 1, k] = 1.0
    u = es.unitary[:, list(order.permutation)]
    x = u @ sup @ u.conj().T
    y = u @ sub @ u.conj().T
    a_norm = float(np.max(np.abs(es.eigenvalues)))
    if n == 1 or a_norm == 0.0:
        x = np.zeros_like(x)
        y = np.zeros_like(y)
    return CommutatorDecomposition(
        kind=KIND_GENERAL,
        factors=[(x, y)],
        residual=np.zeros_like(am),
        claimed_bounds=[
            ("reconstruction_residual", 1e-9 * max(1.0, a_norm)),
            ("norm_product_over_norm_a", 1.0),
        ],
    )


# Products that vanish when pairs (c_i, d_i), (c_j, d_j) have mutually
# orthogonal supports, in checking order: the end of the message that names
# the violation, then the operand taken from pair i and the one from pair j.
_CROSS_PRODUCTS = (
    (" are not orthogonal: c*.d != 0", "c*", "d"),
    (" are not orthogonal: c.d != 0", "c", "d"),
    (" are not orthogonal: c*.d* != 0", "c*", "d*"),
    (": c factors overlap", "c*", "c"),
    (": c factors overlap", "c", "c*"),
    (": d factors overlap", "d*", "d"),
    (": d factors overlap", "d", "d*"),
)


def _operands(c: np.ndarray, d: np.ndarray) -> dict:
    """c, d and their adjoints, each with its nonzero pattern."""
    out = {}
    for name, m in (("c", c), ("d", d)):
        pattern = NonzeroPattern.of(m)
        out[name] = (m, pattern)
        out[name + "*"] = (m.conj().T, pattern.adjoint)
    return out


def collapse_orthogonal(pairs, *, dim: int | None = None):
    """Merge commutator pairs with mutually orthogonal supports into one.

    Requires, for every i != j, that c_i* d_j, c_i d_j, c_i* d_j* vanish and
    that the c's (resp. d's) are orthogonal among themselves; then
    [sum c_i, sum d_i] = sum [c_i, d_i].  Returns (c, d, defect) with defect
    the largest of those cross-product norms.  Violations raise with the
    first offending pair named.  A product whose Frobenius bound is at most
    the defect so far can neither raise nor change it, so only the others
    (none, when the supports are exactly orthogonal) take an SVD; one that
    the operands' nonzero patterns prove exactly zero is not even formed.
    """
    mats = [(as_matrix(c, square=True, name="c"), as_matrix(d, square=True, name="d"))
            for c, d in pairs]
    if not mats:
        if dim is None:
            raise InvalidInputError("empty pair list needs an explicit dim")
        zero = np.zeros((dim, dim), dtype=complex)
        return zero, zero.copy(), 0.0
    shape = mats[0][0].shape
    for c, d in mats:
        if c.shape != shape or d.shape != shape:
            raise InvalidInputError("collapse pairs must share one square shape")
    operands = [_operands(c, d) for c, d in mats]
    defect = 0.0
    for i, j in itertools.permutations(range(len(mats)), 2):
        for violation, left, right in _CROSS_PRODUCTS:
            (a, a_pattern), (b, b_pattern) = operands[i][left], operands[j][right]
            if a_pattern.product_vanishes(b_pattern):
                continue
            p = a @ b
            if frobenius_bound(p) <= defect:
                continue
            norm = operator_norm(p)
            if norm > PRODUCT_TOL:
                raise PreconditionError(f"pairs {i} and {j}{violation}")
            defect = max(defect, norm)
    c_total = sum(c for c, _ in mats)
    d_total = sum(d for _, d in mats)
    err = commutator(c_total, d_total) - sum(commutator(c, d) for c, d in mats)
    if frobenius_bound(err) > 1e-9 and operator_norm(err) > 1e-9 * max(
            1.0, max(operator_norm(c) * operator_norm(d) for c, d in mats)):
        raise NumericsError("collapsed commutator failed to reproduce the sum")
    return c_total, d_total, defect
