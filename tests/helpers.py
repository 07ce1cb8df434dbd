"""Shared test helpers: running the scripts, the smooth-target mesh
refinement checks, the bitmask keys and frozenset reference of the
square-free ring, and the unscreened reference of collapse_orthogonal."""

import itertools
import os
import pathlib
import subprocess
import sys

import numpy as np

from tracezero.errors import NumericsError, PreconditionError
from tracezero.matcore import commutator, frobenius_bound, operator_norm
from tracezero.ozfield import circle_complex, decompose_field, field_residual_against, greedy_coloring, make_field

REPO = pathlib.Path(__file__).resolve().parents[1]

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def run_script(name: str, *args: str) -> str:
    """stdout of scripts/<name> run with this checkout's src/ on the path."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *args],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=path))
    return proc.stdout


def smooth_circle_target(theta: float) -> np.ndarray:
    """A fixed smooth, non-PL, trace-zero Hermitian loop."""
    return np.sin(theta) * SZ + np.cos(theta) * SX + np.sin(2 * theta) * SY


def circle_refinement_residual(n_vertices: int, target=smooth_circle_target) -> float:
    """Sample the smooth target at n uniform vertices, decompose the PL
    field, and measure the grid distance back to the smooth target."""
    c = circle_complex(n_vertices)
    angles = [2 * np.pi * v / n_vertices for v in range(n_vertices)]
    fld = make_field(c, [target(t) for t in angles])
    fd = decompose_field(fld, greedy_coloring(c))

    def smooth(idx, w):
        v0, v1 = c.maximal_simplices[idx]
        a0, a1 = angles[v0], angles[v1]
        if v0 == 0 and v1 == n_vertices - 1:  # wrap-around edge
            a0 = 2 * np.pi
        return target(w[0] * a0 + w[1] * a1)

    return field_residual_against(fd, fld, smooth)


def monomial(*indices) -> int:
    """The bitmask key of a_i1 * a_i2 * ... in tracezero.obstruct: bit i-1 for a_i."""
    return sum(1 << (i - 1) for i in set(indices))


def frozenset_mul(a: dict, b: dict) -> dict:
    """The square-free product on frozenset-keyed monomials, zeros dropped:
    the reference the bitmask ring is compared against."""
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            if ka & kb:
                continue
            key = ka | kb
            out[key] = out.get(key, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def reference_euler_class(summands) -> dict:
    """The Euler class of a sum of line bundles as SquareFreeClass.to_json()
    writes it: the summands' linear forms multiplied one at a time by
    frozenset_mul."""
    out = {frozenset(): 1}
    for vec in summands:
        out = frozenset_mul(out, {frozenset({i + 1}): c for i, c in enumerate(vec) if c})
    return {",".join(str(i) for i in sorted(k)): v
            for k, v in sorted(out.items(), key=lambda kv: sorted(kv[0]))}


def reference_collapse(mats):
    """collapse_orthogonal on a non-empty list of same-shape (c, d) arrays,
    forming every cross product: the reference the structural-zero screen
    is compared against."""
    products = (
        (" are not orthogonal: c*.d != 0", lambda ci, di, cj, dj: ci.conj().T @ dj),
        (" are not orthogonal: c.d != 0", lambda ci, di, cj, dj: ci @ dj),
        (" are not orthogonal: c*.d* != 0", lambda ci, di, cj, dj: ci.conj().T @ dj.conj().T),
        (": c factors overlap", lambda ci, di, cj, dj: ci.conj().T @ cj),
        (": c factors overlap", lambda ci, di, cj, dj: ci @ cj.conj().T),
        (": d factors overlap", lambda ci, di, cj, dj: di.conj().T @ dj),
        (": d factors overlap", lambda ci, di, cj, dj: di @ dj.conj().T),
    )
    defect = 0.0
    for i, j in itertools.permutations(range(len(mats)), 2):
        for violation, prod in products:
            p = prod(*mats[i], *mats[j])
            if frobenius_bound(p) <= defect:
                continue
            norm = operator_norm(p)
            if norm > 1e-10:
                raise PreconditionError(f"pairs {i} and {j}{violation}")
            defect = max(defect, norm)
    c_total = sum(c for c, _ in mats)
    d_total = sum(d for _, d in mats)
    err = commutator(c_total, d_total) - sum(commutator(c, d) for c, d in mats)
    if frobenius_bound(err) > 1e-9 and operator_norm(err) > 1e-9 * max(
            1.0, max(operator_norm(c) * operator_norm(d) for c, d in mats)):
        raise NumericsError("collapsed commutator failed to reproduce the sum")
    return c_total, d_total, defect
