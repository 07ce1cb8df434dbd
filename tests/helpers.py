"""Shared test helpers: the smooth-target mesh refinement checks, and the
bitmask keys and frozenset reference of the square-free ring."""

import numpy as np

from tracezero.ozfield import circle_complex, decompose_field, field_residual_against, greedy_coloring, make_field

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


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
