"""Shared test helpers: a child process's environment, running the scripts,
the input document of a field, a seeded random unitary, the decoded fack-run
input of a tower, the dense reference of the rank-comparison witness, the Bott
bundle, the support of a PSD matrix from its own eigendecomposition and the
matrix of a support, small complexes, a field's value at barycentric weights,
the barycentric lattice, lattice sampling and hat-function extension of
fields, the lattice residual of a field decomposition against any target, the
smooth-target mesh refinement checks, the bitmask keys and frozenset reference
of the square-free ring, the orthogonality oracle of the tower collapse and a
recorder of the slots it sums, the list-scan references of the two visiting
orders, the per-matrix reference of the stacked self-commutator pass, the
per-simplex lattice reference of the field residual, and the reconstruction
error of a decomposition measured apart from its report."""

import itertools
import math
import os
import pathlib
import subprocess
import sys

import numpy as np

from tracezero import towers
from tracezero.claims import slack
from tracezero.errors import InvalidInputError
from tracezero.jsonio import TowerInput, complex_to_json, decode_input, matrix_to_json
from tracezero.matcore import (
    PHASE_CUTOFF,
    as_matrix,
    commutator,
    hermitian_eig,
    operator_norm,
)
from tracezero.obstruct import BundleExpr
from tracezero.ozfield import SimplicialComplex, decompose_field, greedy_coloring, make_field
from tracezero.rand import SplitMix64, random_complex_matrix
from tracezero.schemas import validate
from tracezero.towers import PSD_TOL, ElementSpectrum, Support

REPO = pathlib.Path(__file__).resolve().parents[1]

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
LATTICE_ORDER = 8  # of the reference lattice on which field residuals are sampled


def src_env() -> dict:
    """The environment of a child process with this checkout's src/ first on
    its path: pytest.ini's ``pythonpath`` reaches only the test process."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_script(name: str, *args: str) -> str:
    """stdout of scripts/<name> run with this checkout's src/ on the path."""
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / name), *args],
                          capture_output=True, text=True, check=True, env=src_env())
    return proc.stdout


def field_to_json(fld) -> dict:
    """The field document of ``fld``, the input of ``decompose-field``."""
    return {
        "complex": complex_to_json(fld.complex),
        "n": fld.matrix_size,
        "values": {str(v): matrix_to_json(fld.values[v])
                   for v in range(fld.complex.vertex_count)},
    }


def random_unitary(rng: SplitMix64, n: int) -> np.ndarray:
    """The Q factor of a seeded complex Gaussian matrix, its columns'
    phases fixed by R's diagonal."""
    q, r = np.linalg.qr(random_complex_matrix(rng, n))
    d = np.diagonal(r)
    phase = d / np.abs(d)
    return q * phase


def fack_run_input(blocks, z0=None, **tower) -> TowerInput:
    """The fack-run input of a tower of ``blocks`` (ranks, or matrices), with
    ``tower``'s other fields (L, K, M, ambient, epsilon, deltas) and an
    optional ``z0``, read as the command reads it: schema, then decoder."""
    doc = {"tower": {"blocks": [{"rank": b} if isinstance(b, int) else matrix_to_json(b)
                                for b in blocks], **tower}}
    if z0 is not None:
        doc["z0"] = matrix_to_json(z0)
    validate(doc, "fack-run")
    return decode_input("fack-run", doc)


def reference_witness(a_spec: ElementSpectrum, b_support: Support, L: int, K: int):
    """(V, range defect) of the rank-comparison witness built densely: W
    pairs the support bases of g and of c in index order as one
    (L+K-1)n x Ln matrix, V = W kron(I_L, g^{1/2}), and the range defect is
    norm(VV* - P_c VV* P_c) with P_c the dense block-diagonal projection
    onto (a-eps)_+ on L-1 blocks and b on K.  The reference the block
    witness of ``cuntz_witness`` is compared against."""
    g, a_plus = a_spec.g, a_spec.plus
    n = g.basis.shape[0]
    sources = [(j, g.basis[:, s]) for j in range(L) for s in range(g.rank)]
    targets = [(i, a_plus.basis[:, t]) for i in range(L - 1) for t in range(a_plus.rank)]
    targets += [(i, b_support.basis[:, t])
                for i in range(L - 1, L + K - 1) for t in range(b_support.rank)]
    w = np.zeros(((L + K - 1) * n, L * n), dtype=complex)
    for m, (j, svec) in enumerate(sources):
        i, tvec = targets[m]
        w[i * n:(i + 1) * n, j * n:(j + 1) * n] += np.outer(tvec, svec.conj())
    v = w @ np.kron(np.eye(L), a_spec.g_sqrt)
    p_c = np.zeros(((L + K - 1) * n,) * 2, dtype=complex)
    for i in range(L + K - 1):
        p_c[i * n:(i + 1) * n, i * n:(i + 1) * n] = (
            a_plus if i < L - 1 else b_support).projection
    vvs = v @ v.conj().T
    return v, operator_norm(vvs - p_c @ vvs @ p_c)


def bott_bundle() -> BundleExpr:
    """The degree-one line bundle over a single 2-sphere."""
    return BundleExpr.line((1,))


def support_of(a) -> Support:
    """The Support of a PSD matrix, from its own eigendecomposition: the
    eigenvectors whose eigenvalue exceeds RANK_TOL times the largest."""
    es = hermitian_eig(a)
    if es.eigenvalues.size and es.eigenvalues[0] < -slack(PSD_TOL, es.eigenvalues[-1]):
        raise InvalidInputError(
            f"matrix has negative spectrum beyond tolerance: {float(es.eigenvalues[0]):.3e}")
    return Support.from_eigen(es.unitary, np.clip(es.eigenvalues, 0.0, None))


def psd_matrix(support: Support) -> np.ndarray:
    """The PSD matrix B diag(values) B* that a Support keeps as its basis B
    and values."""
    return (support.basis * support.values) @ support.basis.conj().T


def circle_complex(n_vertices: int) -> SimplicialComplex:
    """The n-cycle as a 1-dimensional complex."""
    if n_vertices < 3:
        raise InvalidInputError("a cycle needs at least 3 vertices")
    edges = [(i, (i + 1) % n_vertices) for i in range(n_vertices)]
    return SimplicialComplex.make(n_vertices, edges)


def solid_triangle_complex() -> SimplicialComplex:
    return SimplicialComplex.make(3, [(0, 1, 2)])


def value_at(fld, simplex_index: int, weights) -> np.ndarray:
    """The field at barycentric weights on one maximal simplex: a matrix for
    one row of weights, a stack of matrices for rows of them."""
    verts = fld.complex.maximal_simplices[simplex_index]
    w = np.asarray(weights, dtype=float)
    if w.shape[-1:] != (len(verts),):
        raise InvalidInputError("barycentric weight count does not match simplex")
    return np.einsum("...v,vij->...ij", w, np.stack([fld.values[v] for v in verts]))


def barycentric_lattice(n_weights: int, order: int = LATTICE_ORDER) -> np.ndarray:
    """All lattice points (i_1/order, ..., i_k/order) with sum 1, as rows."""
    rows = []
    for cut in itertools.combinations(range(order + n_weights - 1), n_weights - 1):
        prev = -1
        comp = []
        for c in cut:
            comp.append(c - prev - 1)
            prev = c
        comp.append(order + n_weights - 2 - prev)
        rows.append(comp)
    return np.asarray(rows, dtype=float) / order


def sample_grid(complex_: SimplicialComplex, order: int = LATTICE_ORDER):
    """Deterministic (simplex index, barycentric weights) evaluation points."""
    out = []
    for idx, simplex in enumerate(complex_.maximal_simplices):
        for w in barycentric_lattice(len(simplex), order):
            out.append((idx, w))
    return out


def psi_k(fld, coloring, k: int) -> list:
    """Evaluate the field at every color-k vertex."""
    if not (0 <= k < coloring.color_count):
        raise InvalidInputError(f"color {k} out of range")
    return [(v, fld.values[v]) for v in range(fld.complex.vertex_count)
            if coloring.colors[v] == k]


def phi_k(complex_: SimplicialComplex, coloring, k: int, samples):
    """Extend color-k samples by hat functions: p -> sum_v h_v(p) b_v.

    Order zero: same-color hats have disjoint stars, so orthogonal samples
    extend to pointwise-orthogonal fields.  The output is again PL, hence an
    exact SimplicialField.
    """
    if not (0 <= k < coloring.color_count):
        raise InvalidInputError(f"color {k} out of range")
    size = None
    values = {}
    for v, b in samples:
        if coloring.colors[v] != k:
            raise InvalidInputError(f"vertex {v} does not have color {k}")
        m = as_matrix(b, square=True, name=f"sample at vertex {v}")
        size = m.shape[0] if size is None else size
        values[v] = m
    if size is None:
        raise InvalidInputError("no samples given")
    zero = np.zeros((size, size), dtype=complex)
    return make_field(complex_, [values.get(v, zero) for v in range(complex_.vertex_count)])


def field_residual_against(fld_factors, fld, target) -> float:
    """Max lattice distance between the decomposition's sum and an arbitrary target.

    ``target(simplex_index, weights) -> matrix`` lets callers measure against
    a smooth (non-PL) field; used for mesh-refinement studies.
    """
    return reference_field_grid(fld_factors, fld, target)[0]


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
    """The oracle of one collapse slot, a non-empty list of same-shape
    (c, d) arrays: every cross product that [sum c, sum d] = sum [c, d]
    needs to vanish, formed and measured.  Raises InvalidInputError naming
    the first pair with one above 1e-10, else returns (sum c, sum d,
    defect), the defect being the largest cross product."""
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
            norm = operator_norm(prod(*mats[i], *mats[j]))
            if norm > 1e-10:
                raise InvalidInputError(f"pairs {i} and {j}{violation}")
            defect = max(defect, norm)
    return sum(c for c, _ in mats), sum(d for _, d in mats), defect


def record_collapse(monkeypatch) -> list:
    """Wrap ``towers.collapse`` so that every slot it sums is appended, as a
    list of pairs, to the list returned."""
    slots, collapse = [], towers.collapse

    def recording(pairs):
        slots.append(list(pairs))
        return collapse(pairs)

    monkeypatch.setattr(towers, "collapse", recording)
    return slots


def collapse_defect(slots) -> float:
    """The largest cross product ``reference_collapse`` measures over the
    recorded slots; raises as it does on a slot that is not orthogonal."""
    return max((reference_collapse(slot)[2] for slot in slots), default=0.0)


def reference_brackets(x_factors, simplex, w) -> np.ndarray:
    """sum_k [y_k*, y_k] on one maximal simplex at every row of weights w,
    y = sqrt(w_i) x_{v_i} formed point by point."""
    recon = np.zeros((len(w),) + x_factors[simplex[0]].shape, dtype=complex)
    for i, v in enumerate(simplex):
        y = np.sqrt(w[:, i])[:, None, None] * x_factors[v]
        y_star = y.conj().transpose(0, 2, 1)
        recon += y_star @ y - y @ y_star
    return recon


def reference_field_grid(fd, fld, target=None):
    """(lattice residual, sup_norm, max_factor_norm_sq) of a field
    decomposition measured simplex by simplex: reference_brackets at every
    point of the simplex's order-8 lattice, one stacked SVD of its
    residuals, and an SVD of every vertex value and vertex factor.  With
    no ``target``, a vertex in no maximal simplex is a point of its own,
    where the field is its value.  The lattice holds the vertices, so its
    residual is never below the vertex maximum that ``decompose_field``
    reports; ``target(idx, w)`` replaces the field on the maximal simplices
    as in field_residual_against."""
    x_factors = {v: x for factor in fd.factors for v, x in factor.entries}
    residual = 0.0
    for idx, simplex in enumerate(fld.complex.maximal_simplices):
        w = barycentric_lattice(len(simplex))
        expected = (value_at(fld, idx, w) if target is None
                    else np.stack([target(idx, row) for row in w]))
        residual = max(residual, float(np.max(np.linalg.svd(
            reference_brackets(x_factors, simplex, w) - expected, compute_uv=False))))
    covered = {v for simplex in fld.complex.maximal_simplices for v in simplex}
    if target is None:
        for v in sorted(set(x_factors) - covered):
            residual = max(residual, operator_norm(
                reference_brackets(x_factors, (v,), np.ones((1, 1)))[0] - fld.values[v]))
    return (residual, max(operator_norm(value) for value in fld.values),
            max(operator_norm(x) ** 2 for x in x_factors.values()))


def reference_greedy_order(lam) -> list:
    """The greedy nonnegative visiting order of one zero-sum multiset, one
    Python list scan per step: the reference of the stacked masked-argmax
    order."""
    remaining = list(range(len(lam)))
    perm = []
    s = 0.0
    mx = float(np.max(np.abs(lam)))
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
    return perm


def reference_signed_order(lam) -> list:
    """The signed visiting order of one zero-sum multiset, one Python list
    scan per step: the reference of the masked-argmax order."""
    remaining = list(range(len(lam)))
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
    return perm


def measured(report, name: str) -> float:
    """The measured value of a report's bound check ``name``."""
    return next(c.measured_value for c in report.bound_checks if c.name == name)


def reconstruction_error(a, dec) -> float:
    """norm(a - sum of commutators) of a decomposition, measured here from its
    factors: [x*, x] for a single factor x, [x, y] for a pair.  A tower's
    ``residual`` is left out: it is z0 - sum [x_k, y_k] by definition, so
    subtracting it would measure nothing."""
    total = np.zeros_like(a, dtype=complex)
    for f in dec.factors:
        total = total + (commutator(f.conj().T, f) if dec.kind == "self_commutators"
                         else commutator(*f))
    return operator_norm(np.asarray(a) - total)


def reference_self_commutator(a):
    """(x, visiting order) of one Hermitian matrix, taken one matrix at a
    time: ``eigh``, the eigenvalues less their mean, the phase fix column by
    column with scalar ``abs`` of the pivot, ``reference_greedy_order`` and
    the weighted lower shift built entry by entry.  The reference the
    stacked pass must match bit for bit."""
    m = np.asarray(a, dtype=complex)
    eigenvalues, u = np.linalg.eigh((m + m.conj().T) / 2.0)
    eigenvalues = eigenvalues - eigenvalues.mean()
    u = u.copy()
    for j in range(u.shape[1]):
        col = u[:, j]
        big = np.flatnonzero(np.abs(col) > PHASE_CUTOFF)
        if big.size:
            pivot = col[big[0]]
            u[:, j] = col * (np.conj(pivot) / abs(pivot))
    perm = reference_greedy_order(eigenvalues)
    s = np.clip(np.cumsum(eigenvalues[perm]), 0.0, None)
    n = m.shape[0]
    shift = np.zeros((n, n), dtype=complex)
    for k in range(n - 1):
        shift[k + 1, k] = math.sqrt(s[k])
    u = u[:, perm]
    return u @ shift @ u.conj().T, perm
