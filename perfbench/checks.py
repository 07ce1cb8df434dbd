"""Independent checks of tracezero output documents.

Each checker re-derives a command's claims from the emitted JSON with plain
numpy and Python integers, and raises ``CheckFailed`` when a claim does not
hold.  Nothing here imports tracezero: a construction bug that the program's
own self-verification reproduces still fails here.
"""
from __future__ import annotations

import itertools

import numpy as np


class CheckFailed(Exception):
    """An output document does not support the claims it makes."""


def require(condition, message: str):
    if not condition:
        raise CheckFailed(message)


def matrix(doc) -> np.ndarray:
    """Decode a {"n", "entries"} matrix document."""
    n = doc["n"]
    pairs = np.asarray(doc["entries"], dtype=float)
    require(pairs.shape == (n, n, 2), f"matrix entries have shape {pairs.shape}, not {n}x{n}x2")
    return pairs[..., 0] + 1j * pairs[..., 1]


def norm(m) -> float:
    """Operator norm (largest singular value)."""
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


def bracket(x, y) -> np.ndarray:
    return x @ y - y @ x


def _passed(out: dict):
    require(out["report"]["all_passed"] is True, "report.all_passed is not true")


def check_decompose(a: np.ndarray, out: dict):
    """a = [x*, x] for the single factor x, with norm(x)^2 <= 2 norm(a)."""
    require(out["command"] == "decompose", "wrong command in output")
    require(np.array_equal(matrix(out["input"]), a), "echoed input differs from the request")
    result = out["result"]
    require(result["kind"] == "self_commutators", "wrong decomposition kind")
    require(len(result["factors"]) == 1, "expected exactly one factor")
    x = matrix(result["factors"][0]["x"])
    a_norm = norm(a)
    residual = norm(a - bracket(x.conj().T, x))
    require(residual <= 1e-9 * max(1.0, a_norm), f"||a - [x*, x]|| = {residual:.3e}")
    x_sq = norm(x) ** 2
    require(x_sq <= 2.0 * a_norm * (1.0 + 1e-9) + 1e-12,
            f"||x||^2 = {x_sq:.6g} exceeds 2||a|| = {2.0 * a_norm:.6g}")
    _passed(out)


def check_error(expected: dict, out: dict):
    """An invalid input must produce exactly the expected error document."""
    require(out == expected, f"error document {out!r} differs from {expected!r}")


def check_fack_run(tower: dict, depth: int, out: dict):
    """sum [x, y] + residual = z0 with ||residual|| <= delta_depth, and the
    factor count within L(L+K-1) + max(M, L(L+K-1))."""
    require(out["command"] == "fack-run", "wrong command in output")
    echo = out["input"]
    require(echo["tower"] == tower and echo["depth"] == depth,
            "echoed tower differs from the request")
    z0 = matrix(echo["z0"])
    z_norm = norm(z0)
    n = z0.shape[0]
    require(np.max(np.abs(z0 - z0.conj().T)) <= 1e-12 * max(1.0, z_norm), "z0 is not Hermitian")
    require(abs(np.trace(z0)) <= 1e-9 * n * max(1.0, z_norm), "z0 is not trace zero")
    first = tower["blocks"][0]["rank"]
    outside = z0.copy()
    outside[:first, :first] = 0.0
    require(norm(outside) <= 1e-8 * max(1.0, z_norm), "z0 leaves the first block")

    result = out["result"]
    require(result["kind"] == "general_commutators", "wrong decomposition kind")
    L, K, M = tower["L"], tower["K"], tower["M"]
    per_stage = L * (L + K - 1)
    bound = per_stage + max(M, per_stage)
    require(1 <= len(result["factors"]) <= bound,
            f"{len(result['factors'])} factors, bound {bound}")
    total = np.zeros_like(z0)
    for pair in result["factors"]:
        total += bracket(matrix(pair["x"]), matrix(pair["y"]))
    residual = norm(z0 - total)
    delta = tower["deltas"][depth - 1]
    require(residual <= delta, f"||z0 - sum [x, y]|| = {residual:.3e} > delta = {delta}")
    require(abs(residual - result["residual_norm"]) <= 1e-8 * max(1.0, z_norm),
            f"reported residual {result['residual_norm']:.3e} but z0 - sum [x, y] "
            f"has norm {residual:.3e}")
    _passed(out)
    require(result["tower_report"]["all_passed"] is True, "tower_report.all_passed is not true")


def barycentric_refinement(simplices, values, levels: int):
    """Barycentric subdivision with PL resampling, ``levels`` times.

    New vertices are the faces of the old complex ordered by (size, vertex
    tuple), as the output format documents; a new vertex carries the mean of
    its face's values and is colored by the face's dimension.
    """
    colors = None
    for _ in range(levels):
        faces = sorted({face for s in simplices for r in range(1, len(s) + 1)
                        for face in itertools.combinations(sorted(s), r)},
                       key=lambda f: (len(f), f))
        index = {f: i for i, f in enumerate(faces)}
        simplices = sorted({tuple(sorted(index[tuple(sorted(p[:r]))]
                                         for r in range(1, len(p) + 1)))
                            for s in simplices for p in itertools.permutations(s)})
        values = [sum(values[v] for v in f) / len(f) for f in faces]
        colors = [len(f) - 1 for f in faces]
    return simplices, values, colors


def check_decompose_field(simplices, values, refine: int, out: dict):
    """[x_v*, x_v] equals the refined field value at every vertex, colors
    are proper, and each vertex sits in exactly one color's factor."""
    require(out["command"] == "decompose-field", "wrong command in output")
    simplices, values, colors = barycentric_refinement(simplices, values, refine)
    result = out["result"]
    fld = result["field"]
    require(fld["complex"]["vertices"] == len(values), "refined vertex count differs")
    require(sorted(tuple(s) for s in fld["complex"]["simplices"]) == simplices,
            "refined simplices differ")
    require(result["coloring"] == colors, "coloring differs from the face dimensions")
    seen = {}
    for factor in result["factors"]:
        for entry in factor["entries"]:
            require(entry["vertex"] not in seen, f"vertex {entry['vertex']} appears twice")
            require(colors[entry["vertex"]] == factor["color"],
                    f"vertex {entry['vertex']} is in the wrong color")
            seen[entry["vertex"]] = matrix(entry["x"])
    require(sorted(seen) == list(range(len(values))), "some vertex has no factor")
    for v, value in enumerate(values):
        scale = max(1.0, norm(value))
        require(norm(matrix(fld["values"][str(v)]) - value) <= 1e-12 * scale,
                f"field value at vertex {v} differs from the PL resampling")
        x = seen[v]
        residual = norm(value - bracket(x.conj().T, x))
        require(residual <= 1e-9 * scale, f"vertex {v}: ||a_v - [x*, x]|| = {residual:.3e}")
        require(norm(x) ** 2 <= 2.0 * norm(value) * (1.0 + 1e-9) + 1e-12,
                f"vertex {v}: ||x||^2 exceeds 2||a_v||")
    _passed(out)


def check_verify(out: dict):
    """The verify command accepted the document it was given."""
    require(out["command"] == "verify", "wrong command in output")
    result = out["result"]
    require(result["verified"] is True, "verified is not true")
    require(result["mismatches"] == [], f"mismatches: {result['mismatches'][:3]}")
    require(result["inner_exit_code"] == 0, "inner exit code is not 0")
    _passed(out)


def permanent(rows) -> int:
    """Exact permanent by Ryser's formula with a Gray-code column order."""
    n = len(rows)
    if n == 0:
        return 1
    cols = [[row[j] for row in rows] for j in range(n)]
    sums = [0] * n
    inside = [False] * n
    size = 0
    total = 0
    for k in range(1, 1 << n):
        # Gray code: step k toggles column j, the lowest set bit of k.
        j = (k & -k).bit_length() - 1
        sign = -1 if inside[j] else 1
        inside[j] = not inside[j]
        size += sign
        col = cols[j]
        for i in range(n):
            sums[i] += sign * col[i]
        prod = 1
        for s in sums:
            prod *= s
            if not prod:
                break
        total += -prod if size % 2 else prod
    return total if n % 2 == 0 else -total


def check_obstruct(summands, out: dict):
    """With as many line summands as variables and n = 1, the Euler class is
    perm(degree matrix) times the top monomial; the verdict is its
    nonvanishing."""
    require(out["command"] == "obstruct", "wrong command in output")
    m = len(summands)
    require(all(len(vec) == m for vec in summands), "degree matrix is not square")
    perm = permanent(summands)
    top = ",".join(str(i) for i in range(1, m + 1))
    expected = {top: perm} if perm else {}
    result = out["result"]
    require(result["euler_class"] == expected,
            f"euler_class {result['euler_class']!r} but perm = {perm}")
    require(result["verdict"] is (perm != 0), "verdict disagrees with the permanent")
    _passed(out)
