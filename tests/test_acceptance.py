"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL lines.
"""
import itertools
import json
import math
import time

import numpy as np

from helpers import (
    circle_complex,
    circle_refinement_residual,
    collapse_defect,
    fack_run_input,
    field_to_json,
    measured,
    monomial,
    reconstruction_error,
    record_collapse,
    support_of,
)
from tracezero.cli import run_from_args
from tracezero.jsonio import matrix_to_json
from tracezero.matcore import commutator, operator_norm
from tracezero.obstruct import (
    BundleExpr,
    SquareFreeClass,
    linear_power,
    obstruction_certificate,
    villadsen_tower,
)
from tracezero.ozfield import (
    barycentric_subdivide,
    decompose_field,
    greedy_coloring,
    make_field,
    octahedron_complex,
)
from tracezero.rand import SplitMix64, random_complex_matrix, random_trace_zero_hermitian
from tracezero.selfcomm import (
    greedy_nonneg_order,
    self_commutator_decompose,
    signed_order,
    tight_commutator_decompose,
)
from tracezero.towers import (
    ElementSpectrum,
    TowerModel,
    block_two_commutator_split,
    push_step,
    tower_iterate,
)


def conclude(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {status}: {label}{detail}")
    assert ok, f"criterion {num} failed: {label}{detail}"


def random_family(seed, count=1000):
    rng = SplitMix64(seed)
    for trial in range(count):
        n = 2 + trial % 15  # n in 2..16
        yield random_trace_zero_hermitian(rng, n)


def test_criterion_01_single_self_commutator():
    start = time.perf_counter()
    worst_resid, worst_excess = 0.0, -np.inf
    for a in random_family(1001):
        dec = self_commutator_decompose(a)
        x = dec.factors[0]
        a_norm = operator_norm(a)
        resid = operator_norm(a - commutator(x.conj().T, x))
        worst_resid = max(worst_resid, resid / max(1.0, a_norm))
        worst_excess = max(worst_excess, operator_norm(x) ** 2 - 2 * a_norm)
    elapsed = time.perf_counter() - start
    ok = worst_resid <= 1e-9 and worst_excess <= 1e-9 and elapsed < 10.0
    conclude(1, "1000 random elements, a = [x*, x] with norm(x)^2 <= 2*norm(a)",
             ok, f" (resid {worst_resid:.2e}, excess {worst_excess:.2e}, {elapsed:.1f}s)")


def test_criterion_02_single_tight_commutator():
    worst_resid, worst_excess = 0.0, -np.inf
    for a in random_family(1002):
        dec = tight_commutator_decompose(a)
        x, y = dec.factors[0]
        a_norm = operator_norm(a)
        resid = operator_norm(a - commutator(x, y))
        worst_resid = max(worst_resid, resid / max(1.0, a_norm))
        worst_excess = max(worst_excess, operator_norm(x) * operator_norm(y) - a_norm)
    ok = worst_resid <= 1e-9 and worst_excess <= 1e-9
    conclude(2, "1000 random elements, a = [x, y] with norm(x)*norm(y) <= norm(a)",
             ok, f" (resid {worst_resid:.2e}, excess {worst_excess:.2e})")


def test_criterion_03_exhaustive_order_windows():
    start = time.perf_counter()
    checked = 0
    ok = True
    for size in range(1, 9):
        for combo in itertools.combinations_with_replacement(range(-5, 6), size):
            if sum(combo) != 0:
                continue
            lam = np.array(combo, dtype=float)
            mx = np.max(np.abs(lam))
            g = greedy_nonneg_order(lam).partial_sums
            s = signed_order(lam).partial_sums
            ok = ok and np.min(g) >= -1e-12 and np.max(g) <= 2 * mx + 1e-12
            ok = ok and np.max(np.abs(s)) <= mx + 1e-12
            checked += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    conclude(3, "exhaustive partial-sum windows over zero-sum multisets",
             ok, f" ({checked} multisets, {elapsed:.1f}s)")


def test_criterion_04_field_decompositions():
    start = time.perf_counter()
    rng = SplitMix64(1004)
    cases = [
        ("subdivided circle", barycentric_subdivide(circle_complex(6)).complex,
         barycentric_subdivide(circle_complex(6)).coloring, 1),
        ("octahedral 2-sphere", octahedron_complex(),
         greedy_coloring(octahedron_complex()), 2),
    ]
    ok = True
    details = []
    for label, complex_, coloring, dim in cases:
        worst = 0.0
        for _ in range(100):
            vals = [random_trace_zero_hermitian(rng, 2)
                    for _ in range(complex_.vertex_count)]
            fld = make_field(complex_, vals)
            fd = decompose_field(fld, coloring)
            ok = ok and len(fd.factors) == dim + 1
            residual = measured(fd.report, "field_residual")
            ok = ok and residual <= 1e-8 * fd.sup_norm
            for check in fd.report.bound_checks:
                ok = ok and check.passed
            worst = max(worst, residual / fd.sup_norm)
        details.append(f"{label} {worst:.2e}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    conclude(4, "100 random PL fields decompose into dim+1 factors exactly",
             ok, f" ({'; '.join(details)}, {elapsed:.1f}s)")


def test_criterion_05_mesh_refinement_ratios():
    residuals = [circle_refinement_residual(8 * 2 ** r) for r in range(1, 6)]
    ratios = [residuals[i + 1] / residuals[i] for i in range(4)]
    ok = all(r <= 0.6 for r in ratios)
    conclude(5, "smooth-target residual contracts per refinement",
             ok, f" (ratios {['%.3f' % r for r in ratios]})")


def test_criterion_06_push_step_certificates():
    start = time.perf_counter()
    ok = True
    for L in (1, 2, 3):
        for K in (1, 2, 3):
            rng = SplitMix64(1006 + 10 * L + K)
            r_b = 2
            r_a = K * r_b
            n = r_a + r_b
            assert n <= 24
            a = np.zeros((n, n), dtype=complex)
            a[:r_a, :r_a] = np.eye(r_a)
            b = np.zeros((n, n), dtype=complex)
            b[r_a:, r_a:] = np.eye(r_b)
            h = random_trace_zero_hermitian(rng, r_a)
            x = np.zeros((n, n), dtype=complex)
            x[:r_a, :r_a] = h
            res = push_step(x, ElementSpectrum.of(a, 0.5), support_of(b), L, K)
            x_norm = operator_norm(x)
            recon = sum(commutator(c, d) for c, d in res.pairs) + res.remainder
            ok = ok and len(res.pairs) == L * (L + K - 1)
            ok = ok and operator_norm(res.remainder) <= K * x_norm + 1e-8
            ok = ok and all(operator_norm(c) * operator_norm(d) <= x_norm + 1e-8
                            for c, d in res.pairs)
            ok = ok and operator_norm(x - recon) <= 1e-8 * x_norm
            ok = ok and res.report.all_passed
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    conclude(6, "witnessed split certificates for (L, K) in {1,2,3}^2",
             ok, f" ({elapsed:.1f}s)")


def test_criterion_07_tower_truncation(monkeypatch):
    slots = record_collapse(monkeypatch)
    deltas = [2.0 ** -i for i in range(1, 5)]
    cases = [
        ((1, 1, 1), [6, 6, 6, 6, 6], 32),
        ((1, 2, 1), [2, 2, 2, 2, 2], 10),
        ((2, 2, 1), [3, 3, 3, 3, 3], 15),
    ]
    ok = True
    details = []
    for (L, K, M), ranks, ambient in cases:
        rng = SplitMix64(1007 + L + 10 * K)
        h = random_trace_zero_hermitian(rng, ranks[0])
        z0 = np.zeros((ambient, ambient), dtype=complex)
        z0[:ranks[0], :ranks[0]] = h
        inp = fack_run_input(ranks, z0=z0, L=L, K=K, M=M, ambient=ambient, deltas=deltas)
        slots.clear()
        dec, report = tower_iterate(inp.z0, TowerModel(inp), 4)
        count_n = L * (L + K - 1)
        bound = count_n + max(M, count_n)
        ok = ok and len(dec.factors) <= bound
        ok = ok and operator_norm(dec.residual) <= deltas[3]
        ok = ok and collapse_defect(slots) <= 1e-10  # collapse preconditions
        ok = ok and report.all_passed
        ok = ok and reconstruction_error(z0, dec) <= 1e-8 * max(1.0, operator_norm(z0))
        ok = ok and dec.report.all_passed
        details.append(f"L{L}K{K}: {len(dec.factors)}<={bound}")
    conclude(7, "depth-4 tower iteration: count bound, residual <= delta_4",
             ok, f" ({'; '.join(details)})")


def test_criterion_08_block_split_reconstruction():
    rng = SplitMix64(1008)
    ok = True
    worst = 0.0
    for trial in range(100):
        d = 2 + trial % 5  # blocks in 2..6
        r = 2
        pairs = [(random_complex_matrix(rng, r), random_complex_matrix(rng, r))
                 for _ in range(d)]
        b = np.zeros((d * r, d * r), dtype=complex)
        for i in range(d):
            for j in range(d):
                b[i * r:(i + 1) * r, j * r:(j + 1) * r] = random_complex_matrix(rng, r)
        total = sum(commutator(x, y) for x, y in pairs)
        others = sum(b[i * r:(i + 1) * r, i * r:(i + 1) * r] for i in range(d - 1))
        b[(d - 1) * r:, (d - 1) * r:] = total - others
        res = block_two_commutator_split(b, d, pairs, np.eye(r, dtype=complex))
        err = operator_norm(commutator(res.shift_upper, res.shift_lower) - res.diag_part)
        rel = err / max(1.0, operator_norm(b))
        worst = max(worst, rel)
        ok = ok and err <= 1e-9 * operator_norm(b)
    conclude(8, "100 block splits reconstruct [S, E] to 1e-9",
             ok, f" (worst {worst:.2e})")


def test_criterion_09_exact_cohomology():
    start = time.perf_counter()
    ok = True
    for m in range(1, 9):
        expected = SquareFreeClass(m, {monomial(*range(1, m + 1)): math.factorial(m)})
        ok = ok and linear_power([1] * m, m) == expected
    for m in range(1, 7):
        ok = ok and obstruction_certificate(BundleExpr.line((1,) * m), m).verdict
    ok = ok and not obstruction_certificate(BundleExpr.line((1, 1)), 3).verdict
    for k in range(1, 9):
        for e in range(k + 1, 13):
            ok = ok and linear_power([1] * k, e).is_zero()
    spec = villadsen_tower(3)
    ok = ok and spec.all_verdicts_true
    ok = ok and spec.k[-1] == 402653256 and spec.k[-1] > 2 ** 24
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    conclude(9, "exact top classes, obstruction verdicts, tower audit",
             ok, f" ({elapsed:.2f}s)")


def test_criterion_10_cli_determinism_and_verify():
    runs = []
    runs.append(("decompose", matrix_to_json(np.diag([1.0, -1.0]).astype(complex)), []))
    runs.append(("decompose-tight", matrix_to_json(
        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)), []))
    rng = SplitMix64(1010)
    c = circle_complex(6)
    fld = make_field(c, [random_trace_zero_hermitian(rng, 2) for _ in range(6)])
    runs.append(("decompose-field", field_to_json(fld), ["--refine", "1"]))
    runs.append(("fack-run",
                 {"tower": {"blocks": [{"rank": 3}] * 5, "L": 1, "K": 1, "M": 1},
                  "depth": 4}, ["--seed", "12345"]))
    r = 2
    x = random_complex_matrix(rng, r)
    y = random_complex_matrix(rng, r)
    b = np.zeros((2 * r, 2 * r), dtype=complex)
    b[:r, :r] = commutator(x, y) / 2
    b[r:, r:] = commutator(x, y) - b[:r, :r]
    runs.append(("block-split",
                 {"blocks": 2, "b": matrix_to_json(b),
                  "pairs": [{"x": matrix_to_json(x), "y": matrix_to_json(y)},
                            {"x": matrix_to_json(np.zeros((r, r))),
                             "y": matrix_to_json(np.zeros((r, r)))}],
                  "e": matrix_to_json(np.eye(r, dtype=complex))}, []))
    runs.append(("obstruct", {"q": {"variables": 2, "summands": [[1, 1]]}, "n": 2}, []))
    runs.append(("pp-example", {"m": 1}, []))
    runs.append(("tower", {"m_max": 3}, []))

    ok = True
    for command, doc, flags in runs:
        text = json.dumps(doc)
        code1, out1 = run_from_args([command, *flags], stdin_text=text)
        code2, out2 = run_from_args([command, *flags], stdin_text=text)
        ok = ok and code1 == 0 and out1 == out2
        vcode, vout = run_from_args(["verify"], stdin_text=out1)
        verified = json.loads(vout)["result"]["verified"]
        ok = ok and vcode == 0 and verified
    conclude(10, "CLI byte-identical reruns; verify round-trips with exit 0",
             ok, f" ({len(runs)} commands)")
