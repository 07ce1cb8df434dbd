"""The benchmark's workloads: seeded request pools and their checks.

Every input is drawn from the benchmark's own numpy generator, so the
program only ever sees JSON text and command-line arguments.  A builder
returns a small pool of distinct requests; the run cycles through the pool,
so every request is repeated and its output bytes can be compared.  The
README in this directory says why each workload was chosen.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import checks


@dataclass(frozen=True)
class Request:
    argv: tuple
    stdin: str
    code: int  # expected exit code
    check: Callable[[dict], None]  # raises checks.CheckFailed


def matrix_doc(m: np.ndarray) -> dict:
    return {"n": int(m.shape[0]), "entries": np.stack([m.real, m.imag], axis=-1).tolist()}


def trace_zero_hermitian(rng, n: int, repeated: bool = False) -> np.ndarray:
    """U diag(lam) U* with Haar-like U; ``repeated`` uses 4 distinct eigenvalues."""
    if repeated:
        lam = rng.standard_normal(4)[np.arange(n) % 4]
    else:
        lam = rng.standard_normal(n)
    lam -= lam.mean()
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    h = (q * lam) @ q.conj().T
    return (h + h.conj().T) / 2.0


def matrix_io(rng, run, n: int = 128, pool: int = 8) -> list:
    """decompose on n x n matrices, alternating generic and repeated spectra;
    one request in 8 has a string deep in ``entries`` and must exit 2."""
    requests = []
    for i in range(pool):
        a = trace_zero_hermitian(rng, n, repeated=i % 2 == 1)
        doc = matrix_doc(a)
        if i % 8 == 7:
            row = int(rng.integers(n * 3 // 4, n))
            col = int(rng.integers(n))
            part = int(rng.integers(2))
            bad = f"x{int(rng.integers(1000))}"
            doc["entries"][row][col][part] = bad
            expected = {"error": f"{bad!r} is not of type 'number'",
                        "path": f"$.entries[{row}][{col}][{part}]"}
            requests.append(Request(("decompose",), json.dumps(doc), 2,
                                    partial(checks.check_error, expected)))
        else:
            requests.append(Request(("decompose",), json.dumps(doc), 0,
                                    partial(checks.check_decompose, a)))
    return requests


def tower_deep(rng, run, blocks: int = 9, rank: int = 16, depth: int = 8,
               pool: int = 3) -> list:
    """fack-run down a tower of rank-16 projections, one --seed per request."""
    tower = {"blocks": [{"rank": rank}] * blocks, "L": 1, "K": 1, "M": 1,
             "epsilon": 0.5, "deltas": [2.0 ** -(i + 1) for i in range(blocks - 1)]}
    text = json.dumps({"tower": tower, "depth": depth})
    seeds = rng.integers(2 ** 62, size=pool)
    return [Request(("fack-run", "--seed", str(int(s))), text, 0,
                    partial(checks.check_fack_run, tower, depth)) for s in seeds]


OCTAHEDRON = [[a, b, c] for a in (0, 1) for b in (2, 3) for c in (4, 5)]


def field_refine(rng, run, n: int = 4, refine: int = 2, pool: int = 8) -> list:
    """decompose-field on the refined octahedron with seeded vertex values."""
    requests = []
    for _ in range(pool):
        values = [trace_zero_hermitian(rng, n) for _ in range(6)]
        doc = {"complex": {"vertices": 6, "simplices": OCTAHEDRON}, "n": n,
               "values": {str(v): matrix_doc(m) for v, m in enumerate(values)}}
        requests.append(Request(("decompose-field", "--refine", str(refine)), json.dumps(doc),
                                0, partial(checks.check_decompose_field, OCTAHEDRON,
                                           values, refine)))
    return requests


def verify_matrix(rng, run, n: int = 128, pool: int = 4) -> list:
    """verify of decompose-tight outputs, which are made here and not timed."""
    requests = []
    for i in range(pool):
        a = trace_zero_hermitian(rng, n, repeated=i % 2 == 1)
        _, text = run(["decompose-tight"], json.dumps(matrix_doc(a)))
        requests.append(Request(("verify",), text, 0, checks.check_verify))
    return requests


def obstruct_exact(rng, run, variables: int = 15, pool: int = 4) -> list:
    """obstruct with as many distinct degree vectors (entries -2..2) as variables."""
    requests = []
    for _ in range(pool):
        summands = []
        while len(summands) < variables:
            vec = [int(c) for c in rng.integers(-2, 3, variables)]
            if vec not in summands:
                summands.append(vec)
        doc = {"q": {"variables": variables, "summands": summands}, "n": 1}
        requests.append(Request(("obstruct",), json.dumps(doc), 0,
                                partial(checks.check_obstruct, summands)))
    return requests


# Why each workload was chosen: README.md in this directory and BENCHMARK.json.
WORKLOADS = {
    "matrix-io": matrix_io,
    "tower-deep": tower_deep,
    "field-refine": field_refine,
    "verify-matrix": verify_matrix,
    "obstruct-exact": obstruct_exact,
}
