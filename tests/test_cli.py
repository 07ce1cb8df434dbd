import ast
import dataclasses
import hashlib
import itertools
import json
import math
import pathlib
import re
import subprocess
import sys
import time
import warnings

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tracezero
from helpers import (
    circle_complex,
    collapse_defect,
    field_to_json,
    random_unitary,
    record_collapse,
    run_script,
    src_env,
)
from tracezero import claims, schemas
from tracezero.cli import RunConfig, build_parser, encode, main, run_from_args
from tracezero.errors import InvalidInputError
from tracezero.jsonio import decode_input, matrix_to_json
from tracezero.matcore import MAX_FLOAT, commutator, hermitian_eig, operator_norm
from tracezero.ozfield import SimplicialComplex, make_field, require_refine_budget
from tracezero.rand import SplitMix64, random_complex_matrix, random_trace_zero_hermitian
from tracezero.schemas import INPUT_SCHEMAS, NAMED_SCHEMAS, validate
from tracezero.towers import TowerModel, push_step

REPO = pathlib.Path(__file__).resolve().parents[1]

SZ = np.diag([1.0, -1.0]).astype(complex)


def run_cmd(command, doc, *flags):
    code, text = run_from_args([command, *flags], stdin_text=json.dumps(doc))
    return code, json.loads(text), text


TINY = float(np.finfo(float).tiny)  # the smallest normal float, 2^-1022

_PATH = SimplicialComplex.make(3, [(0, 1), (1, 2)])
_VERTEX_VALUES = {"z": SZ, "traced": np.eye(2, dtype=complex),
                  "small trace": np.diag([1e-3, -1e-3 + 1e-11]).astype(complex),
                  "not hermitian": np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
                  "tiny skew": np.array([[0.0, 1e-13], [0.0, 0.0]], dtype=complex)}


def sample_field_doc():
    c = circle_complex(6)
    rng = SplitMix64(77)
    fld = make_field(c, [random_trace_zero_hermitian(rng, 2) for _ in range(6)])
    return field_to_json(fld)


def sample_block_split_doc():
    rng = SplitMix64(78)
    r, d = 2, 3
    pairs = [(random_complex_matrix(rng, r), random_complex_matrix(rng, r))
             for _ in range(d)]
    b = np.zeros((d * r, d * r), dtype=complex)
    for i in range(d - 1):
        b[i * r:(i + 1) * r, i * r:(i + 1) * r] = random_complex_matrix(rng, r)
    total = sum(commutator(x, y) for x, y in pairs)
    others = sum(b[i * r:(i + 1) * r, i * r:(i + 1) * r] for i in range(d - 1))
    b[(d - 1) * r:, (d - 1) * r:] = total - others
    return {
        "blocks": d,
        "b": matrix_to_json(b),
        "pairs": [{"x": matrix_to_json(x), "y": matrix_to_json(y)} for x, y in pairs],
        "e": matrix_to_json(np.eye(r, dtype=complex)),
    }


def sample_tower_doc(L=1, K=1):
    return {"tower": {"blocks": [{"rank": 3}] * 4, "L": L, "K": K, "M": 1},
            "depth": 3}


@st.composite
def _huge_hermitian_stacks(draw):
    """Stacks of 1 to 4 Hermitian n x n matrices, n from 1 to 8: full
    blocks of +-8e307, and random ones whose real and imaginary parts reach
    MAX_FLOAT / 2 over a drawn power of two, or pass it by one ulp."""
    n = draw(st.integers(1, 8))
    mats = []
    for _ in range(draw(st.integers(1, 4))):
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        kind = draw(st.sampled_from(["full", "random", "beyond"]))
        if kind == "full":
            upper = np.triu(rng.choice([-8e307, 8e307], (n, n)))
            mats.append(upper + np.triu(upper, 1).T)
            continue
        top = MAX_FLOAT / 2 * 2.0 ** -draw(st.integers(0, 12))
        if kind == "beyond":
            top = float(np.nextafter(MAX_FLOAT / 2, np.inf))
        z = np.triu(rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n)), 1) * top
        diagonal = rng.uniform(-1, 1, n) * top
        diagonal[rng.integers(n)] = top * draw(st.sampled_from([-1.0, 1.0]))
        mats.append(z + z.conj().T + np.diag(diagonal))
    return np.array(mats, dtype=complex)


ALL_RUNS = [
    ("decompose", lambda: matrix_to_json(SZ), ()),
    ("decompose-tight", lambda: matrix_to_json(SZ), ()),
    ("decompose-field", sample_field_doc, ("--refine", "1")),
    ("fack-run", sample_tower_doc, ("--seed", "9")),
    ("block-split", sample_block_split_doc, ()),
    ("obstruct", lambda: {"q": {"variables": 1, "summands": [[1]]}, "n": 1}, ()),
    ("pp-example", lambda: {"m": 2}, ()),
    ("tower", lambda: {"m_max": 2}, ()),
]


class TestCommands:
    def test_decompose_two_by_two(self):
        code, doc, _ = run_cmd("decompose", matrix_to_json(SZ))
        assert code == 0
        entries = doc["result"]["factors"][0]["x"]["entries"]
        assert entries[1][0] == [1.0, 0.0]
        assert doc["report"]["all_passed"]

    @pytest.mark.parametrize("command", ["decompose", "decompose-tight"])
    def test_decompose_identity_exits_1(self, command):
        # no sum of commutators comes closer to the identity than tr/n = 1:
        # a full certificate whose reconstruction claim fails
        code, doc, _ = run_cmd(command, matrix_to_json(np.eye(2, dtype=complex)))
        assert code == 1
        residual = doc["report"]["bound_checks"][0]
        assert (residual["name"], residual["measured_value"], residual["passed"]) \
            == ("reconstruction_residual", 1.0, False)
        assert [c["passed"] for c in doc["report"]["bound_checks"]] == [False, True]
        vcode, vdoc, _ = run_cmd("verify", doc)
        assert vcode == 1
        assert vdoc["result"]["mismatches"] == [
            "$.report.bound_checks[0]: reconstruction_residual: re-measured 1.0 exceeds "
            "claimed bound 1e-09"]

    def test_schema_violation_exits_2(self):
        code, doc, _ = run_cmd("decompose", {"n": 2})
        assert code == 2
        assert "entries" in doc["error"]

    def test_obstruct_verdict(self):
        code, doc, _ = run_cmd(
            "obstruct", {"q": {"variables": 1, "summands": [[1]]}, "n": 1})
        assert code == 0
        assert doc["result"]["verdict"] is True

    def test_tower_command(self):
        code, doc, _ = run_cmd("tower", {"m_max": 3})
        assert code == 0
        assert doc["result"]["all_verdicts_true"] is True
        assert doc["result"]["k"][-1] == "402653256"

    def test_pp_example_with_field(self):
        code, doc, _ = run_cmd("pp-example", {"m": 1})
        assert code == 0
        assert doc["result"]["certificate"]["verdict"] is True
        assert doc["result"]["field"]["complex"]["vertices"] == 6

    def test_fack_run_counts(self):
        code, doc, _ = run_cmd("fack-run", sample_tower_doc(), "--seed", "5")
        assert code == 0
        assert len(doc["result"]["factors"]) <= 2
        assert doc["result"]["residual_norm"] <= 2.0 ** -3

    def test_decompose_field_refine(self):
        code, doc, _ = run_cmd("decompose-field", sample_field_doc(), "--refine", "1")
        assert code == 0
        assert max(doc["result"]["coloring"]) + 1 == 2
        assert doc["report"]["all_passed"]

    def test_block_split(self):
        code, doc, _ = run_cmd("block-split", sample_block_split_doc())
        assert code == 0
        assert doc["report"]["all_passed"]

    def test_oversized_tower_exits_2_before_allocating(self):
        # 100000^2 complex entries would need about 160 GB
        code, doc, _ = run_cmd("fack-run", {"tower": {"blocks": [{"rank": 100000}]}})
        assert code == 2
        assert "budget" in doc["error"]
        assert doc["path"] == "stdin"

    @pytest.mark.parametrize("command,constructor", [
        ("decompose", "self_commutator_decompose"),
        ("decompose-tight", "tight_commutator_decompose")])
    def test_a_non_finite_factor_exits_2_inside_run(self, monkeypatch, capfd, command,
                                                     constructor):
        # The handler's as_matrix check runs inside run's error handling, not
        # in encode, so a non-finite computed matrix is an exit-2 document.
        construct = getattr(tracezero.cli, constructor)

        def with_nan(a, **kwargs):
            dec = construct(a, **kwargs)
            x = np.array(dec.factors[0] if dec.kind == "self_commutators" else dec.factors[0][0])
            x[0, 0] = math.nan
            dec.factors[0] = x if dec.kind == "self_commutators" else (x, dec.factors[0][1])
            return dec

        monkeypatch.setattr(tracezero.cli, constructor, with_nan)
        code, doc, _ = run_cmd(command, matrix_to_json(SZ))
        assert code == 2
        assert doc == {"error": "matrix has non-finite entries", "path": "stdin"}
        assert capfd.readouterr().err == ""

    def test_fack_run_eigendecomposes_each_element_once(self, monkeypatch):
        original = tracezero.matcore.hermitian_eig
        calls = []

        def counting(a, **kwargs):
            calls.append(1)
            return original(a, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("tracezero") and getattr(module, "hermitian_eig", None) is original:
                monkeypatch.setattr(module, "hermitian_eig", counting)
        blocks = 5
        doc = {"tower": {"blocks": [{"rank": 3}] * blocks}, "depth": blocks - 1}
        code, _, _ = run_cmd("fack-run", doc, "--seed", "4")
        assert code == 0
        assert 0 < len(calls) <= 3 * blocks + 1

    @pytest.mark.parametrize("command, make_doc, norms", [
        # norm(a), norm(a - [x*, x]) and norm(x)
        ("decompose", lambda: matrix_to_json(random_trace_zero_hermitian(SplitMix64(3), 6)),
         {(6, 6): 3}),
        # norm(a), norm(a - [x, y]), norm(x) and norm(y)
        ("decompose-tight",
         lambda: matrix_to_json(random_trace_zero_hermitian(SplitMix64(3), 6)), {(6, 6): 4}),
        # the benchmark's deep tower: nine rank-16 blocks, depth 8.  In M_144
        # norm(z0) and the in-block residual's norm; each
        # stage works on the 32 support coordinates of its two blocks and
        # takes norm(remainder), norm(c) and norm(d) there
        ("fack-run", lambda: {"tower": {"blocks": [{"rank": 16}] * 9, "L": 1, "K": 1, "M": 1,
                                        "epsilon": 0.5,
                                        "deltas": [2.0 ** -(i + 1) for i in range(8)]},
                              "depth": 8}, {(144, 144): 2, (32, 32): 3 * 8}),
    ], ids=["decompose", "decompose-tight", "fack-run"])
    def test_norms_of_element_size_matrices(self, monkeypatch, command, make_doc, norms):
        # SVDs, not calls: operator_norm takes none on a zero matrix, and
        # every SVD taken is counted at its shape
        original = tracezero.matcore.operator_norm
        shapes = []

        def counting(a):
            if np.any(a):
                shapes.append(np.shape(a))
            return original(a)

        for name, module in list(sys.modules.items()):
            if name.startswith("tracezero") and getattr(module, "operator_norm", None) is original:
                monkeypatch.setattr(module, "operator_norm", counting)
        code, _, _ = run_cmd(command, make_doc(), "--seed", "1")
        assert code == 0
        assert {shape: shapes.count(shape) for shape in shapes} == norms

    def test_a_measured_value_over_its_claim_exits_1(self, monkeypatch):
        factors = tracezero.selfcomm.self_commutator_factors

        def doubled(stack, **kwargs):
            x, norms = factors(stack, **kwargs)
            return 2.0 * x, norms

        monkeypatch.setattr(tracezero.selfcomm, "self_commutator_factors", doubled)
        code, doc, _ = run_cmd("decompose", matrix_to_json(SZ))
        assert code == 1
        # norm(a - [x*, x]) = 3 over its claim 1e-9, norm(x)^2 / norm(a) = 4 over 2
        assert [(c["measured_value"], c["passed"]) for c in doc["report"]["bound_checks"]] \
            == [(3.0, False), (4.0, False)]
        assert doc["report"]["all_passed"] is False
        vcode, vdoc, _ = run_cmd("verify", doc)
        assert vcode == 1
        assert vdoc["result"]["mismatches"] == [
            "$.report.bound_checks[0]: reconstruction_residual: re-measured 3.0 exceeds "
            "claimed bound 1e-09",
            "$.report.bound_checks[1]: norm_sq_over_norm_a: re-measured 4.0 exceeds "
            "claimed bound 2.0"]

    @pytest.mark.parametrize("command", ["decompose", "decompose-tight"])
    def test_a_trace_within_tol_decomposes_and_verifies(self, command):
        # the trace 5e-10 leaves tr/n = 2.5e-10 on the identity, inside the
        # reconstruction claim's 1e-9
        code, doc, _ = run_cmd(command, matrix_to_json(np.diag([1.0, -0.9999999995])))
        assert code == 0
        residual = doc["report"]["bound_checks"][0]
        assert residual["name"] == "reconstruction_residual"
        assert residual["measured_value"] == pytest.approx(2.5e-10, rel=1e-6)
        assert residual["passed"] is True
        vcode, vdoc, _ = run_cmd("verify", doc)
        assert vcode == 0
        assert vdoc["result"]["verified"] is True

    def test_a_trace_within_a_loose_tol_fails_its_reconstruction_claim(self):
        # the trace 1e-7 leaves tr/n = 5e-8, which the reconstruction claim,
        # at 1e-9, measures and fails: a report, not an error document
        code, doc, _ = run_cmd("decompose", matrix_to_json(np.diag([1.0, -0.9999999])))
        assert code == 1
        assert "error" not in doc
        residual = doc["report"]["bound_checks"][0]
        assert residual["name"] == "reconstruction_residual"
        assert residual["measured_value"] == pytest.approx(5e-8, rel=1e-6)
        assert residual["passed"] is False
        assert doc["report"]["all_passed"] is False
        vcode, vdoc, _ = run_cmd("verify", doc)
        assert vcode == 1
        assert [m.split(":")[0] for m in vdoc["result"]["mismatches"]] \
            == ["$.report.bound_checks[0]"]

    @pytest.mark.parametrize("command", ["decompose", "decompose-tight"])
    def test_entries_near_the_float_maximum_exit_2_naming_the_range(self, command):
        code, doc, _ = run_cmd(command, matrix_to_json(np.diag([1e308, -1e308])))
        assert code == 2
        assert doc == {"error": "a has entries beyond about 8.988e+307 in magnitude, "
                                "where m + m* overflows a float", "path": "stdin"}

    @pytest.mark.parametrize("command", ["decompose", "decompose-tight"])
    def test_a_tiny_skew_matrix_is_not_hermitian(self, command):
        # max|a - a*| = 1e-13 against 1e-12 * 1e-13 + TINY: its skew part is
        # not certified away
        code, doc, _ = run_cmd(command, matrix_to_json(np.array([[0.0, 1e-13], [0.0, 0.0]])))
        assert (code, doc) == (2, {"error": "a is not Hermitian within 1e-12 of its largest entry",
                                   "path": "stdin"})

    @pytest.mark.parametrize("command", ["decompose", "decompose-tight"])
    def test_huge_skew_entries_exit_2_with_nothing_on_stderr(self, command, capfd):
        # m - m* is 2e308 here: the Hermitian rule must not overflow computing it
        a = np.array([[0.0, 1e308], [-1e308, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, doc, _ = run_cmd(command, matrix_to_json(a))
        assert code == 2
        assert doc == {"error": "a is not Hermitian within 1e-12 of its largest entry",
                       "path": "stdin"}
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("command", ["decompose", "decompose-tight"])
    @pytest.mark.parametrize("name", ["two blocks", "full"])
    def test_norm_beyond_the_range_exits_2_with_nothing_on_stderr(self, command, name, capfd):
        # Every entry is inside the entry range, but the norm is not: the
        # eigenvalue sums of the first overflowed, the second's eigh did.
        v = 8e307
        if name == "two blocks":
            a = np.kron(np.eye(2), [[v, v], [v, -v]])
        else:
            a = np.full((4, 4), v)
            a[2:, 2:] *= -1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, doc, _ = run_cmd(command, matrix_to_json(a))
        assert code == 2
        assert doc == {"error": "a has norm beyond 4.494e+307, the float maximum over its "
                                "size 4, where a sum of its eigenvalues can overflow",
                       "path": "stdin"}
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("diagonal,error", [
        # a trace is no invalid input, but these norms are out of range
        ([8e307] * 4, "vertex 0: a has norm beyond 4.494e+307, the float maximum over its "
                      "size 4, where a sum of its eigenvalues can overflow"),
        ([1.7e308] * 6, "vertex 0: a has entries beyond about 8.988e+307 in magnitude, where "
                        "m + m* overflows a float"),
        # trace zero, though summing it unscaled overflows: the range rule words it
        ([1.7e308, 1.7e308, -1.7e308, -1.7e308],
         "vertex 0: a has entries beyond about 8.988e+307 in magnitude, where m + m* "
         "overflows a float"),
    ])
    def test_field_vertex_trace_near_the_float_maximum_exits_2_with_nothing_on_stderr(
            self, diagonal, error, capfd):
        fld = make_field(SimplicialComplex.make(1, [(0,)]), [np.diag(diagonal)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, doc, _ = run_cmd("decompose-field", field_to_json(fld))
        assert code == 2
        assert doc == {"error": error, "path": "stdin"}
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("refine", ["0", "1", "2"])
    def test_refining_values_near_the_float_maximum_writes_nothing_on_stderr(
            self, refine, capfd):
        # the sum over a face of 3 * 6e307 overflows, so those means are
        # taken scaled; 1.7e308 is refused by the input's entry range, as
        # unrefined
        triangle = SimplicialComplex.make(3, [(0, 1, 2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = field_to_json(make_field(triangle, [np.diag([1.7e308, -1.7e308])] * 3))
            assert run_cmd("decompose-field", big, "--refine", refine)[:2] == (2, {
                "error": "vertex 0: a has entries beyond about 8.988e+307 in magnitude, "
                         "where m + m* overflows a float", "path": "stdin"})
            doc = field_to_json(make_field(triangle, [np.diag([6e307, -6e307])] * 3))
            code, out, _ = run_cmd("decompose-field", doc, "--refine", refine)
            assert code == 0
            assert {entries[0][0][0] for entries in (
                value["entries"] for value in out["result"]["field"]["values"].values())} \
                == {6e307}
            assert run_cmd("verify", out)[1]["result"] == {
                "verified": True, "mismatches": [], "inner_exit_code": 0}
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("where, name", [
        (("pairs", 0, "x"), "pairs[0].x"), (("pairs", 2, "y"), "pairs[2].y"),
        (("b",), "b"), (("e",), "e")])
    def test_block_split_entry_beyond_its_range_exits_2_naming_the_input(
            self, where, name, capfd):
        # at the parent these products overflowed in matmul, warned on
        # stderr and blamed "matrix has non-finite entries"
        doc = sample_block_split_doc()
        _, out, _ = run_cmd("block-split", doc)
        _violating(doc, [(where + ("entries", 0, 0, 0), 1e308)])
        out["input"] = doc
        error = {"error": f"{name} has entries beyond about 2.352e+101 in magnitude, where "
                          "the products of three inputs that block-split forms can overflow "
                          "a float", "path": "stdin"}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cmd("block-split", doc)[:2] == (2, error)
            assert run_cmd("verify", out)[:2] == (2, error)
        assert capfd.readouterr().err == ""

    def test_block_split_at_its_range_computes_and_verifies(self, capfd):
        # b scaled by t^2 and the pairs by t keep the input's balance; t is
        # the power of two that puts b's largest entry within 4x of the range
        doc = sample_block_split_doc()
        b = np.array(doc["b"]["entries"])
        t = 2.0 ** math.floor(math.log2(2.352e101 / np.abs(b).max()) / 2)
        doc["b"]["entries"] = (b * t * t).tolist()
        for pair in doc["pairs"]:
            for key in "xy":
                pair[key]["entries"] = (np.array(pair[key]["entries"]) * t).tolist()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cmd("block-split", doc)
            assert code == 0
            assert run_cmd("verify", out)[1]["result"] == {
                "verified": True, "mismatches": [], "inner_exit_code": 0}
        assert capfd.readouterr().err == ""

    def test_fack_run_z0_beyond_its_range_exits_2_naming_z0(self, capfd):
        # Hermitian and trace zero; without the range the in-block finish
        # overflowed in add, warned on stderr and blamed "a has non-finite
        # entries".  The range is the float maximum over 8 n^2 L count K^T
        tower = {"blocks": [{"rank": 2}, {"rank": 2}]}
        _, out, _ = run_cmd("fack-run", {"tower": tower})
        doc = {"tower": tower, "z0": matrix_to_json(np.diag([1e308, -1e308, 0.0, 0.0]))}
        out["input"] = doc
        error = {"error": "z0 has entries beyond about 7.022e+305 in magnitude, where the "
                          "matrices a fack-run forms from it can overflow a float",
                 "path": "stdin"}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cmd("fack-run", doc)[:2] == (2, error)
            assert run_cmd("verify", out)[:2] == (2, error)
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("tower, n, growth", [
        ({"blocks": [{"rank": 2}, {"rank": 2}]}, 4, 8 * 4 * 4 * 2),
        # K = 2 over two stages: count 2 + max(1, 2) and K^T = 4
        ({"blocks": [{"rank": 2}] * 3, "K": 2}, 6, 8 * 6 * 6 * 4 * 4),
    ], ids=["K1", "K2"])
    def test_fack_run_z0_at_its_range_computes_and_verifies(self, tower, n, growth, capfd):
        t = np.finfo(float).max / growth
        z0 = np.zeros((n, n))
        z0[0, 0], z0[1, 1], z0[0, 1], z0[1, 0] = t, -t, t, t
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cmd("fack-run", {"tower": tower, "z0": matrix_to_json(z0)})
            assert code == 0
            assert run_cmd("verify", out)[1]["result"] == {
                "verified": True, "mismatches": [], "inner_exit_code": 0}
        assert capfd.readouterr().err == ""

    def test_fack_run_element_beyond_the_range_exits_2_naming_the_element(self, capfd):
        # named as the input names it, not as "matrix"
        blocks = [np.diag([1e308, 1e308, 0.0, 0.0]), np.diag([0.0, 0.0, 1.0, 1.0])]
        doc = {"tower": {"blocks": [matrix_to_json(b) for b in blocks]}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cmd("fack-run", doc)[:2] == (2, {
                "error": "e_0 has entries beyond about 1.676e+153 in magnitude, where the "
                         "products of two blocks that fack-run forms can overflow a float",
                 "path": "stdin"})
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("scale, index", [(1e200, 0), (1.2e153, 2)])
    def test_fack_run_elements_whose_products_overflow_exit_2_naming_the_element(
            self, scale, index, capfd):
        # finite and far inside m + m*'s range, but e_0 e_2 overflowed in the
        # orthogonality check's matmul, warned on stderr and blamed "matrix
        # has non-finite entries".  The range is sqrt(float max) / 2n
        _, out, _ = run_cmd("fack-run", {"tower": {"blocks": [
            matrix_to_json(np.diag(np.roll([1.0, 1.0, 0, 0, 0, 0], 2 * i))) for i in range(3)]}})
        diagonals = [[1.0, 1.0, 0, 0, 0, 0], [0, 0, 1.0, 1.0, 0, 0], [1.0, 1.0, 0, 0, 0, 0]]
        diagonals[index] = [scale * x for x in diagonals[index]]
        doc = {"tower": {"blocks": [matrix_to_json(np.diag(d)) for d in diagonals]}}
        out["input"] = doc
        error = {"error": f"e_{index} has entries beyond about 1.117e+153 in magnitude, where "
                          "the products of two blocks that fack-run forms can overflow a float",
                 "path": "stdin"}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cmd("fack-run", doc)[:2] == (2, error)
            assert run_cmd("verify", out)[:2] == (2, error)
        assert capfd.readouterr().err == ""

    def test_fack_run_elements_at_their_range_compute_and_verify(self, capfd):
        t = math.sqrt(np.finfo(float).max) / 12  # n = 6
        blocks = [np.diag(np.roll([t, t, 0, 0, 0, 0], 2 * i)) for i in range(3)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cmd("fack-run", {"tower": {"blocks": [
                matrix_to_json(b) for b in blocks]}})
            assert code == 0
            assert run_cmd("verify", out)[1]["result"] == {
                "verified": True, "mismatches": [], "inner_exit_code": 0}
            # the same blocks with e_2 on e_0's support: the check measures
            # the overlap, a finite number, instead of overflowing
            blocks[2] = blocks[0]
            assert run_cmd("fack-run", {"tower": {"blocks": [
                matrix_to_json(b) for b in blocks]}})[1]["error"].startswith(
                "tower blocks 0 and 2 are not orthogonal: 1.248e+306")
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("command", ["decompose", "decompose-tight"])
    def test_norm_at_the_range_decomposes_with_nothing_on_stderr(self, command, capfd):
        half_max = np.finfo(float).max / 2  # the float maximum over the size 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, doc, _ = run_cmd(command, matrix_to_json(np.diag([half_max, -half_max])))
        assert code == 0
        assert doc["report"]["all_passed"] is True
        assert capfd.readouterr().err == ""

    @settings(max_examples=150, deadline=None)
    @given(stack=_huge_hermitian_stacks())
    def test_stack_norm_rule_is_each_matrix_alone_with_no_warning(self, stack):
        # eigh sees every in-range matrix; an eigenvalue beyond the float
        # maximum over n comes back large or inf and fails the norm rule
        n = stack.shape[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                es = hermitian_eig(stack)
            except InvalidInputError as err:
                first = err
            else:
                first = None
                for k, a in enumerate(stack):
                    alone = hermitian_eig(a)
                    assert es.eigenvalues[k].tobytes() == alone.eigenvalues.tobytes()
                    assert es.unitary[k].tobytes() == alone.unitary.tobytes()
                    assert np.max(np.abs(alone.eigenvalues)) <= MAX_FLOAT / n
            if first is not None:
                assert str(first) in (
                    "matrix has entries beyond about 8.988e+307 in magnitude, "
                    "where m + m* overflows a float",
                    f"matrix has norm beyond {MAX_FLOAT / n:.3e}, the float maximum over "
                    f"its size {n}, where a sum of its eigenvalues can overflow")
                for a in stack[:first.index]:
                    hermitian_eig(a)
                with pytest.raises(InvalidInputError) as alone:
                    hermitian_eig(stack[first.index])
                assert str(alone.value) == str(first)

    def test_fack_run_measures_a_wrong_collapse_by_its_residual_claim(self, monkeypatch):
        # the collapse does not check that the merged pair reproduces the sum:
        # tower_iterate's residual claim, norm(z0 - sum [x, y]), measures it,
        # and verify again
        collapse = tracezero.towers.collapse

        def perturbed(pairs):
            c, d = collapse(pairs)
            return c, 1.5 * d

        monkeypatch.setattr(tracezero.towers, "collapse", perturbed)
        doc = {"tower": {"blocks": [{"rank": 3}] * 5}, "depth": 4}
        code, out_doc, _ = run_cmd("fack-run", doc, "--seed", "4")
        assert code == 1
        residual = out_doc["report"]["bound_checks"][0]
        assert residual["name"] == "residual_norm"
        assert residual["passed"] is False
        assert residual["measured_value"] > residual["claimed_bound"]
        monkeypatch.undo()
        vcode, vdoc, _ = run_cmd("verify", out_doc)
        assert vcode == 1
        assert vdoc["result"]["verified"] is False
        assert vdoc["result"]["mismatches"][0].startswith("$.report.bound_checks[0]")

    def test_fack_run_on_a_rotated_tower_takes_the_dense_path(self, monkeypatch):
        slots = record_collapse(monkeypatch)
        diagonals = np.repeat(np.eye(4), 2, axis=1)  # four rank-2 blocks in size 8
        code, doc, _ = run_cmd("fack-run", _rotated_tower_doc(diagonals), "--seed", "6")
        assert code == 0
        assert doc["report"]["all_passed"]
        assert doc["result"]["tower_report"]["all_passed"]
        # the summed pairs are dense: their cross products vanish up to rounding
        assert max(len(slot) for slot in slots) > 1
        assert 0.0 < collapse_defect(slots) <= 1e-10

    def test_fack_run_rejects_a_rotated_overlapping_tower(self):
        code, doc, _ = run_cmd("fack-run", _rotated_tower_doc(_OVERLAPPING_DIAGONALS))
        assert code == 2
        assert doc["error"].startswith("tower blocks 1 and 2 are not orthogonal: ")

    @pytest.mark.parametrize("depth", [1, 2])
    def test_fack_run_rejects_block_0_meeting_block_2_at_every_depth(self, depth):
        # stages 1 and 3 share a family, so blocks 0 and 2 must be orthogonal
        # even where the run stops before stage 3
        blocks = [np.diag(d).astype(complex) for d in
                  ([1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [1, 0, 0, 0, 1, 0])]
        doc = {"tower": {"blocks": [matrix_to_json(b) for b in blocks]}, "depth": depth}
        code, out, _ = run_cmd("fack-run", doc)
        assert code == 2
        assert out["error"] == "tower blocks 0 and 2 are not orthogonal: 1.000e+00"

    @pytest.mark.parametrize("delta, error", [
        (1e-12, None),
        (1e-8, "tower blocks 0 and 2 are not orthogonal: 1.000e-02"),
    ])
    def test_block_orthogonality_tolerance_scales_with_the_block_norms(self, delta, error):
        # norm(e_0 e_2) is 1e6 delta against 1e-10 max(1, norm(e_0) norm(e_2)) = 1e-4:
        # 1e-6 is over the unscaled 1e-10 but passes, 1e-2 exits 2
        v = np.zeros(6)
        v[0], v[4] = delta, 1.0
        blocks = [1e3 * np.diag([1.0, 1, 0, 0, 0, 0]), 1e3 * np.diag([0, 0, 1.0, 1, 0, 0]),
                  1e3 * (np.outer(v, v) + np.diag([0, 0, 0, 0, 0, 1.0]))]
        doc = {"tower": {"blocks": [matrix_to_json(b) for b in blocks]}, "depth": 1}
        code, out, _ = run_cmd("fack-run", doc)
        if error is None:
            assert code == 0 and out["report"]["all_passed"]
        else:
            assert (code, out["error"]) == (2, error)

    @pytest.mark.parametrize("slack, error", [
        (1e-10, None),
        (1e-8, "e does not act as a unit on partial sum 1"),
    ])
    def test_block_split_unit_tolerance_scales_with_the_partial_sum(self, slack, error):
        # s_1 = diag(1e3, 0) and e = diag(1 + slack, 0): the unit defect 1e3 slack
        # against 1e-9 max(1, norm(s_1)) = 1e-6: 1e-7 is over the unscaled 1e-9
        # but passes, 1e-5 exits 2
        zero = matrix_to_json(np.zeros((2, 2)))
        doc = {"blocks": 2, "b": matrix_to_json(np.diag([1e3, 0.0, -1e3, 0.0])),
               "pairs": [{"x": zero, "y": zero}] * 2,
               "e": matrix_to_json(np.diag([1.0 + slack, 0.0]))}
        code, out, _ = run_cmd("block-split", doc)
        if error is None:
            assert code == 0 and out["report"]["all_passed"]
        else:
            assert (code, out["error"]) == (2, error)

    @pytest.mark.parametrize("tower, depth", [
        ({"blocks": [{"rank": 1}, {"rank": 1}], "L": 160}, 1),
        ({"blocks": [{"rank": 2}] * 3, "L": 32}, 2),
        ({"blocks": [{"rank": 1}, {"rank": 1}], "L": 4000}, 1),
    ])
    def test_tower_over_the_pair_budget_exits_2_at_once(self, tower, depth):
        start = time.perf_counter()
        code, doc, _ = run_cmd("fack-run", {"tower": tower, "depth": depth})
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert set(doc) == {"error", "path"}
        assert "commutator pairs" in doc["error"] and "over the budget of 512" in doc["error"]

    def test_tower_over_the_output_budget_exits_2_at_once(self, monkeypatch):
        # a 60-byte input whose output would be 7.2M complex entries (about
        # 0.5 GB of JSON): refused by the decoder, for the command and verify
        def refuse(*args):
            raise AssertionError("built an over-budget tower")

        tower = {"tower": {"blocks": [{"rank": 600}, {"rank": 600}]}}
        _, out, _ = run_cmd("fack-run", sample_tower_doc())
        out["input"] = tower
        monkeypatch.setattr("tracezero.cli.TowerModel", refuse)
        error = {"error": "tower output holds 7200000 complex entries (z0 and up to 2 "
                          "commutator pairs of size 1200), over the budget of 1048576",
                 "path": "stdin"}
        start = time.perf_counter()
        assert run_cmd("fack-run", tower)[:2] == (2, error)
        assert run_cmd("verify", out)[:2] == (2, error)
        assert time.perf_counter() - start < 1.0


class TestSupportCoordinates:
    """Each push step works on an orthonormal basis of its two blocks'
    supports; the tower paths no benchmark workload runs still decompose
    and verify."""

    @pytest.mark.parametrize("L", [2, 3])
    def test_a_deep_rank_tower_with_L_above_1_verifies(self, L):
        # nine rank-16 blocks at depth 8: each stage's Neumann loop runs on
        # 32 x 32 matrices, not 144 x 144.  Exit 0: every claim passed
        doc = {"tower": {"blocks": [{"rank": 16}] * 9, "L": L, "K": 1}, "depth": 8}
        code, text = run_from_args(["fack-run", "--seed", "1"], stdin_text=json.dumps(doc))
        assert code == 0
        vcode, vtext = run_from_args(["verify"], stdin_text=text)
        assert (vcode, json.loads(vtext)["result"]["verified"]) == (0, True)

    def test_an_overlapping_rotated_tower_measures_its_stages_in_m_n(self):
        # blocks 0 and 1 share a direction, and a seeded unitary makes no
        # support a set of coordinate columns: stage 1's four basis columns
        # span three dimensions
        doc = _rotated_tower_doc(([1, 1, 0, 0, 0, 0, 0], [0, 1, 1, 0, 0, 0, 0],
                                  [0, 0, 0, 1, 1, 0, 0]), seed=35)
        code, out, _ = run_cmd("fack-run", {**doc, "depth": 2}, "--seed", "3")
        assert code == 0
        assert out["report"]["all_passed"]
        vcode, vdoc, _ = run_cmd("verify", out)
        assert (vcode, vdoc["result"]["verified"]) == (0, True)
        # each stage's remainder_norm, taken in its coordinates, is the norm
        # of the remainder embedded in M_n
        tower_input = decode_input("fack-run", out["input"])
        tower = TowerModel(tower_input)
        z = tower_input.z0
        reported = [next(c["measured_value"] for c in checks if c["name"] == "remainder_norm")
                    for checks in out["result"]["tower_report"]["stage_checks"]]
        for t, expected in enumerate(reported, start=1):
            step = push_step(z, tower.spectra[t - 1], tower.spectra[t].plus, 1, 1)
            assert step.remainder_norm == expected
            assert abs(operator_norm(step.remainder) - expected) <= claims.slack(1e-12, expected)
            z = step.remainder


_OVERLAPPING_DIAGONALS = ([1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.5, 0.0], [0.0, 0.0, 1.0, 1.0])


def _overlapping_blocks_doc():
    blocks = [np.diag(d).astype(complex) for d in _OVERLAPPING_DIAGONALS]
    return {"tower": {"blocks": [matrix_to_json(b) for b in blocks]}}


def _rotated_tower_doc(diagonals, seed=31):
    """Explicit blocks U diag(d) U* for a seeded unitary U: dense matrices."""
    u = random_unitary(SplitMix64(seed), len(diagonals[0]))
    blocks = [u @ np.diag(d).astype(complex) @ u.conj().T for d in diagonals]
    return {"tower": {"blocks": [matrix_to_json(b) for b in blocks]}}


def _unsupported_z0_doc():
    z0 = np.diag([0.0, 0.0, 1.0, -1.0]).astype(complex)
    return {"tower": {"blocks": [{"rank": 2}, {"rank": 2}]}, "z0": matrix_to_json(z0)}


def _unbalanced_block_split_doc():
    doc = sample_block_split_doc()
    doc["b"]["entries"][0][0][0] += 1e-3
    return doc


def _reversed_eigh(only=None):
    """np.linalg.eigh with the eigenvector columns reversed against their
    eigenvalues: of every matrix, or of matrix ``only`` of a stack."""
    eigh = np.linalg.eigh

    def broken(a):
        w, v = eigh(a)
        if only is None:
            return w, v[..., ::-1]
        v = v.copy()
        v[only] = v[only][:, ::-1]
        return w, v

    return broken


def _failing_claims(doc):
    """The names of the failing claims of an output document's report and
    of a fack-run's stage reports."""
    checks = list(doc["report"]["bound_checks"])
    for stage in doc["result"].get("tower_report", {}).get("stage_checks", []):
        checks += stage
    return {c["name"] for c in checks if not c["passed"]}


def _assert_exit_contract(code, doc):
    """Exit 2 is an {"error", "path"} document; any other exit code comes
    with a full document, its report naming every failing claim."""
    if code == 2:
        assert set(doc) == {"error", "path"}
    else:
        assert "error" not in doc
        assert {"result", "report"} <= set(doc)
        assert (code == 1) == (not doc["report"]["all_passed"]
                               or not doc["result"].get("tower_report", {}).get("all_passed", True))


# (command, document, flags, a claim a corrupted eigendecomposition fails)
_CORRUPTED_EIG_RUNS = [
    ("decompose", lambda: matrix_to_json(SZ), (), "reconstruction_residual"),
    ("decompose-tight", lambda: matrix_to_json(SZ), (), "reconstruction_residual"),
    ("decompose-field", sample_field_doc, ("--refine", "1"), "field_residual"),
    ("fack-run", sample_tower_doc, ("--seed", "9"), "residual_norm"),
    ("fack-run", lambda: _rotated_tower_doc(np.repeat(np.eye(4), 2, axis=1)), ("--seed", "6"),
     "residual_norm"),
]

_CAPPED_TOWER = {"tower": {"blocks": [{"rank": 2}] * 3, "L": 2, "K": 1, "M": 1}, "depth": 2}


def _raised_types(tree):
    """(line, what is raised) of every raise statement in a module: the
    called name of a constructed exception, else the raised expression."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            exc = node.exc
            if exc is None:
                yield node.lineno, None
            elif isinstance(exc, ast.Call):
                yield node.lineno, ast.unparse(exc.func)
            else:
                yield node.lineno, ast.unparse(exc)


class TestExitOneCarriesACertificate:
    """Exit 2 means invalid input; exit 1 means a full document whose
    report names the failing claim.  No construction raises on what it
    built: a wrong eigendecomposition or a Neumann iteration stopped at its
    cap is measured by the claims, and ``verify`` rejects the document."""

    @pytest.mark.parametrize("command, make_doc, flags, claim", _CORRUPTED_EIG_RUNS,
                             ids=["decompose", "decompose-tight", "decompose-field",
                                  "rank-tower", "rotated-tower"])
    def test_a_wrong_eigendecomposition_fails_a_claim(self, monkeypatch, command, make_doc,
                                                       flags, claim):
        doc = make_doc()
        monkeypatch.setattr(np.linalg, "eigh", _reversed_eigh())
        code, out, _ = run_cmd(command, doc, *flags)
        monkeypatch.undo()
        assert code == 1
        _assert_exit_contract(code, out)
        assert claim in _failing_claims(out)
        vcode, vdoc, _ = run_cmd("verify", out)
        assert vcode == 1
        assert vdoc["result"]["verified"] is False

    def test_a_wrong_factor_at_a_vertex_outside_every_simplex_fails_field_residual(
            self, monkeypatch):
        # field_residual measures every vertex, in a maximal simplex or not,
        # and verify checks every vertex too
        rng = SplitMix64(12)
        fld = make_field(SimplicialComplex.make(3, [[0, 1]]),
                         [random_trace_zero_hermitian(rng, 3) for _ in range(3)])
        monkeypatch.setattr(np.linalg, "eigh", _reversed_eigh(only=2))
        code, out, _ = run_cmd("decompose-field", field_to_json(fld))
        monkeypatch.undo()
        assert code == 1
        _assert_exit_contract(code, out)
        assert _failing_claims(out) == {"field_residual"}
        vcode, vdoc, _ = run_cmd("verify", out)
        assert vcode == 1
        mismatches = vdoc["result"]["mismatches"]
        assert [m.split(": ")[0] for m in mismatches] == [
            "$.result.factors[0]", "$.report.bound_checks[0]"]
        assert mismatches[0].startswith("$.result.factors[0]: vertex 2: ")
        assert mismatches[1].startswith("$.report.bound_checks[0]: field_residual: ")

    def test_a_neumann_iteration_stopped_at_its_cap_fails_its_claims(self, monkeypatch):
        assert run_cmd("fack-run", _CAPPED_TOWER)[0] == 0
        monkeypatch.setattr(tracezero.towers, "NEUMANN_MAX_ITER", 3)
        code, out, _ = run_cmd("fack-run", _CAPPED_TOWER)
        monkeypatch.undo()
        assert code == 1
        _assert_exit_contract(code, out)
        stages = out["result"]["tower_report"]["stage_checks"]
        assert len(stages) == 2
        for checks in stages:
            recon = next(c for c in checks if c["name"] == "reconstruction_residual")
            assert not recon["passed"]
        vcode, vdoc, _ = run_cmd("verify", out)
        assert vcode == 1
        assert vdoc["result"]["verified"] is False

    @pytest.mark.parametrize("command, make_doc, flags", [
        *ALL_RUNS,
        ("decompose", lambda: matrix_to_json(np.eye(2, dtype=complex)), ()),
        ("decompose", lambda: {"n": 2}, ()),
        ("fack-run", _unsupported_z0_doc, ()),
    ])
    def test_exit_codes_keep_the_contract(self, command, make_doc, flags):
        code, out, _ = run_cmd(command, make_doc(), *flags)
        _assert_exit_contract(code, out)

    def test_only_invalid_input_is_raised(self):
        # A constructed exception is invalid input (InvalidInputError), a
        # malformed certificate (certcheck's Malformed, caught by verify) or
        # the encoder's TypeError for an object that is no JSON.  Any other
        # raise passes on an error caught or handed over: a confirm's error
        # in raise_first_failure, jsonschema's ValidationError, and, bare,
        # a ValidationError in the echoed input of a verified document.
        constructed = {"InvalidInputError", "Malformed"}
        passed_on = {("matcore", "err"), ("schemas", "error"), ("jsonio", "TypeError")}
        package = pathlib.Path(tracezero.__file__).parent
        for path in sorted(package.glob("*.py")):
            for line, raised in _raised_types(ast.parse(path.read_text())):
                assert (raised is None or raised in constructed
                        or (path.stem, raised) in passed_on), f"{path.name}:{line} raises {raised}"


@st.composite
def _traced_hermitians(draw):
    """Hermitian n x n matrices, n from 1 to 16, over the float range: a
    trace-free part, random or of repeated integer eigenvalues rotated, at a
    scale from 1e-310 to 1e300 and maybe off Hermitian by a relative 1e-15,
    plus t*1, t being 0 or a multiple from [-4, 4] of the reconstruction
    bound 1e-9 * norm + TINY, so maybe subnormal."""
    n = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (h + h.conj().T) / 2.0
    else:
        u = random_unitary(SplitMix64(draw(st.integers(0, 2 ** 32 - 1))), n)
        h = u @ np.diag(rng.integers(-2, 3, n).astype(float)) @ u.conj().T
        h = (h + h.conj().T) / 2.0
    h = (h - np.trace(h).real / n * np.eye(n)) * 10.0 ** draw(st.integers(-310, 300))
    if draw(st.booleans()):
        skew = rng.standard_normal((n, n))
        h = h + 1e-15 * np.max(np.abs(h)) * (skew - skew.T)
    c = draw(st.one_of(st.just(0.0), st.floats(-4.0, 4.0)))
    return h + c * (1e-9 * float(np.linalg.norm(h, 2)) + TINY) * np.eye(n)


def _strict_json(text: str):
    """``text`` parsed as standard JSON, which has no Infinity or NaN."""
    def refuse(constant):
        raise AssertionError(f"stdout holds the non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


class TestOneTraceRule:
    """Every commutator has trace zero, so no sum of them comes closer to a
    than |tr a|/n.  The factors decompose a - (tr a/n)*1 and leave exactly
    that, and the reconstruction claim is the only rule that judges it: a
    trace is never invalid input."""

    @pytest.mark.parametrize("command", ["decompose", "decompose-tight"])
    @given(_traced_hermitians())
    @settings(max_examples=60, deadline=None)
    @example(np.array([[2.5e-10 + 0j]]))  # a nonzero 1 x 1 matrix is no commutator
    # the trace-free part's norm exceeds norm(a) by |tr a|/n = 0.4 TINY, 4e-4
    # of norm(a), a trace the reconstruction bound admits: the norm claim allows it
    @example(np.diag([2e-305, -1e-305, -1e-305]) - 0.4 * TINY * np.eye(3))
    def test_the_residual_is_the_trace_over_n(self, command, a):
        n = a.shape[0]
        code, _, text = run_cmd(command, matrix_to_json(a))
        doc = _strict_json(text)
        assert code in (0, 1)
        checks = doc["report"]["bound_checks"]
        a_norm = float(np.linalg.norm(a, 2))
        trace = abs(np.trace(a)) / n
        rounding = 64 * n * (np.finfo(float).eps * a_norm + 5e-324)
        assert abs(checks[0]["measured_value"] - trace) <= 1e-6 * trace + rounding
        multiple = trace / (1e-9 * a_norm + TINY)  # of the reconstruction bound
        if multiple < 0.5:
            assert code == 0
        elif multiple > 2.0:
            assert code == 1 and not checks[0]["passed"]
        vcode, _, vtext = run_cmd("verify", doc)
        vdoc = _strict_json(vtext)
        assert vcode == code
        assert [m.split(":")[0] for m in vdoc["result"]["mismatches"]] \
            == [f"$.report.bound_checks[{i}]" for i, check in enumerate(checks)
                if not check["passed"]]

    @pytest.mark.parametrize("command", ["decompose", "decompose-tight"])
    @pytest.mark.parametrize("diagonal", [[1.0, -0.9999999985],
                                          [1.0] * 4 + [-1.0] * 3 + [-1.0 + 6e-9]])
    def test_a_trace_its_decomposition_can_meet_is_admitted_and_verified(self, command,
                                                                          diagonal):
        # the trace 1.5e-9 or 6e-9 over n is 7.5e-10, inside the claim's 1e-9
        code, doc, _ = run_cmd(command, matrix_to_json(np.diag(diagonal)))
        assert code == 0
        residual = doc["report"]["bound_checks"][0]
        assert residual["name"] == "reconstruction_residual"
        assert residual["measured_value"] == pytest.approx(7.5e-10, rel=1e-6)
        assert run_cmd("verify", doc)[0] == 0

    @pytest.mark.parametrize("command", ["decompose", "decompose-tight"])
    @pytest.mark.parametrize("scale", [1e10, 1e150, 1e300])
    def test_the_norm_claim_tolerance_is_relative_at_large_norms(self, command, scale):
        # 1e-9 in ratio units: 1e-9/norm(a) would be below the ratio's rounding
        rng = SplitMix64(5)
        for n in (2, 7, 16, 64):
            code, doc, _ = run_cmd(command, matrix_to_json(
                random_trace_zero_hermitian(rng, n) * scale))
            assert code == 0
            assert doc["report"]["bound_checks"][1]["tolerance"] == 1e-9
            assert run_cmd("verify", doc)[0] == 0

    @pytest.mark.parametrize("command", ["decompose", "decompose-tight"])
    def test_a_subnormal_matrix_verifies(self, command):
        # the norm claim's tolerance is the reconstruction slack over norm(a),
        # 1e-9 + TINY/norm(a): at most 2^52 + 1e-9 here, where 1e-9/norm(a)
        # overflowed, so the document is standard JSON
        code, _, text = run_cmd(command, matrix_to_json(np.diag([5e-324, -5e-324])))
        doc = _strict_json(text)
        assert code == 0
        assert doc["report"]["bound_checks"][1]["tolerance"] == 1e-9 + TINY / 5e-324 == 2.0 ** 52
        assert run_cmd("verify", doc)[1]["result"]["mismatches"] == []

    @pytest.mark.parametrize("command, factors", [
        ("decompose", "self_commutator_factors"), ("decompose-tight", "tight_commutator_factors")])
    @pytest.mark.parametrize("s", [1e-300, 1e-10, 1.0])
    def test_a_zero_decomposition_fails_at_every_scale(self, monkeypatch, command, factors, s):
        # ||a - 0|| = s against the bound 1e-9 s + TINY: no floor admits it
        a = np.diag([s, -s]).astype(complex)
        code, doc, _ = run_cmd(command, matrix_to_json(a))
        assert code == 0
        assert run_cmd("verify", doc)[0] == 0
        original = getattr(tracezero.selfcomm, factors)

        def zero(m):
            out = original(m)
            return (*(np.zeros_like(x) for x in out[:-1]), out[-1])

        monkeypatch.setattr(tracezero.selfcomm, factors, zero)
        code, doc, _ = run_cmd(command, matrix_to_json(a))
        check = doc["report"]["bound_checks"][0]
        assert code == 1
        assert (check["name"], check["passed"]) == ("reconstruction_residual", False)
        assert check["measured_value"] == pytest.approx(s, rel=1e-12)
        assert check["claimed_bound"] == 1e-9 * s + TINY
        vcode, vdoc, _ = run_cmd("verify", doc)
        assert vcode == 1
        assert vdoc["result"]["mismatches"] == [
            f"$.report.bound_checks[0]: reconstruction_residual: re-measured "
            f"{check['measured_value']!r} exceeds claimed bound {1e-9 * s + TINY!r}"]


class TestNormShortcuts:
    """operator_norm answers 0.0 for a zero matrix without an SVD: with that
    shortcut taken out, so that every norm is the SVD's, every document,
    error documents included, is the same byte for byte."""

    @pytest.mark.parametrize("command, make_doc, flags, exit_code", [
        ("fack-run", sample_tower_doc, ("--seed", "3"), 0),
        ("fack-run", lambda: sample_tower_doc(2, 2), ("--seed", "3"), 0),
        ("decompose", lambda: matrix_to_json(_M3), (), 0),
        ("decompose-field", sample_field_doc, ("--refine", "1"), 0),
        ("block-split", sample_block_split_doc, (), 0),
        ("fack-run", _overlapping_blocks_doc, (), 2),
        ("fack-run", _unsupported_z0_doc, (), 2),
        ("block-split", _unbalanced_block_split_doc, (), 2),
    ])
    def test_shortcuts_never_change_output(self, monkeypatch, command, make_doc, flags,
                                           exit_code):
        text = json.dumps(make_doc())
        shortcut = run_from_args([command, *flags], stdin_text=text)
        assert shortcut[0] == exit_code
        original = tracezero.matcore.operator_norm

        def svd_only(a):
            return float(np.linalg.norm(tracezero.matcore.as_matrix(a), 2))

        for name, module in list(sys.modules.items()):
            if name.startswith("tracezero") and getattr(module, "operator_norm",
                                                        None) is original:
                monkeypatch.setattr(module, "operator_norm", svd_only)
        assert run_from_args([command, *flags], stdin_text=text) == shortcut


_HUGE = 10 ** 400  # a JSON integer, but too large for a float


def _ragged_tower_doc():
    ragged = matrix_to_json(np.eye(2))
    ragged["entries"][0][1] = [0]
    return {"tower": {"blocks": [matrix_to_json(np.eye(2)), ragged]}}


def _short_block_split_doc():
    doc = sample_block_split_doc()
    doc["pairs"] = doc["pairs"][:2]  # three blocks
    return doc


class TestHostileInput:
    @pytest.mark.parametrize("blocks, error", [
        ([{"rank": 2}, matrix_to_json(np.eye(2))],
         "tower mixes rank and matrix blocks: tower.blocks[0] has no entries"),
        ([matrix_to_json(np.eye(2)), {"rank": 2}, matrix_to_json(np.eye(2))],
         "tower mixes rank and matrix blocks: tower.blocks[1] has no entries"),
        ([{"rank": 2, "n": 2, "entries": [[[0, 0], [1]], [[0, 0], [0, 0]]]},
          matrix_to_json(np.eye(2))],
         "tower.blocks[0] has both a rank and entries: a block is a rank or a matrix"),
        ([matrix_to_json(np.eye(2)), {"rank": 1, "entries": []}],
         "tower.blocks[1] has both a rank and entries: a block is a rank or a matrix"),
        ([{"rank": 1, "entries": "junk"}, {"rank": 1}],
         "tower.blocks[0] has both a rank and entries: a block is a rank or a matrix"),
    ], ids=["rank-first", "rank-between", "junk-entries", "no-n", "all-rank"])
    def test_a_tower_block_that_decodes_to_no_matrix_is_named(self, blocks, error):
        doc = {"tower": {"blocks": blocks}, "depth": 0}
        assert run_cmd("fack-run", doc)[:2] == (2, {"error": error, "path": "stdin"})
        echo = {"command": "fack-run", "parameters": {}, "input": doc, "result": {}, "report": {}}
        assert run_cmd("verify", echo)[:2] == (2, {"error": error, "path": "stdin"})

    # Each input is refused once, by the schema or by decode_input; its path
    # is a JSON path inside the input, or None for a decoder's error.
    @pytest.mark.parametrize("command, make, error, path", [
        ("decompose-field", lambda: {"complex": {"vertices": 0, "simplices": [[0]]}, "n": 2,
                                     "values": {"0": matrix_to_json(SZ)}},
         "0 is less than the minimum of 1", ".complex.vertices"),
        ("decompose-field", lambda: {"complex": {"vertices": 1, "simplices": []}, "n": 2,
                                     "values": {"0": matrix_to_json(SZ)}},
         "[] should be non-empty", ".complex.simplices"),
        ("obstruct", lambda: {"q": {"variables": 1, "summands": []}, "n": 1},
         "[] should be non-empty", ".q.summands"),
        ("obstruct", lambda: {"q": {"variables": 1, "summands": [[1]]}, "n": 0},
         "0 is less than the minimum of 1", ".n"),
        ("pp-example", lambda: {"m": 0}, "0 is less than the minimum of 1", ".m"),
        ("tower", lambda: {"m_max": 0}, "0 is less than the minimum of 1", ".m_max"),
        ("tower", lambda: {"m_max": 4}, "m_max is capped at 3: stage-5 sizes have "
         "2^(k_4) ~ 10^120000000 and cannot be emitted", None),
        ("decompose-field", lambda: {"complex": {"vertices": 3, "simplices": [[0, 1], [1, 2]]},
                                     "n": 2, "values": {"0": matrix_to_json(SZ),
                                                        "2": matrix_to_json(SZ)}},
         "field is missing a value for vertex 1", None),
        ("block-split", _short_block_split_doc, "need one (x, y) pair per diagonal block", None),
        ("fack-run", _ragged_tower_doc, "[0] is too short", ".tower.blocks[1].entries[0][1]"),
    ], ids=["no-vertices", "no-simplices", "no-summands", "no-copies", "pp-m-0",
            "tower-m-max-0", "tower-m-max-4", "missing-value", "too-few-pairs", "ragged-pair"])
    def test_an_input_rule_is_checked_once_for_the_command_and_verify(
            self, command, make, error, path):
        doc = make()
        assert run_cmd(command, doc)[:2] == (
            2, {"error": error, "path": "stdin" if path is None else "$" + path})
        echo = {"command": command, "parameters": {}, "input": doc, "result": {}, "report": {}}
        assert run_cmd("verify", echo)[:2] == (
            2, {"error": error, "path": "stdin" if path is None else "$.input" + path})

    def test_huge_integer_entry_exits_2(self):
        huge = "1" + "0" * 400  # a JSON number, but too large for a float
        text = f'{{"n": 2, "entries": [[[{huge}, 0], [0, 0]], [[0, 0], [0, 0]]]}}'
        code, out = run_from_args(["decompose"], stdin_text=text)
        assert code == 2
        assert json.loads(out) == {"error": "input matrix: an entry is too large for a float",
                                   "path": "stdin"}

    def test_deeply_nested_input_exits_2(self):
        code, out = run_from_args(["decompose"], stdin_text="[" * 100000)
        doc = json.loads(out)
        assert code == 2
        assert doc["error"].startswith("cannot read input: ")
        assert doc["path"] == "stdin"

    def test_deep_unknown_property_is_echoed_as_json_dumps_writes_it(self):
        depth = 900
        text = (json.dumps(matrix_to_json(SZ))[:-1] + ', "extra": '
                + '{"a": ' * depth + "1" + "}" * depth + "}")
        code, out = run_from_args(["decompose"], stdin_text=text)
        assert code == 0
        doc = json.loads(out)
        assert doc["input"]["extra"] == json.loads(text)["extra"]
        assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("command, doc, message", [
        ("fack-run", {"tower": {"blocks": [{"rank": 2}] * 2, "epsilon": _HUGE}},
         "tower.epsilon is too large for a float"),
        ("fack-run", {"tower": {"blocks": [{"rank": 2}] * 3, "deltas": [0.5, _HUGE]}},
         "tower.deltas[1] is too large for a float"),
        ("pp-example", {"m": _HUGE},
         "m is capped at 1558: the certificate's coefficient m! must print as a JSON integer"),
    ])
    def test_huge_integer_field_exits_2(self, command, doc, message):
        code, out = run_from_args([command], stdin_text=json.dumps(doc))
        assert code == 2
        assert json.loads(out) == {"error": message, "path": "stdin"}

    @pytest.mark.parametrize("tower, message", [
        ('"deltas": [1e400]', "tower.deltas[0] must be a finite number, not inf"),
        ('"deltas": [Infinity]', "tower.deltas[0] must be a finite number, not inf"),
        ('"deltas": [NaN]', "tower.deltas[0] must be a finite number, not nan"),
        ('"epsilon": NaN', "tower.epsilon must be a finite number, not nan"),
    ], ids=["delta-1e400", "delta-Infinity", "delta-NaN", "epsilon-NaN"])
    def test_non_finite_tower_float_exits_2(self, tower, message):
        # json reads 1e400 as inf and takes NaN and Infinity tokens
        text = '{"tower": {"blocks": [{"rank": 2}, {"rank": 2}], %s}}' % tower
        code, out = run_from_args(["fack-run"], stdin_text=text)
        assert code == 2
        assert json.loads(out) == {"error": message, "path": "stdin"}
        # verify reads the echoed input with the same decoder
        _, _, valid = run_cmd("fack-run", {"tower": {"blocks": [{"rank": 2}, {"rank": 2}],
                                                     "deltas": [0.5], "epsilon": 0.5}})
        field = tower.split(":")[0]
        value = {'"deltas"': "[\n        0.5\n      ]", '"epsilon"': "0.5"}[field]
        assert f"{field}: {value}" in valid
        tampered = valid.replace(f"{field}: {value}", tower)
        code, out = run_from_args(["verify"], stdin_text=tampered)
        assert code == 2
        assert json.loads(out) == {"error": message, "path": "stdin"}

    def test_pp_example_cap_is_the_last_printable_coefficient(self):
        assert run_cmd("pp-example", {"m": 1558})[0] == 0
        assert run_cmd("pp-example", {"m": 1559})[0] == 2

    def test_integer_literal_over_the_digit_limit_exits_2(self):
        code, out = run_from_args(["pp-example"], stdin_text='{"m": 1' + "0" * 5000 + "}")
        doc = json.loads(out)
        assert code == 2
        assert doc["error"].startswith("cannot read input: Exceeds the limit")
        assert doc["path"] == "stdin"

    def test_refine_over_budget_exits_2_before_subdividing(self, monkeypatch):
        def refuse(complex_):
            raise AssertionError("subdivided an over-budget refinement")

        monkeypatch.setattr("tracezero.cli.barycentric_subdivide", refuse)
        code, doc, _ = run_cmd("decompose-field", sample_field_doc(), "--refine", "30")
        assert code == 2
        assert "budget" in doc["error"]
        assert doc["path"] == "stdin"

    def test_simplex_over_the_pair_budget_exits_2_before_coloring(self, monkeypatch):
        # coloring this 100 KB input would visit C(2000, 2) vertex pairs,
        # seconds and hundreds of MB of work
        def refuse(*args):
            raise AssertionError("colored an over-budget complex")

        simplex = SimplicialComplex.make(2000, [range(2000)])
        doc = field_to_json(make_field(simplex, [np.zeros((1, 1))] * 2000))
        _, out, _ = run_cmd("decompose-field", sample_field_doc())
        out["input"] = doc
        monkeypatch.setattr("tracezero.cli.greedy_coloring", refuse)
        monkeypatch.setattr(SimplicialComplex, "edges", refuse)
        error = {"error": "coloring the complex visits 1999000 vertex pairs, C(k, 2) (k!)^refine "
                          "for each maximal simplex of k vertices, over the budget of 262144",
                 "path": "stdin"}
        start = time.perf_counter()
        assert run_cmd("decompose-field", doc)[:2] == (2, error)
        assert run_cmd("verify", out)[:2] == (2, error)
        assert time.perf_counter() - start < 2.0

    def test_pair_budget_edge(self):
        # C(724, 2) = 261726 pairs fit, C(725, 2) = 262450 do not.  Refined
        # twice, a 4-simplex is 14400 simplices of 10 pairs each; two of them
        # stay within the simplex budget (29040 over the levels), not this one
        require_refine_budget(SimplicialComplex.make(724, [range(724)]), 0)
        with pytest.raises(InvalidInputError, match="visits 262450 vertex pairs"):
            require_refine_budget(SimplicialComplex.make(725, [range(725)]), 0)
        require_refine_budget(SimplicialComplex.make(5, [range(5)]), 2)
        with pytest.raises(InvalidInputError, match="visits 288000 vertex pairs"):
            require_refine_budget(SimplicialComplex.make(6, [range(5), (0, 1, 2, 3, 5)]), 2)

    def test_budget_counts_each_simplex_by_its_own_dimension(self):
        # 7! + 7 * 2! = 5054 simplices after one level; counted at 7! each,
        # the 8 maximal simplices would project 40320, over the budget
        simplices = [range(7)] + [(7 + 2 * i, 8 + 2 * i) for i in range(7)]
        doc = field_to_json(make_field(SimplicialComplex.make(21, simplices), [SZ] * 21))
        code, out, _ = run_cmd("decompose-field", doc, "--refine", "1")
        assert code == 0
        assert len(out["result"]["field"]["complex"]["simplices"]) == 5054
        vcode, vdoc, _ = run_cmd("verify", out)
        assert (vcode, vdoc["result"]) == (0, {
            "verified": True, "mismatches": [], "inner_exit_code": 0})
        with pytest.raises(InvalidInputError, match="of dimension 1 to 6 projects over"):
            require_refine_budget(SimplicialComplex.make(21, simplices), 2)

    @pytest.mark.parametrize("values, error", [
        (["z", "not hermitian", "z"],
         "vertex 1: a is not Hermitian within 1e-12 of its largest entry"),
        # the rule is relative to the largest entry, with no floor below 1
        (["z", "tiny skew", "z"], "vertex 1: a is not Hermitian within 1e-12 of its largest entry"),
        # a trace is no invalid input: the vertex after it is the first to fail
        (["z", "traced", "not hermitian"],
         "vertex 2: a is not Hermitian within 1e-12 of its largest entry"),
    ])
    def test_field_reports_the_first_failing_vertex(self, values, error):
        doc = field_to_json(make_field(_PATH, [_VERTEX_VALUES[v] for v in values]))
        assert run_cmd("decompose-field", doc)[:2] == (2, {"error": error, "path": "stdin"})

    @pytest.mark.parametrize("value, code, residual, mismatches", [
        # tr/n = 1 at vertex 1, over the claim 1e-8 * sup = 1e-8; verify names the vertex
        ("traced", 1, 1.0, [
            "$.result.factors[1]: vertex 1: norm([x*, x] - value) = 1.0 exceeds 1e-08",
            "$.report.bound_checks[0]: field_residual: re-measured 1.0 exceeds claimed "
            "bound 1e-08"]),
        # tr/n = 5e-12, under 1e-8 * sup = 1e-11: one rule for every vertex
        ("small trace", 0, 5e-12, []),
    ])
    def test_a_field_vertex_trace_is_judged_by_the_residual_claim(self, value, code, residual,
                                                                  mismatches):
        doc = field_to_json(make_field(_PATH, [SZ, _VERTEX_VALUES[value], SZ]))
        found, out, _ = run_cmd("decompose-field", doc)
        assert found == code
        check = out["report"]["bound_checks"][0]
        assert check["name"] == "field_residual"
        assert check["measured_value"] == pytest.approx(residual, rel=1e-6)
        assert check["passed"] is (code == 0)
        vcode, vdoc, _ = run_cmd("verify", out)
        assert (vcode, vdoc["result"]["mismatches"]) == (code, mismatches)

    @pytest.mark.parametrize("refine", ["0", "1"])
    def test_empty_simplex_exits_2(self, refine):
        doc = sample_field_doc()
        doc["complex"]["simplices"].append([])
        code, out, _ = run_cmd("decompose-field", doc, "--refine", refine)
        assert code == 2
        assert out == {"error": "a maximal simplex is empty", "path": "stdin"}

    def test_verify_of_an_echoed_empty_simplex_exits_2(self):
        _, out, _ = run_cmd("decompose-field", sample_field_doc(), "--refine", "1")
        out["input"]["complex"]["simplices"].append([])
        code, vdoc, _ = run_cmd("verify", out)
        assert code == 2
        assert vdoc == {"error": "a maximal simplex is empty", "path": "stdin"}

    def test_verify_of_an_emitted_empty_simplex_exits_1(self):
        _, out, _ = run_cmd("decompose-field", sample_field_doc())
        out["result"]["field"]["complex"]["simplices"].append([])
        code, vdoc, _ = run_cmd("verify", out)
        assert code == 1
        assert "$.result.field: a maximal simplex is empty" in vdoc["result"]["mismatches"]

    def test_dimension_8_simplex_is_within_the_grid_budget(self):
        simplex = SimplicialComplex.make(9, [range(9)])
        code, doc, _ = run_cmd("decompose-field", field_to_json(make_field(simplex, [SZ] * 9)))
        assert code == 0
        assert max(doc["result"]["coloring"]) + 1 == 9

    @pytest.mark.parametrize("name, message", [
        ("seed", "'x' is not of type 'integer'"),
        ("refine", "'x' is not of type 'integer'"),
        ("depth", "'x' is not of type 'integer', 'null'"),
    ])
    def test_verify_parameter_of_the_wrong_type_exits_2(self, name, message):
        doc = {"command": "tower", "parameters": {name: "x"}, "input": {"m_max": 1}}
        code, out, _ = run_cmd("verify", doc)
        assert code == 2
        assert out == {"error": message, "path": f"$.parameters.{name}"}

    def test_verify_parameter_out_of_range_keeps_its_message(self):
        doc = {"command": "tower", "parameters": {"seed": -1}, "input": {"m_max": 1}}
        assert run_cmd("verify", doc)[:2] == (2, {"error": "seed must fit in 64 bits",
                                                  "path": "stdin"})

    def test_verify_accepts_an_integral_float_depth(self):
        _, out, _ = run_cmd("fack-run", sample_tower_doc(), "--depth", "2")
        out["parameters"]["depth"] = 2.0
        code, vdoc, _ = run_cmd("verify", out)
        assert code == 0
        assert vdoc["result"]["verified"]

    @pytest.mark.parametrize("depth", [2, 0])
    def test_fack_run_reads_an_integral_float_depth_in_its_input(self, depth):
        by_int = run_cmd("fack-run", {**sample_tower_doc(), "depth": depth})
        code, out, _ = run_cmd("fack-run", {**sample_tower_doc(), "depth": float(depth)})
        assert code == by_int[0] == 0
        assert out["result"] == by_int[1]["result"]
        assert len(out["result"]["tower_report"]["stage_checks"]) == depth
        code, vdoc, _ = run_cmd("verify", out)
        assert code == 0
        assert vdoc["result"]["verified"]

    def test_obstruct_coefficient_over_the_digit_limit_exits_2(self):
        doc = {"q": {"variables": 300, "summands": [[10 ** 18] * 300]}, "n": 300}
        code, out, _ = run_cmd("obstruct", doc)
        assert code == 2
        assert out == {"error": f"an Euler-class coefficient has over "
                                f"{sys.get_int_max_str_digits()} digits and cannot print "
                                "as a JSON integer", "path": "stdin"}

    @pytest.mark.parametrize("q", [
        # 12 distinct dense summands over 24 variables
        {"variables": 24, "summands": [[2 if i == j else 1 for i in range(24)]
                                       for j in range(12)]},
        # at most C(23, 22) terms in the result, but two factors of C(23, 11) terms
        {"variables": 23, "summands": [[1] * 23] * 11 + [[2] * 23] * 11},
    ])
    def test_obstruct_over_the_product_budget_exits_2_at_once(self, q):
        start = time.perf_counter()
        code, out, _ = run_cmd("obstruct", {"q": q, "n": 1})
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == {"error": "the Euler class needs over 16777216 monomial pair products, "
                                "too many for the explicit ring", "path": "stdin"}

    def test_obstruct_over_the_expansion_cap_exits_2_before_any_product(self, monkeypatch):
        # 1716^2 pair visits pass the pair budget, but the class after the
        # second factor may have min(C(26, 12), 1716^2) > MAX_EXPANSION_TERMS terms
        q = {"variables": 26, "summands": [[1] * 13 + [0] * 13] * 6 + [[0] * 13 + [1] * 13] * 6}
        monkeypatch.setattr("tracezero.obstruct.sqfree_mul",
                            lambda a, b: pytest.fail("a product was formed"))
        monkeypatch.setattr("tracezero.obstruct.linear_power",
                            lambda *args: pytest.fail("a factor was expanded"))
        code, out, _ = run_cmd("obstruct", {"q": q, "n": 1})
        assert code == 2
        assert out == {"error": "expansion too large for the explicit ring", "path": "stdin"}

    def test_verify_without_a_result_exits_1(self):
        _, out, _ = run_cmd("decompose", matrix_to_json(SZ))
        del out["result"]
        code, vdoc, _ = run_cmd("verify", out)
        assert code == 1
        assert vdoc["result"] == {"verified": False,
                                  "mismatches": ["$.result: 'result' is a required property"],
                                  "inner_exit_code": 0}

    def test_verify_of_a_factor_of_another_size_exits_1(self):
        _, out, _ = run_cmd("decompose", matrix_to_json(SZ))
        out["result"]["factors"][0]["x"] = matrix_to_json(np.eye(3))
        code, vdoc, _ = run_cmd("verify", out)
        assert code == 1
        assert vdoc["result"]["mismatches"] == [
            "$.result.factors[0].x.n: 3 differs from the input's 2"]

    @pytest.mark.parametrize("path, value, mismatch", [
        (("result", "factors", 0, "y"), {"n": 2, "entries": [[[0, 0], [0, "1"]]]},
         "$.result.factors[0].y.entries[0][1][1]: '1' is not of type 'number'"),
        # a number that no float holds
        pytest.param(("report", "bound_checks", 0, "claimed_bound"), 10 ** 400,
                     f"$.report.bound_checks[0].claimed_bound: {10 ** 400} is not a 'double'",
                     id="claimed-bound-too-large-for-a-float"),
        (("report", "bound_checks", 0, "passed"), "yes",
         "$.report.bound_checks[0].passed: 'yes' is not of type 'boolean'"),
        # finite entries whose commutator with y, e_21, is x_22 - x_11 = inf
        (("result", "factors", 0, "x"), {"n": 2, "entries": [[[-1.7e308, 0], [0, 0]],
                                                              [[0, 0], [1.7e308, 0]]]},
         "$.result.factors: overflows a float"),
    ])
    def test_verify_of_an_ill_typed_result_exits_1(self, path, value, mismatch):
        _, out, _ = run_cmd("decompose-tight", matrix_to_json(SZ))
        parent = out
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        code, vdoc, _ = run_cmd("verify", out)
        assert code == 1
        assert vdoc["result"]["mismatches"] == [mismatch]

    def test_verify_of_an_unknown_bound_name_exits_1(self):
        _, out, _ = run_cmd("decompose", matrix_to_json(SZ))
        out["report"]["bound_checks"][1]["name"] = "norm_of_nothing"
        code, vdoc, _ = run_cmd("verify", out)
        assert code == 1
        assert vdoc["result"]["mismatches"] == [
            "$.report.bound_checks[1].name: unknown bound name 'norm_of_nothing'",
            "$.report.bound_checks: no check of norm_sq_over_norm_a"]

    # a key is written as jsonschema's json_path writes it: .key for a name,
    # else ['key'], so the empty key and a key that holds "." read plainly
    @pytest.mark.parametrize("key, path", [
        ("0", "['0']"), ("1,1", "['1,1']"), ("99", "['99']"), ("2,1", "['2,1']"), ("", "['']"),
        ("x", ".x"), ("1,", "['1,']"), ("1.2", "['1.2']"), ("a'\\", "['a\\'\\\\']"),
    ])
    def test_verify_of_an_euler_class_key_outside_the_ring_exits_1(self, key, path):
        # the class is 2 a_1 a_2: any other key, the unit "" too, is extra
        _, out, _ = run_cmd("obstruct", {"q": {"variables": 2, "summands": [[1, 1]]}, "n": 2})
        out["result"]["euler_class"][key] = 1
        code, vdoc, _ = run_cmd("verify", out)
        assert code == 1
        assert vdoc["result"]["mismatches"] == [
            f"$.result.euler_class{path}: is not part of this result"]

    def test_verify_of_an_euler_class_term_with_coefficient_0_exits_1(self):
        # an exact result is compared whole: a zero term is still an extra key
        _, out, _ = run_cmd("obstruct", {"q": {"variables": 2, "summands": [[1, 1]]}, "n": 2})
        out["result"]["euler_class"]["1"] = 0
        code, vdoc, _ = run_cmd("verify", out)
        assert code == 1
        assert vdoc["result"]["mismatches"] == [
            "$.result.euler_class['1']: is not part of this result"]

    def test_verify_of_an_int_in_the_bott_field_exits_1(self):
        _, out, _ = run_cmd("pp-example", {"m": 1})
        entries = out["result"]["field"]["values"]["0"]["entries"]
        assert entries[0][0] == [1.0, 0.0]
        entries[0][0][0] = 1
        code, vdoc, _ = run_cmd("verify", out)
        assert code == 1
        assert vdoc["result"]["mismatches"] == [
            "$.result.field.values['0'].entries[0][0][0]: 1, expected 1.0"]

    def test_verify_of_a_bundle_over_the_product_budget_exits_2_at_once(self):
        q = {"variables": 24, "summands": [[2 if i == j else 1 for i in range(24)]
                                           for j in range(12)]}
        doc = {"command": "obstruct", "parameters": {}, "input": {"q": q, "n": 1},
               "result": {}, "report": {}}
        start = time.perf_counter()
        code, out, _ = run_cmd("verify", doc)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == {"error": "checking the Euler class needs over 16777216 monomial-variable "
                                "products, too many for the explicit ring", "path": "stdin"}

    def test_verify_of_a_missing_input_field_reports_its_path(self):
        doc = {"command": "decompose", "parameters": {}, "input": {"n": 2}}
        assert run_cmd("verify", doc)[:2] == (
            2, {"error": "'entries' is a required property", "path": "$.input"})

    @pytest.mark.parametrize("simplices, vertices", [
        ([range(16)], 16),  # a simplex of dimension 15
        (list(itertools.combinations(range(12), 9)), 12),  # all 220 nine-vertex simplices
    ], ids=["dimension-15", "220-nine-vertex-simplices"])
    def test_large_simplices_decompose_and_verify(self, simplices, vertices):
        doc = field_to_json(make_field(SimplicialComplex.make(vertices, simplices),
                                       [SZ] * vertices))
        code, out, _ = run_cmd("decompose-field", doc)
        assert code == 0
        assert max(out["result"]["coloring"]) + 1 == vertices
        assert run_cmd("verify", out)[1]["result"] == {
            "verified": True, "mismatches": [], "inner_exit_code": 0}

    def test_refinement_of_a_0_dimensional_complex_is_budgeted(self, monkeypatch):
        # a level of a 0-dimensional complex makes no new simplex, yet costs a
        # subdivision: the budget counts the simplices of every level
        def refuse(*args):
            raise AssertionError("subdivided an over-budget refinement")

        monkeypatch.setattr("tracezero.cli.barycentric_subdivide", refuse)
        monkeypatch.setattr("tracezero.certcheck.barycentric_refinement", refuse)
        points = field_to_json(make_field(SimplicialComplex.make(2, [(0,), (1,)]), [SZ, -SZ]))
        error = {"error": "refine 1000000000 of 2 maximal simplices of dimension 0 projects "
                          "over the budget of 32768 simplices, summed over its levels",
                 "path": "stdin"}
        start = time.perf_counter()
        assert run_cmd("decompose-field", points, "--refine", "1000000000")[:2] == (2, error)
        _, out, _ = run_cmd("decompose-field", points)
        out["parameters"]["refine"] = 1000000000
        assert run_cmd("verify", out)[:2] == (2, error)
        assert time.perf_counter() - start < 2.0
        two_points = SimplicialComplex.make(2, [(0,), (1,)])
        require_refine_budget(two_points, 16384)  # 2 * 16384 simplices over the levels
        with pytest.raises(InvalidInputError, match="summed over its levels"):
            require_refine_budget(two_points, 16385)


def _tower_matrix_doc():
    blocks = [matrix_to_json(np.diag([1.0, 0.0, 0.0]).astype(complex)),
              matrix_to_json(np.diag([0.0, 1.0, 0.0]).astype(complex))]
    return {"tower": {"blocks": blocks}, "z0": matrix_to_json(np.zeros((3, 3), dtype=complex))}


def _bundle_doc():
    return {"q": {"variables": 3, "summands": [[1, 0, 2], [0, 1, 1], [2, 2, 0]]}, "n": 2}


_M3 = np.diag([1.0, 2.0, -3.0]).astype(complex)
_DELETE = object()

# (command, input, [(path to a node, value that replaces it, or _DELETE)])
_SCHEMA_VIOLATIONS = {
    "string leaf": ("decompose", lambda: matrix_to_json(_M3), [(("entries", 1, 2, 0), "x7")]),
    "true leaf": ("decompose", lambda: matrix_to_json(_M3), [(("entries", 0, 1, 1), True)]),
    "null leaf": ("decompose-tight", lambda: matrix_to_json(_M3), [(("entries", 2, 0, 0), None)]),
    "1-item pair": ("decompose", lambda: matrix_to_json(_M3), [(("entries", 1, 1), [0.5])]),
    "3-item pair": ("decompose", lambda: matrix_to_json(_M3), [(("entries", 1, 1), [0.5, 0, 1])]),
    "row not a list": ("decompose", lambda: matrix_to_json(_M3), [(("entries", 2), 7)]),
    "missing n": ("decompose", lambda: matrix_to_json(_M3), [(("n",), _DELETE)]),
    "float n": ("decompose", lambda: matrix_to_json(_M3), [(("n",), 2.5)]),
    "two bad leaves": ("decompose", lambda: matrix_to_json(_M3),
                       [(("entries", 0, 2, 1), "a"), (("entries", 2, 1), [1])]),
    "bad leaf and missing n": ("decompose", lambda: matrix_to_json(_M3),
                               [(("entries", 0, 0, 0), False), (("n",), _DELETE)]),
    "field value": ("decompose-field", sample_field_doc,
                    [(("values", "3", "entries", 0, 1, 0), "x")]),
    "fack-run block": ("fack-run", _tower_matrix_doc,
                       [(("tower", "blocks", 1, "entries", 0, 0, 1), False)]),
    "fack-run z0": ("fack-run", _tower_matrix_doc, [(("z0", "entries", 1, 0), [1, 2, 3])]),
    "block-split b": ("block-split", sample_block_split_doc,
                      [(("b", "entries", 3, 2, 1), "x")]),
    "block-split pair": ("block-split", sample_block_split_doc,
                         [(("pairs", 1, "y", "entries", 0, 1, 0), None)]),
    "block-split pair row": ("block-split", sample_block_split_doc,
                             [(("pairs", 2, "x", "entries", 1), "row")]),
    "block-split b and e": ("block-split", sample_block_split_doc,
                            [(("b", "entries", 5, 5), []), (("e", "entries", 0, 1, 1), "y")]),
    "obstruct summand item": ("obstruct", _bundle_doc, [(("q", "summands", 1, 2), True)]),
    "obstruct summand float": ("obstruct", _bundle_doc, [(("q", "summands", 0, 0), 1.5)]),
    "obstruct summand row": ("obstruct", _bundle_doc, [(("q", "summands", 2), "row")]),
    "obstruct summands and n": ("obstruct", _bundle_doc,
                                [(("q", "summands", 2, 1), "x"), (("n",), 0)]),
}


def _violating(doc, edits):
    for path, value in edits:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


def _mixed_tower_doc():
    m3 = matrix_to_json(_M3)
    return {"tower": {"blocks": [{"rank": 1}, m3, {"rank": 2}, m3]}, "z0": m3}


# (depth of the node a bad item replaces, its value): in a matrix grid a
# number (3), a pair (2) or a whole row (1)
_BAD_ITEMS = [(3, "x"), (3, True), (3, None),
              (2, [0.5]), (2, [0.5, 1, 2]), (2, "p"), (2, 3),
              (1, 7), (1, "row"), (1, None), (1, {"0": []})]
# in a bundle's summands, an integer (2) or a whole summand (1)
_BAD_SUMMAND_ITEMS = [(2, "x"), (2, True), (2, False), (2, None), (2, 1.5), (2, [0.5]),
                      (1, 7), (1, "row"), (1, None), (1, {"0": []}), (1, [0, True])]

# (command, input, paths to every matrix ``entries`` or bundle ``summands``
# grid in it, the bad items that fit its grids)
_GRID_LOCATIONS = [
    ("decompose", lambda: matrix_to_json(_M3), [("entries",)], _BAD_ITEMS),
    ("decompose-field", sample_field_doc, [("values", str(v), "entries") for v in range(6)],
     _BAD_ITEMS),
    ("fack-run", _mixed_tower_doc,
     [("tower", "blocks", 1, "entries"), ("tower", "blocks", 3, "entries"), ("z0", "entries")],
     _BAD_ITEMS),
    ("block-split", sample_block_split_doc,
     [("b", "entries"), ("e", "entries")]
     + [("pairs", i, key, "entries") for i in range(3) for key in ("x", "y")], _BAD_ITEMS),
    ("obstruct", _bundle_doc, [("q", "summands")], _BAD_SUMMAND_ITEMS),
]
_LOCATION_INPUTS = {command: make_doc() for command, make_doc, _, _ in _GRID_LOCATIONS}


def _schema_error(call):
    """(message, json_path) of the ValidationError that ``call`` raises, or None."""
    try:
        call()
    except jsonschema.ValidationError as exc:
        return exc.message, exc.json_path
    return None


class TestSchemaErrorParity:
    """Exit-2 documents are those of jsonschema.validate on the whole schema."""

    @pytest.mark.parametrize("case", sorted(_SCHEMA_VIOLATIONS))
    def test_error_document_matches_jsonschema(self, case):
        command, make_doc, edits = _SCHEMA_VIOLATIONS[case]
        doc = _violating(make_doc(), edits)
        with pytest.raises(jsonschema.ValidationError) as info:
            jsonschema.validate(doc, INPUT_SCHEMAS[command])
        code, out, _ = run_cmd(command, doc)
        assert code == 2
        assert out == {"error": info.value.message, "path": info.value.json_path}

    @pytest.mark.parametrize("case", sorted(_SCHEMA_VIOLATIONS))
    def test_verify_reports_schema_errors_inside_its_input(self, case):
        command, make_doc, edits = _SCHEMA_VIOLATIONS[case]
        doc = _violating(make_doc(), edits)
        with pytest.raises(jsonschema.ValidationError) as info:
            jsonschema.validate(doc, INPUT_SCHEMAS[command])
        code, out, _ = run_cmd("verify", {"command": command, "parameters": {}, "input": doc})
        assert code == 2
        assert out == {"error": info.value.message, "path": "$.input" + info.value.json_path[1:]}

    def test_rank_block_with_junk_entries_passes_the_schema_and_exits_2(self):
        doc = sample_tower_doc()
        doc["tower"]["blocks"] = [{"rank": 3, "entries": [["junk"]]}] + [{"rank": 3}] * 3
        jsonschema.validate(doc, INPUT_SCHEMAS["fack-run"])
        assert run_cmd("fack-run", doc, "--seed", "9")[:2] == (2, {
            "error": "tower.blocks[0] has both a rank and entries: a block is a rank or a matrix",
            "path": "stdin"})

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_bad_items_in_random_rows_match_jsonschema(self, data):
        command, _, grids, bad_items = data.draw(st.sampled_from(_GRID_LOCATIONS))
        doc = json.loads(json.dumps(_LOCATION_INPUTS[command]))
        for _ in range(data.draw(st.integers(1, 3))):
            grid = doc
            for key in data.draw(st.sampled_from(grids)):
                grid = grid[key]
            depth, bad = data.draw(st.sampled_from(bad_items))
            path, item = [], grid
            for _ in range(depth):
                if not isinstance(item, list) or not item:
                    break
                path.append(data.draw(st.integers(0, len(item) - 1)))
                item = item[path[-1]]
            # a copy of the bad item, as a later plant may walk into it
            _violating(grid, [(tuple(path), json.loads(json.dumps(bad)))])
        expected = _schema_error(lambda: jsonschema.validate(doc, INPUT_SCHEMAS[command]))
        if data.draw(st.booleans(), label="through verify"):
            code, out, _ = run_cmd("verify", {"command": command, "parameters": {}, "input": doc})
            assert expected is not None and code == 2
            assert out == {"error": expected[0], "path": "$.input" + expected[1][1:]}
        else:
            assert _schema_error(lambda: validate(doc, command)) == expected

    @staticmethod
    def _walked_rows(monkeypatch, doc, command, row_schema):
        """(message, json_path) of validate's error on ``doc``, and the
        indices of the rows walked by ``row_schema`` on the way."""
        validator_class = type(schemas._validator(command))
        descend = validator_class.descend
        walked = []

        def recording_descend(self, instance, schema, *args, **kwargs):
            if schema is row_schema:
                walked.append(kwargs.get("path"))
            return descend(self, instance, schema, *args, **kwargs)

        monkeypatch.setattr(validator_class, "descend", recording_descend)
        with pytest.raises(jsonschema.ValidationError) as info:
            validate(doc, command)
        return (info.value.message, info.value.json_path), walked

    def test_an_invalid_grid_is_worded_from_its_failing_row_alone(self, monkeypatch):
        doc = matrix_to_json(np.zeros((128, 128)))
        doc["entries"][77][5][1] = "x"
        row_schema = INPUT_SCHEMAS["decompose"]["properties"]["entries"]["items"]
        assert self._walked_rows(monkeypatch, doc, "decompose", row_schema) == (
            ("'x' is not of type 'number'", "$.entries[77][5][1]"), [77])

    def test_an_invalid_bundle_is_worded_from_its_failing_summand_alone(self, monkeypatch):
        doc = {"q": {"variables": 15, "summands": [[1] * 15 for _ in range(15)]}, "n": 1}
        doc["q"]["summands"][9][4] = True
        row_schema = INPUT_SCHEMAS["obstruct"]["properties"]["q"]["properties"]["summands"]["items"]
        assert self._walked_rows(monkeypatch, doc, "obstruct", row_schema) == (
            ("True is not of type 'integer'", "$.q.summands[9][4]"), [9])

    def test_integral_float_summands_go_to_the_full_validator(self):
        # 2.0 fails the exact type check, but jsonschema reads it as an integer
        doc = {"q": {"variables": 2, "summands": [[2.0, 0], [1, 1]]}, "n": 1}
        jsonschema.validate(doc, INPUT_SCHEMAS["obstruct"])
        validate(doc, "obstruct")

    def test_numbers_of_other_types_go_to_the_full_validator(self):
        # np.float64 fails the exact type check, but jsonschema accepts it
        validate({"n": 1, "entries": [[[np.float64(0.5), 0]]]}, "decompose")
        with pytest.raises(jsonschema.ValidationError, match="True is not of type 'number'"):
            validate({"n": 1, "entries": [[[True, 0]]]}, "decompose")

    def test_schemas_are_valid_draft_2020_12(self):
        for schema in NAMED_SCHEMAS.values():
            jsonschema.Draft202012Validator.check_schema(schema)


_numbers = st.one_of(
    st.integers(-(2 ** 70), 2 ** 70),
    st.floats(),
    st.sampled_from([2 ** 70, -(2 ** 70), -0.0, math.nan, math.inf, -math.inf]))
_pair_grids = st.lists(st.lists(st.lists(_numbers, min_size=2, max_size=2), max_size=4),
                       max_size=4)
_leaves = st.one_of(st.none(), st.booleans(), _numbers, st.floats().map(np.float64),
                    st.text(), _pair_grids)
_json_trees = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(), children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=3),
        st.dictionaries(st.floats(), children, max_size=3)),
    max_leaves=25)


# Finite floats a matrix may hold, with the edge cases of float text: both
# zeros, the least subnormal, the largest finite and integer-valued floats.
_matrix_floats = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                     -1.7976931348623157e308, 1.0, -3.0, 2.0 ** 53, 1e16]),
    st.integers(-(10 ** 6), 10 ** 6).map(float),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _complex_matrices(draw):
    """A square complex array: all zeros or a few values repeated over the
    entries, 1 x 1 to 20 x 20, or entries drawn one by one, up to 8 x 8."""
    n = draw(st.integers(1, 20))
    kind = draw(st.sampled_from(["zeros", "repeated", "distinct"]))
    if kind == "zeros":
        return np.zeros((n, n), dtype=complex)
    values = st.builds(complex, _matrix_floats, _matrix_floats)
    if kind == "repeated":
        pool = np.array(draw(st.lists(values, min_size=1, max_size=4)))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n * n, max_size=n * n))
        return pool[np.array(picks)].reshape(n, n)
    n = min(n, 8)
    entries = draw(st.lists(values, min_size=n * n, max_size=n * n))
    return np.array(entries, dtype=complex).reshape(n, n)


@st.composite
def _array_documents(draw):
    """A square complex array nested 0 to 4 levels deep in lists, tuples and
    dicts, beside JSON leaves and other arrays."""
    doc = draw(_complex_matrices())
    for _ in range(draw(st.integers(0, 4))):
        other = draw(st.one_of(_leaves, _complex_matrices()))
        doc = draw(st.sampled_from([[doc], [other, doc], (doc, other),
                                    {"entries": doc, "x": other}, {"x": doc, "entries": other},
                                    {"m": doc}]))
    return doc


def _many_arrays():
    """About 300 small arrays at three indent levels, under keys whose
    insertion order is not their sorted order, as a field's vertex values
    are: many numbers recur across arrays, and 0.0 and -0.0 both occur."""
    rng = np.random.default_rng(31)

    def small():
        parts = rng.integers(-2, 3, (2, 4, 4)) / 4
        parts[parts == 0] = rng.choice([0.0, -0.0], np.count_nonzero(parts == 0))
        return parts[0] + 1j * parts[1]

    return {"values": {str(v): small() for v in range(12, -1, -1)},
            "factors": [{"entries": [{"vertex": v, "x": small()} for v in range(30)]}
                        for _ in range(9)],
            "n": 4, "z": small()}


def _listed(doc):
    """``doc`` with each array replaced by its matrix_to_json document."""
    if isinstance(doc, np.ndarray):
        return matrix_to_json(doc)
    if isinstance(doc, dict):
        return {key: _listed(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return type(doc)(map(_listed, doc))
    return doc


def _float_edges() -> list:
    """The five floats on each side of the points where float text changes
    form or precision (repr's exponent thresholds 1e-4 and 1e16, 2^53, the
    least subnormal and normal, the largest float) and the points
    themselves, finite and positive."""
    edges = []
    for x in (1e-4, 1e16, 2.0 ** 53, 5e-324, 2.2250738585072014e-308, MAX_FLOAT):
        for toward in (0.0, math.inf):
            y = x
            for _ in range(5):
                y = math.nextafter(y, toward)
                edges.append(y)
        edges.append(x)
    return sorted(x for x in set(edges) if 0.0 < x < math.inf)


def _bit_pattern_arrays() -> list:
    """2^16 seeded random float64 bit patterns as two 128 x 128 complex
    arrays, each non-finite pattern made finite by clearing its top
    exponent bit."""
    bits = np.random.default_rng(34).integers(0, 2 ** 64, 2 ** 16, dtype=np.uint64)
    bits[~np.isfinite(bits.view(np.float64))] ^= np.uint64(1 << 62)
    return list(bits.view(np.complex128).reshape(2, 128, 128))


def _edge_array() -> np.ndarray:
    """The float edges in both signs, and -0.0, in one square array."""
    edges = np.resize([-0.0, *_float_edges()], (8, 8))
    array = np.empty((8, 8), dtype=complex)
    array.real, array.imag = edges, -edges
    return array


class TestEncode:
    @given(_json_trees)
    @settings(max_examples=300, deadline=None)
    @example({"b": [[[1, 2.5], [-0.0, math.nan]], [[math.inf, -math.inf], [2 ** 70, True]]],
              "a\u00e9\x00\u2028": (), "": {}, "t": ("\ud800", [[[]]])})
    # list grids: the float edges in both signs; ints at the ends of 64 bits
    # beside non-finite floats, and past them, which the whole grid must take
    @example({"edges": [[[x, -x] for x in _float_edges()], [[-0.0, 0.0]]],
              "ints": [[[2 ** 63 - 1, 2 ** 63], [2 ** 64 - 1, -(2 ** 63)]],
                       [[math.nan, math.inf], [-math.inf, 1e-5]]],
              "wide": [[[2 ** 63 - 1, 2 ** 63], [2 ** 64, 10 ** 30]],
                       [[math.nan, math.inf], [-math.inf, 1e-5]]]})
    def test_encode_is_json_dumps(self, doc):
        assert encode(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("value", [np.int64(1), {1, 2}, 1j, object()])
    def test_unsupported_values_raise_type_error(self, value):
        with pytest.raises(TypeError):
            json.dumps({"x": [value]}, indent=2)
        with pytest.raises(TypeError):
            encode({"x": [value]})
        # also after arrays, whose numbers are rendered once the walk is done
        with pytest.raises(TypeError):
            encode({"a": SZ, "b": [np.eye(2, dtype=complex), value]})

    @given(_array_documents())
    @settings(max_examples=200, deadline=None)
    @example(np.array([[-0.0 + 0j, 5e-324 - 0j], [1.0 + 1.7976931348623157e308j, 0j]]))
    @example([{"x": np.zeros((1, 1), dtype=complex)}])
    # the arrays of a document go into one batch in the order they are written
    @example({"b": SZ, "a": -SZ, "10": np.eye(2, dtype=complex), "9": 2 * SZ})
    # one number in several arrays, and 0.0 in one where -0.0 is in another
    @example([np.array([[0.0 + 1.5j]]), {"y": np.array([[-0.0 + 1.5j]]), "x": np.eye(1) * 1.5j}])
    @example(_many_arrays())
    @example(_bit_pattern_arrays())
    @example({"edges": _edge_array()})
    def test_arrays_encode_as_their_matrix_documents(self, doc):
        assert encode(doc) == json.dumps(_listed(doc), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("value", [
        np.zeros((2, 2)), np.zeros((2, 3), dtype=complex), np.zeros(2, dtype=complex),
        np.zeros((2, 2, 2), dtype=complex), np.zeros((0, 0), dtype=complex),
        np.zeros((2, 2), dtype=np.complex64)])
    def test_arrays_other_than_square_complex_matrices_raise_type_error(self, value):
        with pytest.raises(TypeError):
            encode({"x": value})

    def test_unsupported_keys_raise_type_error(self):
        with pytest.raises(TypeError):
            encode({(1, 2): 0})


_WIDE_TOWER = {"tower": {"blocks": [{"rank": 16}, {"rank": 1}], "L": 1, "K": 511}}


class TestDeterminismAndVerify:
    @pytest.mark.parametrize("command,make_doc,flags", ALL_RUNS)
    def test_byte_identical_reruns(self, command, make_doc, flags):
        doc = make_doc()
        _, _, text1 = run_cmd(command, doc, *flags)
        _, _, text2 = run_cmd(command, doc, *flags)
        assert text1 == text2

    @pytest.mark.parametrize("command,make_doc,flags", ALL_RUNS)
    def test_verify_round_trip(self, command, make_doc, flags):
        code, out_doc, text = run_cmd(command, make_doc(), *flags)
        assert code == 0
        vcode, vdoc, _ = run_cmd("verify", out_doc)
        assert vcode == 0
        assert vdoc["result"]["verified"] is True
        assert vdoc["result"]["mismatches"] == []

    @pytest.mark.parametrize("tower", [
        {"blocks": [{"rank": 4}, {"rank": 3}, {"rank": 5}], "K": 2},  # unequal ranks
        {"blocks": [{"rank": 2}] * 3, "ambient": 9},  # padded ambient space
    ])
    def test_unequal_and_padded_rank_towers_verify(self, tower):
        code, out_doc, _ = run_cmd("fack-run", {"tower": tower}, "--seed", "9")
        assert code == 0
        vcode, vdoc, _ = run_cmd("verify", out_doc)
        assert vcode == 0
        assert vdoc["result"] == {"verified": True, "mismatches": [], "inner_exit_code": 0}

    def test_tower_with_empty_first_support_writes_nothing_on_stderr(self, capfd):
        # epsilon >= 1: (e_0 - eps)_+ = 0, so the generated z0 is the empty matrix
        tower = {"blocks": [{"rank": 2}, {"rank": 2}], "epsilon": 2.5}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out_doc, _ = run_cmd("fack-run", {"tower": tower, "depth": 0})
            assert code == 0
            assert run_cmd("verify", out_doc)[0] == 0
            code, doc, _ = run_cmd("fack-run", {"tower": tower})
        assert code == 2
        assert doc["error"] == "tower block 1 has empty support above its threshold"
        assert capfd.readouterr().err == ""

    def test_outputs_are_strict_json_and_verify(self):
        # no NaN or Infinity token reaches stdout; the K = 511 tower's witness
        # is 511 blocks high, 2.4 MB, where a ((L+K-1) n)^2 range check would
        # have been 1.2 GB
        def refuse(token):
            raise AssertionError(f"non-JSON token {token} in stdout")

        runs = [(command, make_doc(), flags) for command, make_doc, flags in ALL_RUNS]
        runs.append(("fack-run", _WIDE_TOWER, ()))
        for command, doc, flags in runs:
            code, text = run_from_args([command, *flags], stdin_text=json.dumps(doc))
            assert code == 0
            json.loads(text, parse_constant=refuse)
            vcode, out = run_from_args(["verify"], stdin_text=text)
            assert vcode == 0
            assert json.loads(out, parse_constant=refuse)["result"]["verified"] is True

    def test_verify_rejects_tampered_output(self):
        code, out_doc, _ = run_cmd("decompose", matrix_to_json(SZ))
        assert code == 0
        out_doc["result"]["factors"][0]["x"]["entries"][0][0][0] += 0.5
        vcode, vdoc, _ = run_cmd("verify", out_doc)
        assert vcode == 1
        assert vdoc["result"]["verified"] is False
        assert vdoc["result"]["mismatches"]


def _digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


class TestVerifyDigest:
    """verify reports the document it checked as a digest, not an echo."""

    def test_stdin_text_digest(self):
        _, _, text = run_cmd("decompose", matrix_to_json(SZ))
        text = text.replace("\n", "\n ")  # any layout: the digest is of these bytes
        code, out = run_from_args(["verify"], stdin_text=text)
        assert code == 0
        assert json.loads(out)["input"] == {"command": "decompose",
                                            **_digest(text.encode("utf-8"))}

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_in_file_digest_is_of_the_file_bytes(self, tmp_path, newline):
        _, _, text = run_cmd("decompose-tight", matrix_to_json(SZ))
        data = text.replace("\n", newline).encode("utf-8")
        path = tmp_path / "out.json"
        path.write_bytes(data)
        code, out = run_from_args(["verify", "--in", str(path)])
        assert code == 0
        assert json.loads(out)["input"] == {"command": "decompose-tight", **_digest(data)}

    def test_stdin_bytes_digest_through_the_module(self):
        _, _, text = run_cmd("decompose", matrix_to_json(SZ))
        data = text.replace("\n", "\r\n").encode("utf-8")
        proc = subprocess.run([sys.executable, "-m", "tracezero", "verify"], input=data,
                              capture_output=True, cwd=REPO, env=src_env())
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["input"] == {"command": "decompose", **_digest(data)}

    def test_stdin_that_is_not_utf8_exits_2(self):
        proc = subprocess.run([sys.executable, "-m", "tracezero", "verify"],
                              input=b'{"command": "\xff"}', capture_output=True, cwd=REPO,
                              env=src_env())
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"].startswith("cannot read input: ")

    def test_text_with_a_lone_surrogate_exits_2(self):
        # only a Python caller can pass such text; it has no UTF-8 bytes to hash
        _, _, text = run_cmd("decompose", matrix_to_json(SZ))
        code, out = run_from_args(["verify"], stdin_text=text[:-2] + ', "note": "\ud800"}\n')
        assert code == 2
        assert json.loads(out)["error"].startswith("input is not valid UTF-8 text: ")

    def test_verify_of_a_large_document_writes_under_1_kb(self):
        a = random_trace_zero_hermitian(SplitMix64(5), 128)
        code, text = run_from_args(["decompose-tight"], stdin_text=json.dumps(matrix_to_json(a)))
        assert code == 0 and len(text) > 1_000_000
        vcode, out = run_from_args(["verify"], stdin_text=text)
        assert vcode == 0
        assert len(out.encode("utf-8")) < 1024

    @pytest.mark.parametrize("command,make_doc,flags", ALL_RUNS)
    def test_result_of_each_command_is_the_verdict_alone(self, command, make_doc, flags):
        _, _, text = run_cmd(command, make_doc(), *flags)
        code, out = run_from_args(["verify"], stdin_text=text)
        assert code == 0
        doc = json.loads(out)
        assert doc["result"] == {"verified": True, "mismatches": [], "inner_exit_code": 0}
        assert doc["input"] == {"command": command, **_digest(text.encode("utf-8"))}


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tracezero.cli", "decompose"],
            input=json.dumps(matrix_to_json(SZ)), text=True,
            capture_output=True, cwd=REPO, env=src_env())
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["report"]["all_passed"]

    def test_file_round_trip(self, tmp_path):
        in_path = tmp_path / "in.json"
        out_path = tmp_path / "out.json"
        in_path.write_text(json.dumps(matrix_to_json(SZ)))
        code, _ = run_from_args(["decompose", "--in", str(in_path),
                                 "--out", str(out_path)])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["command"] == "decompose"

    def test_an_out_path_that_cannot_be_written_exits_2(self, tmp_path, capsys):
        out_path = str(tmp_path / "missing" / "x.json")
        code, text = run_from_args(["pp-example", "--out", out_path], stdin_text='{"m": 1}')
        assert code == 2
        doc = json.loads(text)
        assert doc["error"].startswith("cannot write output: ")
        assert doc["path"] == out_path
        in_path = tmp_path / "in.json"
        in_path.write_text('{"m": 1}')
        assert main(["pp-example", f"--in={in_path}", f"--out={out_path}"]) == 2
        assert capsys.readouterr().out == text
        assert not (tmp_path / "missing").exists()

    def test_main_prints_an_error_that_was_not_written_to_out(self, tmp_path, capsys):
        # an --in that cannot be read ends the run before --out is opened
        in_path, out_path = tmp_path / "missing.json", tmp_path / "out.json"
        assert main(["decompose", f"--in={in_path}", f"--out={out_path}"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["error"].startswith("cannot read input: ")
        assert doc["path"] == str(in_path)
        assert not out_path.exists()

    def test_main_prints_only_without_out(self, tmp_path, capsys):
        in_path = tmp_path / "in.json"
        out_path = tmp_path / "out.json"
        in_path.write_text(json.dumps(matrix_to_json(SZ)))
        assert main(["decompose", f"--in={in_path}", f"--out={out_path}"]) == 0
        assert capsys.readouterr().out == ""
        assert main(["decompose", f"--in={in_path}"]) == 0
        assert capsys.readouterr().out == out_path.read_text()


class TestConfig:
    def test_bad_tol(self):
        # there is no trace tolerance to set: the reconstruction claim judges the trace
        with pytest.raises(TypeError, match="unexpected keyword argument 'tol'"):
            RunConfig(command="decompose", tol=-1.0)

    def test_unknown_command(self):
        # argparse's choices refuse it on the command line, and verify refuses
        # a document of it
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["nope"])
        assert exc.value.code == 2
        assert run_cmd("verify", {"command": "nope", "parameters": {}, "input": {}})[:2] == (
            2, {"error": "cannot verify output of command 'nope'", "path": "stdin"})

    @pytest.mark.parametrize("flag, error", [
        ("--seed", "seed must fit in 64 bits"),
        ("--refine", "refine must be nonnegative"),
        ("--depth", "depth must be nonnegative"),
    ])
    def test_a_negative_flag_exits_2_before_reading_input(self, flag, error):
        assert run_cmd("decompose", matrix_to_json(SZ), flag, "-1")[:2] == (
            2, {"error": error, "path": ""})

    def test_input_that_is_no_object_exits_2(self):
        assert run_cmd("decompose", [1, 2])[:2] == (
            2, {"error": "input must be a JSON object", "path": "stdin"})

    def test_the_readme_lists_exactly_the_parser_flags(self):
        # and each flag but --in and --out sets a RunConfig field, which
        # parameters() and verify read
        line = next(text for text in (REPO / "README.md").read_text().splitlines()
                    if text.startswith("Flags:"))
        actions = [a for a in build_parser()._actions if a.option_strings and a.dest != "help"]
        assert sorted(re.findall(r"`(--[a-z-]+)`", line)) \
            == sorted(option for a in actions for option in a.option_strings)
        fields = {field.name for field in dataclasses.fields(RunConfig)}
        assert {a.dest for a in actions} - {"in_path", "out_path"} <= fields
        assert set(RunConfig(command="tower").parameters()) == {"depth", "refine", "seed"}


def test_published_schemas_match_source():
    schema_dir = REPO / "docs" / "schemas"
    for name, schema in NAMED_SCHEMAS.items():
        path = schema_dir / f"{name}.schema.json"
        assert path.exists(), f"missing published schema {path}"
        assert json.loads(path.read_text()) == schema


def test_schema_script_writes_the_published_schemas(tmp_path):
    schema_dir = REPO / "docs" / "schemas"
    run_script("write_schemas.py", str(tmp_path))
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(path.name for path in schema_dir.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (schema_dir / name).read_bytes()
