import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import tracezero
from tracezero.cli import RunConfig, compare_json, run_from_args
from tracezero.errors import NumericsError
from tracezero.jsonio import field_to_json, matrix_to_json
from tracezero.matcore import commutator
from tracezero.ozfield import circle_complex, make_field
from tracezero.rand import SplitMix64, random_complex_matrix, random_trace_zero_hermitian
from tracezero.schemas import NAMED_SCHEMAS

REPO = pathlib.Path(__file__).resolve().parents[1]

SZ = np.diag([1.0, -1.0]).astype(complex)


def run_cmd(command, doc, *flags):
    code, text = run_from_args([command, *flags], stdin_text=json.dumps(doc))
    return code, json.loads(text), text


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


def sample_tower_doc():
    return {"tower": {"blocks": [{"rank": 3}] * 4, "L": 1, "K": 1, "M": 1},
            "depth": 3}


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

    def test_decompose_identity_exits_2(self):
        code, doc, _ = run_cmd("decompose", matrix_to_json(np.eye(2, dtype=complex)))
        assert code == 2
        assert "trace" in doc["error"]
        assert "path" in doc

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
        assert doc["result"]["color_count"] == 2
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

    def test_numerics_error_exits_1_with_json(self, monkeypatch):
        def broken(a, **kwargs):
            raise NumericsError("eigendecomposition failed the reconstruction check")

        monkeypatch.setattr("tracezero.selfcomm.hermitian_eig", broken)
        code, doc, _ = run_cmd("decompose", matrix_to_json(SZ))
        assert code == 1
        assert doc == {"error": "eigendecomposition failed the reconstruction check",
                       "path": "stdin"}

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

    def test_verify_rejects_tampered_output(self):
        code, out_doc, _ = run_cmd("decompose", matrix_to_json(SZ))
        assert code == 0
        out_doc["result"]["residual_norm"] = 0.5
        vcode, vdoc, _ = run_cmd("verify", out_doc)
        assert vcode == 1
        assert vdoc["result"]["verified"] is False
        assert vdoc["result"]["mismatches"]


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tracezero.cli", "decompose"],
            input=json.dumps(matrix_to_json(SZ)), text=True,
            capture_output=True, cwd=REPO)
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


class TestConfig:
    def test_bad_tol(self):
        with pytest.raises(Exception):
            RunConfig(command="decompose", tol=-1.0)

    def test_unknown_command(self):
        with pytest.raises(Exception):
            RunConfig(command="nope")


class TestCompareJson:
    def test_equal(self):
        assert compare_json({"a": [1.0, {"b": True}]}, {"a": [1.0, {"b": True}]}) == []

    def test_float_tolerance(self):
        assert compare_json({"x": 1.0}, {"x": 1.0 + 1e-13}) == []
        assert compare_json({"x": 1.0}, {"x": 1.1})

    def test_bool_vs_number(self):
        assert compare_json({"x": True}, {"x": 1})


def test_published_schemas_match_source():
    schema_dir = REPO / "docs" / "schemas"
    for name, schema in NAMED_SCHEMAS.items():
        path = schema_dir / f"{name}.schema.json"
        assert path.exists(), f"missing published schema {path}"
        assert json.loads(path.read_text()) == schema
