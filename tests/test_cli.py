import itertools
import json
import math
import pathlib
import subprocess
import sys
import time

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tracezero
from tracezero.cli import RunConfig, compare_json, encode, main, run_from_args
from tracezero.errors import NumericsError
from tracezero.jsonio import field_to_json, matrix_to_json
from tracezero.matcore import commutator
from tracezero.ozfield import SimplicialComplex, circle_complex, make_field
from tracezero.rand import (
    SplitMix64,
    random_complex_matrix,
    random_trace_zero_hermitian,
    random_unitary,
)
from tracezero.schemas import INPUT_SCHEMAS, NAMED_SCHEMAS, validate

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


def sample_tower_doc(L=1, K=1):
    return {"tower": {"blocks": [{"rank": 3}] * 4, "L": L, "K": K, "M": 1},
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

    def test_fack_run_collapse_takes_no_svd_on_orthogonal_blocks(self, monkeypatch):
        norms, slots = [], []
        norm, collapse = tracezero.selfcomm.operator_norm, tracezero.towers.collapse_orthogonal

        def counting_norm(a):
            norms.append(1)
            return norm(a)

        def counting_collapse(pairs):
            slots.append(len(pairs))
            return collapse(pairs)

        monkeypatch.setattr(tracezero.selfcomm, "operator_norm", counting_norm)
        monkeypatch.setattr(tracezero.towers, "collapse_orthogonal", counting_collapse)
        doc = {"tower": {"blocks": [{"rank": 3}] * 5}, "depth": 4}
        code, _, _ = run_cmd("fack-run", doc, "--seed", "4")
        assert code == 0
        assert max(slots) > 1
        assert norms == []

    def test_fack_run_collapse_forms_no_cross_product_on_block_towers(self, monkeypatch):
        # every cross product is proved zero by its operands' nonzero patterns,
        # so the Frobenius bound is taken only by each slot's reproduce check
        bounds, slots = [], []
        bound, collapse = tracezero.selfcomm.frobenius_bound, tracezero.towers.collapse_orthogonal

        def counting_bound(m):
            bounds.append(1)
            return bound(m)

        def counting_collapse(pairs):
            slots.append(len(pairs))
            return collapse(pairs)

        monkeypatch.setattr(tracezero.selfcomm, "frobenius_bound", counting_bound)
        monkeypatch.setattr(tracezero.towers, "collapse_orthogonal", counting_collapse)
        doc = {"tower": {"blocks": [{"rank": 3}] * 5}, "depth": 4}
        code, _, _ = run_cmd("fack-run", doc, "--seed", "4")
        assert code == 0
        assert max(slots) > 1
        assert len(bounds) == len(slots)

    def test_fack_run_on_a_rotated_tower_takes_the_dense_path(self):
        diagonals = np.repeat(np.eye(4), 2, axis=1)  # four rank-2 blocks in size 8
        code, doc, _ = run_cmd("fack-run", _rotated_tower_doc(diagonals), "--seed", "6")
        assert code == 0
        assert doc["report"]["all_passed"]
        assert doc["result"]["tower_report"]["all_passed"]
        # dense cross products are formed and measured: zero only up to rounding
        assert 0.0 < doc["result"]["tower_report"]["collapse_defect"] <= 1e-10

    def test_fack_run_rejects_a_rotated_overlapping_tower(self):
        code, doc, _ = run_cmd("fack-run", _rotated_tower_doc(_OVERLAPPING_DIAGONALS))
        assert code == 2
        assert doc["error"].startswith("tower blocks 1 and 2 are not orthogonal: ")

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


class TestFrobeniusScreen:
    """The screen decides pass/fail norms only: with it forced to defer to
    the SVD everywhere, every document, error documents included, is the
    same byte for byte."""

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
    def test_screen_never_changes_output(self, monkeypatch, command, make_doc, flags,
                                         exit_code):
        text = json.dumps(make_doc())
        screened = run_from_args([command, *flags], stdin_text=text)
        assert screened[0] == exit_code
        original = tracezero.matcore.frobenius_bound
        for name, module in list(sys.modules.items()):
            if name.startswith("tracezero") and getattr(module, "frobenius_bound",
                                                        None) is original:
                monkeypatch.setattr(module, "frobenius_bound", lambda m: math.inf)
        assert run_from_args([command, *flags], stdin_text=text) == screened


_HUGE = 10 ** 400  # a JSON integer, but too large for a float


class TestHostileInput:
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
        ("verify", {"command": "decompose", "parameters": {"tol": _HUGE}, "input": {}},
         "parameters.tol is too large for a float"),
    ])
    def test_huge_integer_field_exits_2(self, command, doc, message):
        code, out = run_from_args([command], stdin_text=json.dumps(doc))
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

    def test_simplex_over_the_grid_budget_exits_2_before_sampling(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("worked on an over-budget simplex")

        monkeypatch.setattr("tracezero.ozfield.barycentric_lattice", refuse)
        monkeypatch.setattr("tracezero.ozfield.self_commutator_decompose", refuse)
        simplex = SimplicialComplex.make(16, [range(16)])
        code, doc, _ = run_cmd("decompose-field", field_to_json(make_field(simplex, [SZ] * 16)))
        assert code == 2
        assert doc == {"error": f"simplex {tuple(range(16))} of dimension 15 needs 490314 grid "
                                "points, over the budget of 16384", "path": "stdin"}

    def test_dimension_8_simplex_is_within_the_grid_budget(self):
        simplex = SimplicialComplex.make(9, [range(9)])
        code, doc, _ = run_cmd("decompose-field", field_to_json(make_field(simplex, [SZ] * 9)))
        assert code == 0
        assert doc["result"]["color_count"] == 9

    @pytest.mark.parametrize("name, message", [
        ("tol", "'x' is not of type 'number'"),
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

    def test_complex_over_the_grid_work_budget_exits_2_before_decomposing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("decomposed a vertex of an over-budget complex")

        monkeypatch.setattr("tracezero.ozfield.self_commutator_decompose", refuse)
        simplices = list(itertools.combinations(range(12), 9))
        doc = field_to_json(make_field(SimplicialComplex.make(12, simplices), [SZ] * 12))
        start = time.perf_counter()
        code, out, _ = run_cmd("decompose-field", doc)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == {"error": "the complex's grid work, lattice points times vertices over "
                                "its 220 maximal simplices, is 25482600, over the budget of "
                                "16777216", "path": "stdin"}


def _tower_matrix_doc():
    blocks = [matrix_to_json(np.diag([1.0, 0.0, 0.0]).astype(complex)),
              matrix_to_json(np.diag([0.0, 1.0, 0.0]).astype(complex))]
    return {"tower": {"blocks": blocks}, "z0": matrix_to_json(np.zeros((3, 3), dtype=complex))}


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
}


class TestSchemaErrorParity:
    """Exit-2 documents are those of jsonschema.validate on the whole schema."""

    @pytest.mark.parametrize("case", sorted(_SCHEMA_VIOLATIONS))
    def test_error_document_matches_jsonschema(self, case):
        command, make_doc, edits = _SCHEMA_VIOLATIONS[case]
        doc = make_doc()
        for path, value in edits:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if value is _DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        with pytest.raises(jsonschema.ValidationError) as info:
            jsonschema.validate(doc, INPUT_SCHEMAS[command])
        code, out, _ = run_cmd(command, doc)
        assert code == 2
        assert out == {"error": info.value.message, "path": info.value.json_path}

    def test_rank_block_with_junk_entries_is_accepted(self):
        doc = sample_tower_doc()
        doc["tower"]["blocks"] = [{"rank": 3, "entries": [["junk"]]}] + [{"rank": 3}] * 3
        jsonschema.validate(doc, INPUT_SCHEMAS["fack-run"])
        code, _, _ = run_cmd("fack-run", doc, "--seed", "9")
        assert code == 0

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


class TestEncode:
    @given(_json_trees)
    @settings(max_examples=300, deadline=None)
    @example({"b": [[[1, 2.5], [-0.0, math.nan]], [[math.inf, -math.inf], [2 ** 70, True]]],
              "a\u00e9\x00\u2028": (), "": {}, "t": ("\ud800", [[[]]])})
    def test_encode_is_json_dumps(self, doc):
        assert encode(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("value", [np.int64(1), {1, 2}, 1j, object()])
    def test_unsupported_values_raise_type_error(self, value):
        with pytest.raises(TypeError):
            json.dumps({"x": [value]}, indent=2)
        with pytest.raises(TypeError):
            encode({"x": [value]})

    def test_unsupported_keys_raise_type_error(self):
        with pytest.raises(TypeError):
            encode({(1, 2): 0})


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
