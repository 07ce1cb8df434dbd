"""The independent checker behind ``verify``: it accepts honest documents,
rejects tampered ones and wrong constructions, and runs no constructor."""
import ast
import copy
import pathlib
import re
import sys

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tracezero
from helpers import field_to_json, monomial
from test_cli import (
    _PATH,
    ALL_RUNS,
    SZ,
    _M3,
    _rotated_tower_doc,
    run_cmd,
    sample_field_doc,
    sample_tower_doc,
)
from tracezero import claims
from tracezero.certcheck import barycentric_refinement, euler_class_by_forms
from tracezero.claims import norm_ratio
from tracezero.errors import InvalidInputError
from tracezero.jsonio import implied_exit_code, matrix_from_json, matrix_to_json
from tracezero.matcore import (
    BoundCheck,
    CommutatorDecomposition,
    VerificationReport,
    commutator,
    operator_norm,
)
from tracezero.obstruct import BundleExpr, euler_class
from tracezero.ozfield import (
    SimplicialComplex,
    barycentric_subdivide,
    make_field,
    octahedron_complex,
    subdivide_field,
)
from tracezero.rand import SplitMix64, random_trace_zero_hermitian
from tracezero.schemas import OUTPUT_SCHEMAS, validate

CERTCHECK = pathlib.Path(tracezero.__file__).parent / "certcheck.py"
JSONIO = pathlib.Path(tracezero.__file__).parent / "jsonio.py"
CLAIMS_MODULE = pathlib.Path(tracezero.__file__).parent / "claims.py"


def outputs():
    """(command, output document) for every ALL_RUNS command."""
    out = []
    for command, make_doc, flags in ALL_RUNS:
        code, doc, _ = run_cmd(command, make_doc(), *flags)
        assert code == 0
        out.append((command, doc))
    return out


def verify(doc):
    code, out, _ = run_cmd("verify", doc)
    return code, out["result"]


@pytest.mark.parametrize("command, doc", outputs(), ids=[c for c, _, _ in ALL_RUNS])
def test_every_output_and_its_verify_output_meet_their_output_schemas(command, doc):
    code, out, _ = run_cmd("verify", doc)
    assert code == 0
    for document in (doc, out):
        jsonschema.validate(document, OUTPUT_SCHEMAS[document["command"]])
        validate(document, document["command"], output=True)  # exact integers and numbers


@pytest.mark.parametrize("command, doc", outputs(), ids=[c for c, _, _ in ALL_RUNS])
def test_every_report_is_its_bound_checks(command, doc):
    # each claim is stated once, as a bound check: a report restates none
    assert set(doc["report"]) == {"bound_checks", "all_passed"}


# --------------------------------------------------------------------------
# Tampered copies.  Each command has a factor entry changed, a factor
# dropped, and a claimed bound lowered below its measured value; for the
# exact commands, which claim no bounds, a claimed integer is lowered.

def _bump_largest(matrix_doc):
    """Add 1 to the real part of the entry of largest modulus."""
    entries = matrix_doc["entries"]
    n = matrix_doc["n"]
    i, j = max(((i, j) for i in range(n) for j in range(n)),
               key=lambda ij: abs(complex(*entries[ij[0]][ij[1]])))
    entries[i][j][0] += 1.0


def _lower_bound(doc, name):
    """Claim the bound ``name`` below its measured value, leaving ``passed``
    as it was."""
    for check in doc["report"]["bound_checks"]:
        if check["name"] == name:
            check["claimed_bound"] = check["measured_value"] - 1.0
            return
    raise AssertionError(f"no bound {name}")


def _bump_euler_class(cls):
    key = next(iter(cls))
    cls[key] += 1


def _lower_block_variables(doc):
    block = doc["result"]["certificates"][0]["blocks"][0]
    block["block_variables"] = str(int(block["exponent"]) - 1)


TAMPERS = {
    "decompose": (
        lambda d: _bump_largest(d["result"]["factors"][0]["x"]),
        lambda d: d["result"]["factors"].pop(),
        lambda d: _lower_bound(d, "norm_sq_over_norm_a")),
    "decompose-tight": (
        lambda d: _bump_largest(d["result"]["factors"][0]["y"]),
        lambda d: d["result"]["factors"].pop(),
        lambda d: _lower_bound(d, "norm_product_over_norm_a")),
    "decompose-field": (
        lambda d: _bump_largest(d["result"]["factors"][0]["entries"][0]["x"]),
        lambda d: d["result"]["factors"].pop(),
        lambda d: _lower_bound(d, "max_factor_norm_sq")),
    "fack-run": (
        lambda d: _bump_largest(d["result"]["factors"][0]["x"]),
        lambda d: d["result"]["factors"].pop(),
        lambda d: _lower_bound(d, "commutator_count")),
    "block-split": (
        lambda d: _bump_largest(d["result"]["shift_upper"]),
        lambda d: d["result"].pop("shift_lower"),
        lambda d: _lower_bound(d, "shift_reconstruction")),
    "obstruct": (
        lambda d: _bump_euler_class(d["result"]["euler_class"]),
        lambda d: d["result"]["euler_class"].clear(),
        lambda d: d["result"]["params"].update(n=d["result"]["params"]["n"] - 1)),
    "pp-example": (
        lambda d: _bump_euler_class(d["result"]["certificate"]["euler_class"]),
        lambda d: d["result"]["certificate"]["euler_class"].clear(),
        lambda d: d["result"]["description"].update(self_commutator_count_obstructed=1)),
    "tower": (
        lambda d: d["result"]["k"].__setitem__(-1, str(int(d["result"]["k"][-1]) + 1)),
        lambda d: d["result"]["certificates"].pop(),
        _lower_block_variables),
}


def test_every_command_has_its_tampers():
    assert sorted(TAMPERS) == sorted(command for command, _, _ in ALL_RUNS)


@pytest.mark.parametrize("command, doc", outputs(), ids=[c for c, _, _ in ALL_RUNS])
@pytest.mark.parametrize("tamper", range(3), ids=["entry-changed", "factor-dropped",
                                                  "bound-lowered"])
def test_tampered_copy_is_rejected(command, doc, tamper):
    assert verify(doc) == (0, {"verified": True, "mismatches": [], "inner_exit_code": 0})
    tampered = copy.deepcopy(doc)
    TAMPERS[command][tamper](tampered)
    code, result = verify(tampered)
    assert code == 1
    assert result["verified"] is False
    assert result["mismatches"]
    assert all(m.startswith("$.") for m in result["mismatches"])


def _json_nodes(node, path=()):
    """(path, value) for a JSON value and each value inside it, a path a
    tuple of keys and list indices."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, value in items:
        yield from _json_nodes(value, path + (key,))


def _changed_leaf(value):
    if type(value) is bool:
        return not value
    if type(value) is int:
        return value + 1
    if type(value) is float:  # + 1.0, not a scaling, which leaves 0.0 as it is
        return value + 1.0
    if type(value) is str:
        return value + "x"
    assert value is None
    return 0


def _result_path(path):
    """jsonschema's json_path of a path inside the result: a name as .key,
    any other key as ['key'] (no key here holds a quote or a backslash)."""
    return "$.result" + "".join(
        f"[{p}]" if type(p) is int else f".{p}" if re.match("^[a-zA-Z][a-zA-Z0-9_]*$", p)
        else f"['{p}']" for p in path)


def _exact_outputs():
    """The output documents of obstruct and tower as ALL_RUNS runs them, and
    of pp-example at m = 1 and m = 2."""
    runs = {command: (make_doc(), flags) for command, make_doc, flags in ALL_RUNS}
    runs = [runs["obstruct"], ({"m": 1}, ()), ({"m": 2}, ()), runs["tower"]]
    commands = ["obstruct", "pp-example", "pp-example", "tower"]
    return [run_cmd(command, doc, *flags)[1] for command, (doc, flags) in zip(commands, runs)]


@pytest.mark.parametrize("doc", _exact_outputs(),
                         ids=["obstruct", "pp-example-1", "pp-example-2", "tower"])
def test_each_changed_leaf_of_an_exact_result_is_one_mismatch_at_its_path(doc):
    # an exact result is compared whole: every changed leaf, added key or
    # dropped key is one mismatch at its own path, and nothing else fails
    assert verify(doc) == (0, {"verified": True, "mismatches": [], "inner_exit_code": 0})
    tampers = []  # (path, the mismatch's text or None for any, tamper of the parent node)
    for path, value in _json_nodes(doc["result"]):
        if isinstance(value, dict):
            tampers.append((path + ("added",), "is not part of this result",
                            lambda node: node.update(added=0)))
            if value:
                key = sorted(value)[0]
                tampers.append((path + (key,), "missing", lambda node, key=key: node.pop(key)))
        elif not isinstance(value, list):
            tampers.append((path, None, lambda node, key=path[-1]: node.__setitem__(
                key, _changed_leaf(node[key]))))
    assert len(tampers) > 10
    for path, message, tamper in tampers:
        tampered = copy.deepcopy(doc)
        node = tampered["result"]
        for key in path[:-1]:
            node = node[key]
        tamper(node)
        code, result = verify(tampered)
        where = _result_path(path)
        assert code == 1, where
        assert len(result["mismatches"]) == 1, result["mismatches"]
        mismatch = result["mismatches"][0]
        assert mismatch == f"{where}: {message}" if message else mismatch.startswith(f"{where}: ")


def test_mismatches_name_the_failed_check():
    _, doc, _ = run_cmd("decompose-tight", matrix_to_json(_M3))
    _lower_bound(doc, "norm_product_over_norm_a")
    code, result = verify(doc)
    assert code == 1
    assert result["inner_exit_code"] == 0  # the document's own report still passes
    measured = doc["report"]["bound_checks"][1]["measured_value"]
    assert result["mismatches"] == [
        f"$.report.bound_checks[1].passed: norm_product_over_norm_a: passed is true but "
        f"measured {measured!r} against claimed bound {measured - 1.0!r} + tolerance "
        f"{doc['report']['bound_checks'][1]['tolerance']!r}",
        f"$.report.bound_checks[1]: norm_product_over_norm_a: re-measured {measured!r} "
        f"exceeds claimed bound {measured - 1.0!r}",
    ]


def test_a_document_whose_report_fails_has_inner_exit_code_1():
    _, doc, _ = run_cmd("tower", {"m_max": 2})
    doc["report"]["all_passed"] = False
    code, result = verify(doc)
    assert code == 1
    assert result["inner_exit_code"] == 1
    assert result["mismatches"] == [
        "$.report.all_passed: is false but the checks it covers say true"]


# Every claim the ALL_RUNS outputs carry, made weaker in one way at a time.
# The checker states each bound and tolerance from its own measurements, so
# the one mismatch it reports pins its side of ``tracezero.claims``.  A
# claim sits at a path of keys: a report's bound check, or a check of a
# push step in a fack-run's tower report.
CLAIMS = [(command, doc, ("report", "bound_checks", i), check["name"])
          for command, doc in outputs()
          for i, check in enumerate(doc["report"]["bound_checks"])]
STAGE_CLAIMS = [(command, doc, ("result", "tower_report", "stage_checks", t, i), check["name"])
                for command, doc in outputs() if command == "fack-run"
                for t, stage in enumerate(doc["result"]["tower_report"]["stage_checks"])
                for i, check in enumerate(stage)]


def test_the_weakened_claims_are_all_the_table_states():
    # each command's claims in report order; fack-run past depth 0, block-split
    # with more than one block; each push step's claims, of every stage
    assert [name for *_, name in CLAIMS] == [
        *claims.single("decompose", 1.0, 1.0), *claims.single("decompose-tight", 1.0, 1.0),
        *claims.field(1.0, 1), *claims.tower(1.0, 1.0, 1), *claims.split(1.0, 2)]
    assert [name for *_, name in STAGE_CLAIMS] == [*claims.stage(1.0, 1.0, 1, 1)] * 3


def _json_path(where) -> str:
    return "$" + "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in where)


@pytest.mark.parametrize("command, doc, where, name", CLAIMS + STAGE_CLAIMS,
                         ids=[f"{command}-{name}" for command, _, _, name in CLAIMS]
                         + [f"{command}-stage{where[3]}-{name}"
                            for command, _, where, name in STAGE_CLAIMS])
@pytest.mark.parametrize("tamper", ["claimed_bound", "tolerance"])
def test_a_weakened_claim_gives_one_mismatch(command, doc, where, name, tamper):
    doc = copy.deepcopy(doc)
    check = doc
    for key in where:
        check = check[key]
    was = check[tamper]
    if tamper == "claimed_bound":
        check[tamper] = 2 * was + 1
        expected = f"{name}: claimed bound {check[tamper]!r} is weaker than the certified {was!r}"
    else:
        check[tamper] = was + 1.0
        expected = f"{name}: tolerance {check[tamper]!r} differs from {was!r}"
    assert verify(doc) == (1, {"verified": False, "inner_exit_code": 0, "mismatches": [
        f"{_json_path(where)}.{tamper}: {expected}"]})


# --------------------------------------------------------------------------
# Independence from the constructors.

def test_a_wrong_construction_with_a_passing_report_is_rejected(monkeypatch):
    # the bug halves x and keeps the difference as its residual, so the
    # producer's own report, which measures a - [x, y] - residual, passes;
    # re-running the constructor would reproduce the document exactly.  The
    # document states one factor and no residual, so the reconstruction claim
    # is re-measured as norm(a - [x, y]) = norm(a / 2) = 1.5
    original = tracezero.selfcomm.tight_commutator_decompose

    def halved(a, **kwargs):
        [(x, y)] = original(a, **kwargs).factors
        x = x / 2
        unexplained = a - commutator(x, y)
        residual = unexplained.copy()
        checks = [BoundCheck("reconstruction_residual", 1e-9 * max(1.0, operator_norm(a)),
                             operator_norm(unexplained - residual), 0.0),
                  BoundCheck("norm_product_over_norm_a", 1.0,
                             *norm_ratio(operator_norm(x) * operator_norm(y), operator_norm(a)))]
        return CommutatorDecomposition(
            kind="general_commutators", factors=[(x, y)],
            report=VerificationReport(checks))

    monkeypatch.setattr(tracezero.cli, "tight_commutator_decompose", halved)
    code, doc, _ = run_cmd("decompose-tight", matrix_to_json(_M3))
    assert code == 0 and doc["report"]["all_passed"]
    code, result = verify(doc)
    assert code == 1
    assert result["inner_exit_code"] == 0
    claimed = doc["report"]["bound_checks"][0]["claimed_bound"]
    assert result["mismatches"] == [
        "$.report.bound_checks[0].measured_value: reconstruction_residual: reported 0.0 but "
        "re-measured 1.5",
        f"$.report.bound_checks[0]: reconstruction_residual: re-measured 1.5 exceeds claimed "
        f"bound {claimed!r}"]



def _skewed_refinement_mismatches(monkeypatch, field):
    """verify's mismatches on a decompose-field --refine 1 document of
    ``field`` whose constructor means one face wrong."""
    original = tracezero.ozfield.face_means

    def skewed(values, faces):
        means = original(values, faces)
        means[-1] *= 1.5
        return means

    for name, module in list(sys.modules.items()):
        if name.startswith("tracezero") and getattr(module, "face_means", None) is original:
            monkeypatch.setattr(module, "face_means", skewed)
    code, doc, _ = run_cmd("decompose-field", field, "--refine", "1")
    assert code == 0 and doc["report"]["all_passed"]
    code, result = verify(doc)
    assert code == 1
    return result["mismatches"]


def test_verify_means_the_refined_field_by_itself(monkeypatch):
    # a wrong refinement that the command's report cannot see: the factors
    # decompose the values it emits, so only a mean of verify's own finds it
    assert _skewed_refinement_mismatches(monkeypatch, sample_field_doc())[0] == \
        "$.result.field.values['11']: differs from the refined input's value"


def test_verify_means_a_tiny_refined_field_by_itself(monkeypatch):
    # values agree to claims.slack(AGREE, the largest entry), with no floor
    # at 1 under which a wrong mean of a field scaled by 1e-20 would pass
    field = sample_field_doc()
    for value in field["values"].values():
        value["entries"] = [[[1e-20 * part for part in z] for z in row]
                            for row in value["entries"]]
    assert _skewed_refinement_mismatches(monkeypatch, field)[0] == \
        "$.result.field.values['11']: differs from the refined input's value"


CONSTRUCTORS = ("self_commutator_decompose", "self_commutator_factors",
                "tight_commutator_decompose", "tight_commutator_factors", "decompose_field",
                "barycentric_subdivide", "subdivide_field", "greedy_coloring", "TowerModel",
                "tower_iterate", "push_step", "cuntz_witness",
                "collapse", "block_two_commutator_split", "hermitian_eig",
                "euler_class", "sqfree_mul", "linear_power",
                "obstruction_certificate", "pp_example", "villadsen_tower", "matrix_to_json")


def test_verify_accepts_a_tower_report_with_a_collapse_defect():
    # fack-run documents made while the collapse measured its cross products
    # carry this key; verify does not read it
    code, doc, _ = run_cmd("fack-run", sample_tower_doc(), "--seed", "9")
    assert code == 0
    assert "collapse_defect" not in doc["result"]["tower_report"]
    doc["result"]["tower_report"]["collapse_defect"] = 0.0
    assert verify(doc) == (0, {"verified": True, "mismatches": [], "inner_exit_code": 0})


def test_verify_calls_no_constructor(monkeypatch):
    docs = outputs()

    def refuse(*args, **kwargs):
        raise AssertionError("verify called a constructor")

    patched = 0
    for name, module in list(sys.modules.items()):
        if name.startswith("tracezero"):
            for attr in CONSTRUCTORS:
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
                    patched += 1
    assert patched >= len(CONSTRUCTORS)
    for command, doc in docs:
        assert verify(doc) == (0, {"verified": True, "mismatches": [], "inner_exit_code": 0}), \
            command


def _imported_names(tree):
    """(module, name) for every import in a module, relative modules by their
    last component, and (module, None) for a whole-module import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[-1], None
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            for alias in node.names:
                yield module, alias.name


def test_checker_imports_no_constructor():
    # jsonio too: its input decoders run inside verify
    forbidden_modules = {"selfcomm", "towers", "cli", "tracezero"}
    forbidden_names = {
        "ozfield": {"decompose_field", "barycentric_subdivide", "subdivide_field",
                    "greedy_coloring", "self_commutator_decompose", "self_commutator_factors",
                    "field_residual_against", "face_means"},
        "obstruct": {"euler_class", "sqfree_mul", "linear_power", "obstruction_certificate",
                     "pp_example", "villadsen_tower", "distance_lower_bound_cert"},
        # the constructor's norm helpers too: the checker measures with its own SVDs
        "matcore": {"hermitian_eig", "max_operator_norm", "operator_norms"},
        "jsonio": {"matrix_to_json"},
    }
    for path, known in ((CERTCHECK, ("matcore", "operator_norm")),
                        (JSONIO, ("obstruct", "BundleExpr"))):
        imports = list(_imported_names(ast.parse(path.read_text())))
        assert known in imports  # the guard reads real imports
        for module, name in imports:
            assert module not in forbidden_modules, f"{path.name} imports {module}"
            assert name not in forbidden_names.get(module, set()), f"{path.name} imports {name}"
            assert name != "*"


def test_the_claims_table_is_pure():
    # the table that constructors and the checker share imports only the
    # standard library and names no constructor, so reading it keeps the
    # checker independent
    tree = ast.parse(CLAIMS_MODULE.read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += ["." * node.level + (node.module or "") for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert "math" in modules  # the guard reads real imports
    for module in modules:
        assert module.split(".")[0] in sys.stdlib_module_names, f"claims.py imports {module}"
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {target.id for node in tree.body if isinstance(node, ast.Assign)
                for target in node.targets}
    assert {"single", "field", "stage", "tower", "split"} <= defined
    assert not defined & set(CONSTRUCTORS)


# --------------------------------------------------------------------------
# An invalid input echoed in a valid output: verify decodes the echo with
# the command's own decoder, so it exits as the command does on that input.

_M1 = {"n": 1, "entries": [[[0.0, 0.0]]]}
_TWO_BLOCK_SPLIT = {"blocks": 2, "b": matrix_to_json(np.diag([1.0, -1.0])),
                    "pairs": [{"x": _M1, "y": _M1}] * 2, "e": {"n": 1, "entries": [[[1.0, 0.0]]]}}
_MATRIX_TOWER = {"tower": {"blocks": [matrix_to_json(np.diag([1.0, 1.0, 0.0, 0.0])),
                                      matrix_to_json(np.diag([0.0, 0.0, 1.0, 1.0]))]},
                 "z0": matrix_to_json(np.diag([1.0, -1.0, 0.0, 0.0]))}
_RANK_TOWER = {"tower": {"blocks": [{"rank": 2}, {"rank": 2}], "ambient": 4}}
_ONE_BLOCK = {"tower": {"blocks": [{"rank": 2}]}}
_NON_HERMITIAN = np.diag([1.0, -1.0, 0.0, 0.0]) + np.eye(4, k=1)


@pytest.mark.parametrize("command, valid, flags, edit", [
    ("block-split", _TWO_BLOCK_SPLIT, (),
     lambda d: d.update(e=matrix_to_json(np.eye(2)))),
    ("fack-run", _MATRIX_TOWER, (),
     lambda d: d["tower"]["blocks"].__setitem__(1, matrix_to_json(np.eye(2)))),
    ("fack-run", _RANK_TOWER, ("--seed", "4"), lambda d: d["tower"].update(ambient=3)),
    ("block-split", _TWO_BLOCK_SPLIT, (), lambda d: d["pairs"].pop()),
    ("block-split", _TWO_BLOCK_SPLIT, (), lambda d: d.update(blocks=3)),
    ("pp-example", {"m": 2}, (), lambda d: d.update(m=1559)),
    ("tower", {"m_max": 2}, (), lambda d: d.update(m_max=4)),
    ("block-split", _TWO_BLOCK_SPLIT, (),
     lambda d: d["pairs"][0].update(x=matrix_to_json(np.eye(2)))),
    ("fack-run", _RANK_TOWER, ("--seed", "4"), lambda d: d["tower"].update(deltas=[0.5, 0.25])),
    ("fack-run", _RANK_TOWER, ("--seed", "4"), lambda d: d.update(depth=2)),
    ("obstruct", {"q": {"variables": 2, "summands": [[1, 1]]}, "n": 1}, (),
     lambda d: d["q"].update(summands=[[1]])),
    ("obstruct", {"q": {"variables": 1, "summands": [[1]]}, "n": 1}, (),
     lambda d: d.update(n=2_000_000)),
    ("fack-run", _MATRIX_TOWER, (), lambda d: d.update(z0=matrix_to_json(_NON_HERMITIAN))),
    ("fack-run", _MATRIX_TOWER, (),
     lambda d: d.update(z0=matrix_to_json(np.diag([1.0, -1.0, 0.0, 0.0, 0.0])))),
    ("fack-run", _MATRIX_TOWER, (),
     lambda d: d.update(z0=matrix_to_json(np.diag([1.0, 0.0, 0.0, 0.0])))),
    ("fack-run", _RANK_TOWER, ("--seed", "4"), lambda d: d["tower"].update(L=40)),
    ("fack-run", _RANK_TOWER, ("--seed", "4"), lambda d: d["tower"].update(L=10 ** 400)),
    ("fack-run", _ONE_BLOCK, ("--seed", "4"), lambda d: d["tower"].update(M=10 ** 400)),
    ("fack-run", _RANK_TOWER, ("--seed", "4"), lambda d: d["tower"].update(M=10 ** 400)),
], ids=["e-size", "tower-element-size", "ambient-too-small", "pair-count", "block-count",
        "pp-example-cap", "tower-cap", "pair-size", "delta-count", "depth-range",
        "degree-vector-length", "summand-cap", "z0-not-hermitian", "z0-size", "z0-trace",
        "pair-budget", "huge-L", "huge-M-one-block", "huge-M-two-blocks"])
def test_verify_decodes_the_echo_as_the_command_does(command, valid, flags, edit):
    code, out, _ = run_cmd(command, valid, *flags)
    assert code == 0
    bad = copy.deepcopy(out["input"])
    edit(bad)
    expected = run_cmd(command, bad, *flags)[:2]
    assert expected[0] == 2 and set(expected[1]) == {"error", "path"}
    out["input"] = bad
    assert run_cmd("verify", out)[:2] == expected


# --------------------------------------------------------------------------
# Documents the round trip of test_cli does not cover.

def _field_doc(complex_, n, seed):
    rng = SplitMix64(seed)
    return field_to_json(make_field(
        complex_, [random_trace_zero_hermitian(rng, n) for _ in range(complex_.vertex_count)]))


_CYCLE_AND_POINT = SimplicialComplex.make(5, [(0, 1), (1, 2), (2, 3), (0, 3)])
_B = np.diag([1.0, -1.0]).astype(complex)
_X = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


@pytest.mark.parametrize("command, doc, flags", [
    ("decompose", matrix_to_json(np.zeros((3, 3))), ()),
    ("decompose-tight", matrix_to_json(np.zeros((3, 3))), ()),
    ("decompose-tight", matrix_to_json(np.array([[0.0]])), ()),
    # an integral float size, which the input schema admits, echoed as it is
    ("decompose", {**matrix_to_json(np.diag([1.0, -1.0])), "n": 2.0}, ()),
    ("fack-run", sample_tower_doc(2, 2), ("--seed", "3")),
    ("fack-run", sample_tower_doc(), ("--depth", "0")),
    ("fack-run", {"tower": {"blocks": [{"rank": 3}] * 4, "ambient": 14, "epsilon": 0.7},
                  "depth": 2}, ("--seed", "2")),
    ("fack-run", _rotated_tower_doc(np.repeat(np.eye(4), 2, axis=1)), ("--seed", "6")),
    ("decompose-field", _field_doc(octahedron_complex(), 3, 4), ("--refine", "2")),
    ("decompose-field", _field_doc(_CYCLE_AND_POINT, 2, 5), ()),
    ("decompose-field", _field_doc(_CYCLE_AND_POINT, 2, 6), ("--refine", "1")),
    ("block-split", {"blocks": 1, "b": matrix_to_json(_B),
                     "pairs": [{"x": matrix_to_json(_X), "y": matrix_to_json(_X.T)}],
                     "e": matrix_to_json(np.eye(2))}, ()),
    ("obstruct", {"q": {"variables": 2, "summands": [[1, 1]]}, "n": 2}, ()),
    ("obstruct", {"q": {"variables": 2, "summands": [[1, 0]]}, "n": 2}, ()),
    ("obstruct", {"q": {"variables": 0, "summands": [[]]}, "n": 1}, ()),
    ("pp-example", {"m": 1}, ()),
    ("pp-example", {"m": 40}, ()),
    ("tower", {"m_max": 3}, ()),
])
def test_more_documents_verify(command, doc, flags):
    code, out, _ = run_cmd(command, doc, *flags)
    assert code == 0
    verified = (0, {"verified": True, "mismatches": [], "inner_exit_code": 0})
    assert verify(out) == verified
    if "factors" in out["result"]:  # and as written before, with its restated fields
        assert verify(_as_written_before(out)) == verified


def test_verify_uses_the_run_parameters():
    _, out, _ = run_cmd("decompose-field", _field_doc(octahedron_complex(), 2, 7), "--refine", "1")
    out["parameters"]["refine"] = 0
    code, result = verify(out)
    assert code == 1
    assert "$.result.field.complex.vertices: 26, but the refined input has 6" in \
        result["mismatches"]


def test_rotated_tower_z0_outside_block_0_is_rejected():
    _, out, _ = run_cmd("fack-run", _rotated_tower_doc(np.repeat(np.eye(4), 2, axis=1)),
                        "--seed", "6")
    z0 = np.zeros((8, 8), dtype=complex)
    z0[6, 6], z0[7, 7] = 1.0, -1.0  # trace zero and Hermitian, but in no block's support
    out["input"]["z0"] = matrix_to_json(z0)
    code, result = verify(out)
    assert code == 1
    assert any(m.startswith("$.input.z0: leaves her((e_0 - eps)_+)")
               for m in result["mismatches"])


def _fack_run_output():
    """The ALL_RUNS fack-run output: depth 3, L = K = M = 1, delta_3 = 1/8."""
    code, doc, _ = run_cmd("fack-run", sample_tower_doc(), "--seed", "9")
    assert code == 0
    return doc


def test_a_tampered_result_residual_norm_fails_where_it_is_written():
    doc = _fack_run_output()
    measured = doc["result"]["residual_norm"]
    doc["result"]["residual_norm"] = 0.0625
    assert verify(doc) == (1, {"verified": False, "inner_exit_code": 0, "mismatches": [
        f"$.result.residual_norm: reported 0.0625 but norm(z0 - sum [x, y]) is {measured!r}"]})


def test_a_factor_off_by_more_than_delta_fails_the_residual_claim():
    # the report and result.residual_norm are left as written: verify measures
    # norm(z0 - sum [x, y]) on the factors themselves
    doc = _fack_run_output()
    x = doc["result"]["factors"][0]["x"]
    x["entries"] = (2.0 * np.array(x["entries"])).tolist()
    code, result = verify(doc)
    assert code == 1
    check = doc["report"]["bound_checks"][0]
    assert check["name"] == "residual_norm"
    z0 = matrix_from_json(doc["input"]["z0"])
    total = sum(commutator(matrix_from_json(f["x"]), matrix_from_json(f["y"]))
                for f in doc["result"]["factors"])
    residual = operator_norm(z0 - total)
    assert residual > check["claimed_bound"] + check["tolerance"]
    assert result["mismatches"] == [
        f"$.report.bound_checks[0].measured_value: residual_norm: reported "
        f"{check['measured_value']!r} but re-measured {residual!r}",
        f"$.report.bound_checks[0]: residual_norm: re-measured {residual!r} exceeds claimed "
        f"bound {check['claimed_bound']!r}",
        f"$.result.residual_norm: reported {doc['result']['residual_norm']!r} but "
        f"norm(z0 - sum [x, y]) is {residual!r}"]


def _with_a_reconstruction_claim(doc):
    """A copy of the ALL_RUNS fack-run output ``doc`` in the format written
    while the residual claim measured norm(z0 - sum - R), for an in-block
    remainder R that the document does not carry: a ``reconstruction_residual``
    check first, of bound slack(1e-8, norm(z0)) and measured 0.0 on this run,
    a residual tolerance of slack(1e-12, norm(z0)), and the tower report's
    ``family_sizes``, one collapsed pair each of the odd and the even stages."""
    doc = copy.deepcopy(doc)
    z_norm = operator_norm(matrix_from_json(doc["input"]["z0"]))
    checks = doc["report"]["bound_checks"]
    checks[0]["tolerance"] = claims.slack(1e-12, z_norm)
    checks.insert(0, {"name": "reconstruction_residual", "measured_value": 0.0,
                      "claimed_bound": claims.slack(1e-8, z_norm), "tolerance": 0.0,
                      "passed": True})
    doc["result"]["tower_report"]["family_sizes"] = [1, 1]
    return doc


def test_a_document_with_the_reconstruction_claim_no_longer_verifies():
    doc = _with_a_reconstruction_claim(_fack_run_output())
    assert len(doc["result"]["factors"]) == 2
    z_norm = operator_norm(matrix_from_json(doc["input"]["z0"]))
    assert verify(doc) == (1, {"verified": False, "inner_exit_code": 0, "mismatches": [
        "$.report.bound_checks[0].name: unknown bound name 'reconstruction_residual'",
        f"$.report.bound_checks[1].tolerance: residual_norm: tolerance "
        f"{claims.slack(1e-12, z_norm)!r} differs from {claims.slack(1e-8, z_norm)!r}"]})


def test_implied_exit_code():
    assert implied_exit_code({"command": "tower", "report": {"all_passed": True}}) == 0
    assert implied_exit_code({"command": "tower", "report": {"all_passed": 1}}) == 1
    assert implied_exit_code({"command": "tower"}) == 1
    passing = {"command": "fack-run", "report": {"all_passed": True}}
    assert implied_exit_code({**passing, "result": {"tower_report": {"all_passed": True}}}) == 0
    assert implied_exit_code({**passing, "result": {"tower_report": {"all_passed": False}}}) == 1
    assert implied_exit_code({**passing, "result": []}) == 1


# Every ALL_RUNS case passes; the 2x2 identity leaves tr/n = 1 against the
# reconstruction claim, and so does the identity at a field vertex.
EXIT_RUNS = [(command, make_doc, flags, 0) for command, make_doc, flags in ALL_RUNS] + [
    ("decompose", lambda: matrix_to_json(np.eye(2)), (), 1),
    ("decompose-field", lambda: field_to_json(make_field(_PATH, [SZ, np.eye(2), SZ])), (), 1),
]


@pytest.mark.parametrize("command, make_doc, flags, expected", EXIT_RUNS,
                         ids=[f"{c}-{e}" for c, _, _, e in EXIT_RUNS])
def test_the_exit_code_is_the_one_verify_reads_off_the_output(command, make_doc, flags,
                                                              expected):
    code, doc, _ = run_cmd(command, make_doc(), *flags)
    assert code == expected
    vcode, vdoc, _ = run_cmd("verify", doc)
    assert vdoc["result"]["inner_exit_code"] == code
    assert vcode == implied_exit_code(vdoc) == (0 if vdoc["result"]["verified"] else 1)


def _as_written_before(doc):
    """A copy of ``doc`` with the fields that outputs once carried and
    ``verify`` does not read, each a restatement of another fact or a norm
    the document gives: the claimed bounds as ``result.bounds``, a single
    commutator's ``result.residual_norm`` of 0.0, a fack-run's
    ``tower_report.inblock_residual`` and ``result.depth`` (its count of
    stages), a field's ``color_count``, and a report's ``commutator_count``
    (its count of factors) and ``residual_norm``.  Each residual norm is
    norm(input - sum of commutators): a fack-run's ``result.residual_norm``,
    else the first claim's measured value."""
    doc = copy.deepcopy(doc)
    result, report = doc["result"], doc["report"]
    report["residual_norm"] = result.get("residual_norm",
                                         report["bound_checks"][0]["measured_value"])
    report["commutator_count"] = len(result["factors"])
    if doc["command"] in ("decompose", "decompose-tight", "fack-run"):
        result["bounds"] = {c["name"]: c["claimed_bound"] for c in report["bound_checks"]}
    if doc["command"] in ("decompose", "decompose-tight"):
        result["residual_norm"] = 0.0
    if doc["command"] == "fack-run":
        result["tower_report"]["inblock_residual"] = result["residual_norm"]
        result["depth"] = len(result["tower_report"]["stage_checks"])
    if doc["command"] == "decompose-field":
        result["color_count"] = max(result["coloring"]) + 1
    return doc


RESTATING = [(command, doc) for command, doc in outputs()
             if command in ("decompose", "decompose-tight", "fack-run", "decompose-field")]


@pytest.mark.parametrize("command, doc", RESTATING, ids=[c for c, _ in RESTATING])
def test_an_older_document_with_the_restated_fields_still_verifies(command, doc):
    older = _as_written_before(doc)
    assert older != doc
    assert verify(older) == (0, {"verified": True, "mismatches": [], "inner_exit_code": 0})


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


# (command, tamper of its ALL_RUNS output, the mismatches verify reports)
MALFORMED = [
    ("decompose", lambda d: _set(d, ("result", "factors", 0), 5),
     ["$.result.factors[0]: 5 is not of type 'object'"]),
    ("decompose", lambda d: _set(d, ("result", "factors"), 5),
     ["$.result.factors: 5 is not of type 'array'"]),
    ("decompose", lambda d: _set(d, ("report", "bound_checks", 0, "name"), 7),
     ["$.report.bound_checks[0].name: 7 is not of type 'string'"]),
    ("decompose", lambda d: d["report"]["bound_checks"].append(
        copy.deepcopy(d["report"]["bound_checks"][0])),
     ["$.report.bound_checks[2].name: reconstruction_residual is checked twice"]),
    ("fack-run", lambda d: d["input"].pop("z0"), ["$.input.z0: missing"]),
    ("decompose-field", lambda d: _set(d, ("result", "factors", 0, "entries", 1, "vertex"), 0),
     ["$.result.factors[0].entries[1].vertex: 0 is no vertex, or a vertex seen before"]),
    # a proper coloring, but with a color more than the face dimensions give
    ("decompose-field", lambda d: _set(d, ("result", "coloring", 11), 2),
     ["$.result.coloring: 3 colors, but a barycentric subdivision needs 2",
      "$.result.factors[1].entries[5].vertex: vertex 11 has color 2, not 1"]),
    # an integral float where an index or a count is read: the output
    # schema's integers have the format int64, which an integral float breaks
    ("decompose-field", lambda d: _set(d, ("result", "factors", 0, "entries", 0, "vertex"), 0.0),
     ["$.result.factors[0].entries[0].vertex: 0.0 is not a 'int64'"]),
    ("decompose-field", lambda d: _set(d, ("result", "coloring", 0), 0.0),
     ["$.result.coloring[0]: 0.0 is not a 'int64'"]),
    ("fack-run", lambda d: _set(d, ("result", "residual_norm"), "small"),
     ["$.result.residual_norm: 'small' is not of type 'number'"]),
    # an emitted field of another matrix size than the input's
    ("decompose-field", lambda d: d["result"]["field"].update(
        n=3, values=dict.fromkeys(d["result"]["field"]["values"], matrix_to_json(np.eye(3)))),
     ["$.result.field.n: 3 differs from the input's 2"]),
    ("tower", lambda d: _set(d, ("result", "notes"), 3), ["$.result.notes: 3 is not an object"]),
    ("tower", lambda d: d["result"].pop("k"), ["$.result.k: missing"]),
    ("tower", lambda d: _set(d, ("result", "extra"), 1),
     ["$.result.extra: is not part of this result"]),
]
_DOCS = {command: (make_doc, flags) for command, make_doc, flags in ALL_RUNS}


@pytest.mark.parametrize("command, tamper, mismatches", MALFORMED,
                         ids=[m[-1][0].split(":")[0] for m in MALFORMED])
def test_verify_names_the_malformed_part(command, tamper, mismatches):
    make_doc, flags = _DOCS[command]
    _, doc, _ = run_cmd(command, make_doc(), *flags)
    tamper(doc)
    assert verify(doc) == (1, {"verified": False, "mismatches": mismatches,
                               "inner_exit_code": 0})


def test_verify_reads_a_reported_int_as_a_float():
    # an int is a double up to 2**1024; with K = 2, stage 1's claims double
    # stage 0's remainder_norm, and 2 * 2**1023 as an int overflows when a
    # float is added to it
    _, doc, _ = run_cmd("fack-run", sample_tower_doc(K=2), "--seed", "9")
    stage = doc["result"]["tower_report"]["stage_checks"][0]
    i = next(i for i, check in enumerate(stage) if check["name"] == "remainder_norm")
    stage[i]["measured_value"] = 2 ** 1023
    code, result = verify(doc)
    assert (code, result["verified"]) == (1, False)
    assert [m.split(":")[0] for m in result["mismatches"]] == [
        f"$.result.tower_report.stage_checks[0][{i}].passed"]
    assert "measured 8.98846567431158e+307" in result["mismatches"][0]


def test_verify_of_a_verify_output_exits_2():
    _, out, _ = run_cmd("verify", run_cmd("decompose", matrix_to_json(SZ))[1])
    assert run_cmd("verify", out)[:2] == (
        2, {"error": "cannot verify output of command 'verify'", "path": "stdin"})


# --------------------------------------------------------------------------
# The checker's own algebra against the constructors'.

_forms = st.integers(0, 7).flatmap(lambda m: st.tuples(
    st.just(m),
    st.lists(st.lists(st.integers(-2, 2), min_size=m, max_size=m), min_size=1, max_size=4),
    st.integers(1, 3)))


@given(_forms)
@settings(max_examples=200, deadline=None)
def test_euler_class_by_forms_matches_the_ring_product(case):
    m, summands, copies = case
    expected = euler_class(BundleExpr.make(m, summands * copies)).coefficients
    assert euler_class_by_forms(summands * copies) == expected


def test_euler_class_by_forms_top_coefficient():
    assert euler_class_by_forms([[1, 1, 1]] * 3) == {monomial(1, 2, 3): 6}
    assert euler_class_by_forms([[1, 2], [3, 4]]) == {monomial(1, 2): 4 + 6}
    assert euler_class_by_forms([[0, 0]]) == {}


def test_euler_class_by_forms_refuses_over_the_budget():
    dense = [[2 if i == j else 1 for i in range(24)] for j in range(12)]
    with pytest.raises(InvalidInputError, match="over 16777216"):
        euler_class_by_forms(dense)


@pytest.mark.parametrize("levels", [1, 2])
@pytest.mark.parametrize("complex_", [octahedron_complex(), _CYCLE_AND_POINT,
                                      SimplicialComplex.make(4, [(0, 1, 2, 3)])])
def test_barycentric_refinement_matches_ozfield(complex_, levels):
    rng = SplitMix64(8)
    fld = make_field(complex_, [random_trace_zero_hermitian(rng, 2)
                                for _ in range(complex_.vertex_count)])
    simplices, values, colors = barycentric_refinement(
        complex_.maximal_simplices, fld.values, levels)
    for _ in range(levels):
        sub = barycentric_subdivide(fld.complex)
        fld = subdivide_field(fld, sub)
    assert simplices == list(fld.complex.maximal_simplices)
    assert colors == list(sub.coloring.colors)
    np.testing.assert_allclose(np.stack(values), np.stack(fld.values), rtol=0, atol=1e-15)
