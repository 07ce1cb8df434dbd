"""Checks on the package source itself, made with the standard library's
ast, on the third-party imports pyproject.toml must declare, on how often
the encoder calls its compiled encoders, and on how often ``verify``
validates a document."""
import ast
import json
import pathlib
import re
import sys

import numpy as np

import tracezero
from tracezero import certcheck, cli, jsonio, schemas

SRC = pathlib.Path(tracezero.__file__).parent


def unused_imports(source: str) -> list:
    """The names a module imports and never reads, ``from __future__`` aside."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_the_guard_finds_an_unused_import():
    assert unused_imports("import math\nfrom .matcore import a, b\nb()\n") == ["a", "math"]
    assert unused_imports("import os.path\nos.path.join()\n") == []


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    unused = {path.name: unused_imports(path.read_text()) for path in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def third_party_imports(source: str) -> list:
    """The top-level names of the absolute imports of a module that are
    neither the standard library's nor this package's."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return sorted(names - set(sys.stdlib_module_names) - {"tracezero"})


def declared_dependencies(pyproject: str) -> set:
    """The distribution names of the ``dependencies`` list of a pyproject.toml."""
    listed = re.search(r"^dependencies = \[(.*?)\]", pyproject, re.MULTILINE | re.DOTALL)
    return set(re.findall(r'"([A-Za-z0-9_.-]+)', listed.group(1)))


def test_the_guard_finds_an_undeclared_import():
    source = ("import json\nimport numpy as np\nimport scipy.linalg\nfrom orjson import dumps\n"
              "from . import claims\nfrom tracezero.errors import InvalidInputError\n")
    assert third_party_imports(source) == ["numpy", "orjson", "scipy"]
    pyproject = 'name = "x"\ndependencies = [\n    "numpy>=1.24",\n    "orjson>=3.8",\n]\n'
    assert declared_dependencies(pyproject) == {"numpy", "orjson"}
    assert set(third_party_imports(source)) - declared_dependencies(pyproject) == {"scipy"}


def test_every_third_party_import_is_a_declared_dependency():
    pyproject = (pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    imported = {name for path in sorted(SRC.glob("*.py"))
                for name in third_party_imports(path.read_text())}
    assert imported == {"numpy", "jsonschema", "orjson"}
    assert imported - declared_dependencies(pyproject) == set()


def floored_calls(source: str) -> list:
    """The max(...) and min(...) calls, and numpy's elementwise maximum(...)
    and minimum(...), that take a literal 1 or 1.0, such as the tolerance
    floor c * max(1.0, norm), as source text."""
    return [ast.unparse(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) in ("max", "min")
                 or getattr(node.func, "attr", None) in ("maximum", "minimum"))
            and any(isinstance(arg, ast.Constant) and type(arg.value) in (int, float)
                    and arg.value == 1 for arg in node.args)]


def test_the_guard_finds_a_floor():
    source = ("a = 1e-9 * max(1.0, s)\nb = min(t, 1)\nc = np.maximum(1.0, u)\n"
              "d = max(s, 2.0, True)\ne = np.max(x, 1)\n")
    assert sorted(floored_calls(source)) == ["max(1.0, s)", "min(t, 1)", "np.maximum(1.0, u)"]


def test_no_tolerance_has_a_floor_at_1():
    # every tolerance is claims.slack(c, scale), relative down to the
    # underflow range; a floor at 1 makes a claim vacuous below norm 1
    modules = sorted(SRC.glob("*.py"))
    floored = {path.name: floored_calls(path.read_text()) for path in modules}
    assert {name: calls for name, calls in floored.items() if calls} == {}


def handler_tuple_returns(source: str) -> list:
    """The return statements of ``_handle_*`` functions that return a tuple,
    such as a body and an exit code, as "name: source text"."""
    return [f"{fn.name}: {ast.unparse(node)}" for fn in ast.walk(ast.parse(source))
            if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_handle_")
            for node in ast.walk(fn)
            if isinstance(node, ast.Return) and isinstance(node.value, ast.Tuple)]


def test_the_guard_finds_a_handler_returning_a_code():
    source = ("def _handle_a(cfg, x):\n    return ({'result': x}, 0)\n"
              "def _handle_b(cfg, x):\n    return {'result': x}\n"
              "def _other(x):\n    return x, 0\n")
    assert handler_tuple_returns(source) == ["_handle_a: return ({'result': x}, 0)"]


def test_the_exit_code_is_derived_in_one_place():
    # each command handler returns its body alone; the exit code of a finished
    # document is jsonio.implied_exit_code, the rule verify reports
    cli = (SRC / "cli.py").read_text()
    handlers = [node.name for node in ast.walk(ast.parse(cli))
                if isinstance(node, ast.FunctionDef) and node.name.startswith("_handle_")]
    assert len(handlers) == 8
    assert handler_tuple_returns(cli) == []
    defined = [path.name for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef) and node.name == "implied_exit_code"]
    assert defined == ["jsonio.py"]


def result_uses(source: str, names) -> dict:
    """Each read of ``result`` in the functions ``names``, sorted: "_match"
    where it is a whole argument of a ``_match`` call, else the first line of
    the expression or statement that reads it."""
    uses = {}
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, ast.FunctionDef) and fn.name in names:
            uses[fn.name] = sorted(
                "_match" if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_match"
                and child in node.args else ast.unparse(node).splitlines()[0]
                for node in ast.walk(fn) for child in ast.iter_child_nodes(node)
                if isinstance(child, ast.Name) and child.id == "result"
                and isinstance(child.ctx, ast.Load))
    return uses


def test_the_guard_finds_a_read_of_an_exact_result():
    source = ("def _check_a(f, doc):\n    result, report = f.body(doc)\n"
              "    _match(f, '$.result', result, {})\n    kind = result['kind']\n"
              "    for key in result:\n        pass\n"
              "    _match(f, '$.result', {**result}, {})\n"
              "def _check_b(f, doc):\n    result, report = f.body(doc)\n    len(result)\n")
    assert result_uses(source, ("_check_a", "_check_b")) == {
        "_check_a": ["_match", "for key in result:", "result['kind']", "{**result}"],
        "_check_b": ["len(result)"]}


EXACT_CHECKERS = ("_check_obstruct", "_check_pp_example", "_check_tower")


def test_an_exact_checker_hands_its_result_whole_to_match():
    # it reads no part of the result before the match, so the result's
    # output schema is a bare object
    assert result_uses((SRC / "certcheck.py").read_text(), EXACT_CHECKERS) == {
        name: ["_match"] for name in EXACT_CHECKERS}
    for command in ("obstruct", "pp-example", "tower"):
        assert schemas.OUTPUT_SCHEMAS[command]["properties"]["result"] == {"type": "object"}


def all_passed_owners(source: str) -> list:
    """The classes that define ``all_passed``, as a method, a property or an
    annotated field."""
    return [cls.name for cls in ast.walk(ast.parse(source)) if isinstance(cls, ast.ClassDef)
            if any(getattr(node, "name", None) == "all_passed"
                   or getattr(getattr(node, "target", None), "id", None) == "all_passed"
                   for node in cls.body)]


def test_the_guard_finds_a_class_with_its_own_all_passed():
    source = ("class A:\n    @property\n    def all_passed(self):\n        return True\n"
              "class B:\n    all_passed: bool\n"
              "class C:\n    report: object\n")
    assert all_passed_owners(source) == ["A", "B"]


def test_only_the_report_types_define_all_passed():
    # a result holds a matcore.VerificationReport, and a fack-run's stages a
    # TowerRunReport; no result type grows a report of its own
    owners = [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
              for name in all_passed_owners(path.read_text())]
    assert owners == ["matcore.VerificationReport", "towers.TowerRunReport"]


def test_one_c_encoder_call_renders_every_array_of_a_document(monkeypatch):
    # a document's arrays are rendered in one batch by one compiled-encoder
    # call, orjson.dumps, not one call per matrix; json.dumps re-renders only
    # the numbers that float.__repr__ writes in exponent form, so it is not
    # called at all when there are none
    calls = {"orjson": [], "json": []}

    def counting(name, dumps):
        def call(*args, **kwargs):
            calls[name].append(args)
            return dumps(*args, **kwargs)
        return call

    plain = {"values": {str(v): np.diag([v, -v]).astype(complex) for v in range(12)},
             "factors": [{"x": np.eye(3, dtype=complex)}, {"x": np.zeros((3, 3), dtype=complex)}],
             "n": 2}
    exponent = {"a": np.diag([2.5e-5, 1.0]).astype(complex), "b": np.diag([1e20, -2.5e-5j])}
    expected = [jsonio.encode(doc) for doc in (plain, exponent)]
    monkeypatch.setattr(jsonio.orjson, "dumps", counting("orjson", jsonio.orjson.dumps))
    monkeypatch.setattr(jsonio.json, "dumps", counting("json", json.dumps))
    assert jsonio.encode(plain) == expected[0]
    assert (len(calls["orjson"]), calls["json"]) == (1, [])
    assert jsonio.encode(exponent) == expected[1]
    assert len(calls["orjson"]) == 2
    assert calls["json"] == [([-2.5e-5, 2.5e-5, 1e20],)]  # distinct, in order of their bits


def test_verify_validates_a_document_once(monkeypatch):
    # verify's own input schema, then the whole document by its command's
    # output schema in one pass: no matrix of it is validated alone
    doc = jsonio.matrix_to_json(np.diag([1.0, 2.0, -3.0]))
    _, text = cli.run_from_args(["decompose-tight"], stdin_text=json.dumps(doc))
    calls, validate = [], schemas.validate

    def counting(doc, command, **options):
        calls.append((command, options))
        return validate(doc, command, **options)

    bound = [module for name, module in sys.modules.items()
             if name.startswith("tracezero") and getattr(module, "validate", None) is validate]
    assert cli in bound and certcheck in bound
    for module in bound:
        monkeypatch.setattr(module, "validate", counting)
    code, out = cli.run_from_args(["verify"], stdin_text=text)
    assert code == 0 and json.loads(out)["result"]["verified"]
    assert calls == [("verify", {}), ("decompose-tight", {"output": True})]
