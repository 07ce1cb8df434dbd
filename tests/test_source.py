"""Checks on the package source itself, made with the standard library's ast."""
import ast
import pathlib

import tracezero

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
