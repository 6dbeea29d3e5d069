"""Code hygiene: no dead module-level imports, no parameter a function never reads, and scipy
stays off the CLI's import path."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import matorder

PACKAGE = pathlib.Path(matorder.__file__).parent
# __init__ imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_scan_sees_an_unused_name():
    assert _unused_imports("import os\nfrom typing import List, Optional\nx: Optional[int] = None\n") == [
        (1, "os"),
        (2, "List"),
    ]


# the suite registry and the CLI dispatch call these with a fixed signature
FIXED_SIGNATURE_PREFIXES = ("_suite_", "_cmd_")


def _unused_parameters(source: str):
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith(FIXED_SIGNATURE_PREFIXES):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(node.lineno, node.name, p) for p in params if p not in read and p not in ("self", "cls")]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert _unused_parameters(path.read_text()) == []


def test_unused_parameter_scan_sees_an_unread_parameter():
    source = (
        "def f(a, b, *args, c=1, **kw):\n    return a + c\n"
        "class K:\n    def m(self, x):\n        def inner(y):\n            return x\n        return inner\n"
        "def _suite_x(rng, trials, tol, rec):\n    pass\n"
    )
    assert _unused_parameters(source) == [
        (1, "f", "b"),
        (1, "f", "args"),
        (1, "f", "kw"),
        (5, "inner", "y"),
    ]


def test_cli_import_loads_no_scipy():
    code = "import sys, matorder.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env, timeout=120)
    assert out.stdout.strip() == "[]"
